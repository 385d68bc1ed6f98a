#!/usr/bin/env bash
# Checks the fig3 numeric lock: runs bench_fig3_strategies and compares the
# sha256 of its stdout with the hash recorded in scripts/fig3_lock.sha256
# for the GEMM micro-kernel this host runs. Any change to the fault-free
# numerics of the nn/fl/net layers shows up as a mismatch.
#
# Usage: scripts/check_fig3_lock.sh [build-dir]
#
# The build dir defaults to ./build and must contain a compiled
# bench/bench_fig3_strategies from a Release build without
# FEDMIGR_NATIVE_ARCH (cmake --preset default && cmake --build --preset
# default --target bench_fig3_strategies). FEDMIGR_GEMM_KERNEL=portable
# checks the portable kernel's hash. The bench's stdout is kept in
# <build-dir>/fig3_lock.out for diffing. Exit status: 0 on a match, 1 on
# a mismatch or a missing binary.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
lock_file="$repo_root/scripts/fig3_lock.sha256"

bench_bin="$build_dir/bench/bench_fig3_strategies"
if [[ ! -x "$bench_bin" ]]; then
  echo "error: $bench_bin not found; build it first:" >&2
  echo "  cmake -B '$build_dir' -S '$repo_root' && cmake --build '$build_dir' --target bench_fig3_strategies" >&2
  exit 1
fi

# The same choice the runtime dispatch in src/nn/gemm.cc makes.
kernel=portable
if [[ "${FEDMIGR_GEMM_KERNEL:-}" != portable ]] &&
   grep -qw avx2 /proc/cpuinfo 2>/dev/null &&
   grep -qw fma /proc/cpuinfo 2>/dev/null; then
  kernel=avx2+fma
fi
expected="$(awk -v k="$kernel" '$1 == k { print $2 }' "$lock_file")"
if [[ -z "$expected" ]]; then
  echo "error: no $kernel hash in $lock_file" >&2
  exit 1
fi

out="$build_dir/fig3_lock.out"
"$bench_bin" > "$out"
actual="$(sha256sum "$out" | awk '{ print $1 }')"
if [[ "$actual" != "$expected" ]]; then
  echo "FAILED: bench_fig3_strategies stdout sha256 ($kernel kernel)" >&2
  echo "  expected $expected" >&2
  echo "  actual   $actual" >&2
  echo "  stdout kept in $out" >&2
  exit 1
fi
echo "fig3 lock holds ($kernel kernel): $actual"
