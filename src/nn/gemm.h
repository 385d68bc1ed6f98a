// Blocked, packed, vectorized SGEMM — the kernel every dense and (via
// im2col) convolution op in the NN substrate lowers onto.
//
// Scheme: B is packed once into kNR-column micro-panels; row-blocks of A
// (kMC rows, the intra-op parallel grain) are packed into kMR-row
// micro-panels; a register-tiled kMR x kNR micro-kernel accumulates the
// full K reduction for each output tile in one pass. The micro-kernel is
// either portable C (compiler-vectorized) or AVX2+FMA intrinsics, chosen
// once at startup by runtime CPU dispatch.
//
// Determinism contract: each output element is reduced in k-order
// 0..K-1 by exactly one tile, and tile boundaries depend only on the
// operand shapes — never on the thread count or on which thread runs
// which tile. Results are therefore bit-identical across runs and across
// intra-op thread counts on the same build + machine. The portable
// micro-kernel reproduces the legacy scalar kernels' mul-then-add
// sequence exactly (no FMA contraction); the AVX2 path fuses, so it
// matches only to within 1 ulp per multiply-add.

#ifndef FEDMIGR_NN_GEMM_H_
#define FEDMIGR_NN_GEMM_H_

#include <cstdint>
#include <functional>

namespace fedmigr::nn {

// How Sgemm combines the computed product P = op(A)·op(B) with the
// existing contents of C. Because float addition is not associative the
// three modes are numerically distinct; each mirrors one legacy kernel's
// reduction order:
enum class GemmAcc {
  // C = P; the k-sum is seeded from zero (legacy MatMul into a fresh C).
  kOverwrite,
  // C seeds the k-accumulation: C = ((C + p_0) + p_1) + ... (legacy conv
  // forward, where the output plane is pre-filled with the bias).
  kSeedFromC,
  // P is fully reduced in registers first, then added: C = C + P (legacy
  // conv weight-gradient, a register tap-sum flushed into memory). With a
  // k_run (below) each run of k is one such partial.
  kAddAfter,
};

// C (m x n, leading dim ldc) = op(A) · op(B) combined with C per `acc`.
// All matrices are row-major. op(A) is A itself (m x k, leading dim lda)
// or, when trans_a, the transpose of a k x m buffer — element (i, p) is
// read as a[p * lda + i]. op(B) likewise is k x n, or with trans_b the
// transpose of an n x k buffer. Runs on the intra-op pool when one is
// configured and the caller is not already inside a pool worker.
//
// k_run > 0 (kAddAfter only; it must divide k) splits the reduction into
// runs of k_run consecutive k steps, each reduced in registers and added
// to C in k-order: C = ((C + P_0) + P_1) + ... — bit for bit the same as
// k / k_run calls over the runs in turn. The conv weight gradient uses
// one run per image.
void Sgemm(bool trans_a, bool trans_b, int m, int n, int k, const float* a,
           int lda, const float* b, int ldb, float* c, int ldc,
           GemmAcc acc = GemmAcc::kOverwrite, int k_run = 0);

// Intra-op thread count for the kernel layer. Defaults to the
// FEDMIGR_INTRA_OP_THREADS environment variable, else 1 (serial). The
// backing pool is created lazily and rebuilt when the width changes; by
// the determinism contract above, changing it never changes results.
void SetIntraOpThreads(int num_threads);
int GetIntraOpThreads();

// Runs fn(begin, end) over the fixed chunking of [0, n) into grain-sized
// ranges, on the intra-op pool when profitable. Falls back to inline
// execution (same chunk sequence) when the pool is serial or the calling
// thread is already a pool worker — the composition rule that lets
// intra-op kernels run inside the trainer's inter-client ParallelFor
// without nested-pool deadlock. Safe to call from several non-worker
// threads at once: they share the lazily built pool, whose Wait() holds
// each caller until the combined queue drains (TSan-gated by the
// GemmConcurrency tests).
void IntraOpParallelRange(int64_t n, int64_t grain,
                          const std::function<void(int64_t, int64_t)>& fn);

// Publishes the calling thread's batched GEMM call/FLOP tally into the
// registry counters (nn/gemm_calls, nn/gemm_flops). Each thread otherwise
// publishes only every 512 calls, so a thread that exits (or a span that
// ends) mid-batch would drop or defer its remainder; call this at the end
// of every task and span whose GEMM counts are read.
void PublishGemmTally();

// Name of the micro-kernel runtime dispatch selected on this machine:
// "avx2+fma" or "portable". Setting FEDMIGR_GEMM_KERNEL=portable forces
// the portable path (bit-compatible with the legacy scalar kernels).
const char* GemmKernelName();

}  // namespace fedmigr::nn

#endif  // FEDMIGR_NN_GEMM_H_
