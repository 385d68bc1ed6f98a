#include "nn/gemm.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define FEDMIGR_GEMM_X86 1
#else
#define FEDMIGR_GEMM_X86 0
#endif

#include "nn/scratch.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace fedmigr::nn {

namespace {

constexpr int kMR = 4;   // micro-tile rows (broadcast lanes)
constexpr int kNR = 16;  // micro-tile cols (two 8-float vectors)
constexpr int kMC = 64;  // row-panel height: parallel grain, multiple of kMR

// ---------------------------------------------------------- intra-op pool --

std::mutex g_pool_mutex;
int g_intra_op_threads = 0;  // 0 = unset; resolved from env on first use
std::unique_ptr<util::ThreadPool> g_pool;

int ResolveThreadsLocked() {
  if (g_intra_op_threads == 0) {
    int threads = 1;
    if (const char* env = std::getenv("FEDMIGR_INTRA_OP_THREADS")) {
      threads = std::max(1, std::atoi(env));
    }
    g_intra_op_threads = threads;
  }
  return g_intra_op_threads;
}

// -------------------------------------------------------------- telemetry --

// GEMM call/FLOP counters batch in a thread-local tally: parallel client
// threads issue tens of thousands of small GEMMs per epoch, and a shared
// fetch_add per call turns into cache-line ping-pong that alone can blow
// the <2% telemetry budget (DESIGN.md §11). Each thread publishes into the
// registry every kGemmTallyFlush calls, so registry reads lag a live thread
// by at most kGemmTallyFlush - 1 calls — except across PublishGemmTally(),
// which callers run at the boundaries of a measured span.
struct GemmTally {
  int64_t calls = 0;
  int64_t flops = 0;
};
thread_local GemmTally t_gemm_tally;
constexpr int64_t kGemmTallyFlush = 512;

void FlushGemmTally(GemmTally* tally) {
  static obs::Counter* gemm_calls =
      obs::Registry::Default().GetCounter("nn/gemm_calls");
  static obs::Counter* gemm_flops =
      obs::Registry::Default().GetCounter("nn/gemm_flops");
  gemm_calls->Add(tally->calls);
  gemm_flops->Add(tally->flops);
  tally->calls = 0;
  tally->flops = 0;
}

inline void BumpGemmTally(int64_t flops) {
  GemmTally& tally = t_gemm_tally;
  ++tally.calls;
  tally.flops += flops;
  if (tally.calls >= kGemmTallyFlush) FlushGemmTally(&tally);
}

// ----------------------------------------------------------- micro-kernel --

// acc (kMR x kNR, row-major) += sum_p ap[p*kMR + r] * bp[p*kNR + c].
// ap/bp are the packed panels; the k loop runs in order, so every output
// element accumulates in k-order regardless of tiling or threading.
void MicroKernelPortable(int k, const float* ap, const float* bp, float* acc) {
  for (int p = 0; p < k; ++p) {
    const float* a = ap + p * kMR;
    const float* b = bp + p * kNR;
    for (int r = 0; r < kMR; ++r) {
      const float ar = a[r];
      float* row = acc + r * kNR;
      for (int c = 0; c < kNR; ++c) row[c] += ar * b[c];
    }
  }
}

#if FEDMIGR_GEMM_X86
// Same reduction order as the portable kernel, with the 4x16 tile held in
// eight ymm accumulators and each multiply-add fused (1-ulp difference vs
// the portable path). Compiled for AVX2+FMA in this baseline TU via the
// target attribute; only called after a runtime CPU check.
__attribute__((target("avx2,fma"))) void MicroKernelAvx2(int k,
                                                         const float* ap,
                                                         const float* bp,
                                                         float* acc) {
  __m256 c00 = _mm256_loadu_ps(acc + 0 * kNR + 0);
  __m256 c01 = _mm256_loadu_ps(acc + 0 * kNR + 8);
  __m256 c10 = _mm256_loadu_ps(acc + 1 * kNR + 0);
  __m256 c11 = _mm256_loadu_ps(acc + 1 * kNR + 8);
  __m256 c20 = _mm256_loadu_ps(acc + 2 * kNR + 0);
  __m256 c21 = _mm256_loadu_ps(acc + 2 * kNR + 8);
  __m256 c30 = _mm256_loadu_ps(acc + 3 * kNR + 0);
  __m256 c31 = _mm256_loadu_ps(acc + 3 * kNR + 8);
  for (int p = 0; p < k; ++p) {
    const __m256 b0 = _mm256_loadu_ps(bp + p * kNR);
    const __m256 b1 = _mm256_loadu_ps(bp + p * kNR + 8);
    __m256 a = _mm256_broadcast_ss(ap + p * kMR + 0);
    c00 = _mm256_fmadd_ps(a, b0, c00);
    c01 = _mm256_fmadd_ps(a, b1, c01);
    a = _mm256_broadcast_ss(ap + p * kMR + 1);
    c10 = _mm256_fmadd_ps(a, b0, c10);
    c11 = _mm256_fmadd_ps(a, b1, c11);
    a = _mm256_broadcast_ss(ap + p * kMR + 2);
    c20 = _mm256_fmadd_ps(a, b0, c20);
    c21 = _mm256_fmadd_ps(a, b1, c21);
    a = _mm256_broadcast_ss(ap + p * kMR + 3);
    c30 = _mm256_fmadd_ps(a, b0, c30);
    c31 = _mm256_fmadd_ps(a, b1, c31);
  }
  _mm256_storeu_ps(acc + 0 * kNR + 0, c00);
  _mm256_storeu_ps(acc + 0 * kNR + 8, c01);
  _mm256_storeu_ps(acc + 1 * kNR + 0, c10);
  _mm256_storeu_ps(acc + 1 * kNR + 8, c11);
  _mm256_storeu_ps(acc + 2 * kNR + 0, c20);
  _mm256_storeu_ps(acc + 2 * kNR + 8, c21);
  _mm256_storeu_ps(acc + 3 * kNR + 0, c30);
  _mm256_storeu_ps(acc + 3 * kNR + 8, c31);
}
#endif  // FEDMIGR_GEMM_X86

using MicroKernelFn = void (*)(int, const float*, const float*, float*);

struct KernelChoice {
  MicroKernelFn fn;
  const char* name;
};

KernelChoice ResolveMicroKernel() {
#if FEDMIGR_GEMM_X86
  const char* env = std::getenv("FEDMIGR_GEMM_KERNEL");
  const bool force_portable =
      env != nullptr && std::string(env) == "portable";
  if (!force_portable && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("fma")) {
    return {MicroKernelAvx2, "avx2+fma"};
  }
#endif
  return {MicroKernelPortable, "portable"};
}

const KernelChoice& MicroKernel() {
  static const KernelChoice choice = ResolveMicroKernel();
  return choice;
}

// ---------------------------------------------------------------- packing --

inline float ReadA(const float* a, int lda, bool trans, int i, int p) {
  return trans ? a[static_cast<size_t>(p) * lda + i]
               : a[static_cast<size_t>(i) * lda + p];
}

// Packs rows [i0, i0 + mc) of op(A) into kMR-row micro-panels stored
// k-major (kMR consecutive floats per k step), zero-padding short panels.
void PackA(const float* a, int lda, bool trans, int i0, int mc, int k,
           float* ap) {
  const int panels = (mc + kMR - 1) / kMR;
  for (int mp = 0; mp < panels; ++mp) {
    float* dst = ap + static_cast<size_t>(mp) * k * kMR;
    const int rows = std::min(kMR, mc - mp * kMR);
    const int base = i0 + mp * kMR;
    for (int p = 0; p < k; ++p) {
      for (int r = 0; r < rows; ++r) {
        dst[p * kMR + r] = ReadA(a, lda, trans, base + r, p);
      }
      for (int r = rows; r < kMR; ++r) dst[p * kMR + r] = 0.0f;
    }
  }
}

// Packs op(B) (k x n) into kNR-column micro-panels stored k-major,
// zero-padding the rightmost panel.
void PackB(const float* b, int ldb, bool trans, int n, int k, float* bp) {
  const int panels = (n + kNR - 1) / kNR;
  for (int np = 0; np < panels; ++np) {
    float* dst = bp + static_cast<size_t>(np) * k * kNR;
    const int cols = std::min(kNR, n - np * kNR);
    const int j0 = np * kNR;
    if (!trans && cols == kNR) {
      for (int p = 0; p < k; ++p) {
        std::memcpy(dst + p * kNR, b + static_cast<size_t>(p) * ldb + j0,
                    kNR * sizeof(float));
      }
      continue;
    }
    for (int p = 0; p < k; ++p) {
      for (int c = 0; c < cols; ++c) {
        dst[p * kNR + c] = trans ? b[static_cast<size_t>(j0 + c) * ldb + p]
                                 : b[static_cast<size_t>(p) * ldb + j0 + c];
      }
      for (int c = cols; c < kNR; ++c) dst[p * kNR + c] = 0.0f;
    }
  }
}

}  // namespace

void SetIntraOpThreads(int num_threads) {
  FEDMIGR_CHECK_GT(num_threads, 0);
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (num_threads == g_intra_op_threads) return;
  g_intra_op_threads = num_threads;
  g_pool.reset();  // rebuilt lazily at the new width
}

int GetIntraOpThreads() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  return ResolveThreadsLocked();
}

void IntraOpParallelRange(int64_t n, int64_t grain,
                          const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  util::ThreadPool* pool = nullptr;
  // Inside any pool worker the kernels run inline: the inter-client level
  // already owns the parallelism, and blocking a worker on another pool's
  // Wait() would at best oversubscribe and at worst (same pool) deadlock.
  if (n > grain && !util::ThreadPool::InWorkerThread()) {
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (ResolveThreadsLocked() > 1) {
      if (g_pool == nullptr) {
        g_pool = std::make_unique<util::ThreadPool>(g_intra_op_threads);
      }
      pool = g_pool.get();
    }
  }
  if (pool != nullptr) {
    pool->ParallelForRange(n, grain, fn);
    return;
  }
  const int64_t num_chunks = (n + grain - 1) / grain;
  for (int64_t c = 0; c < num_chunks; ++c) {
    const int64_t begin = c * grain;
    fn(begin, std::min(n, begin + grain));
  }
}

const char* GemmKernelName() { return MicroKernel().name; }

void Sgemm(bool trans_a, bool trans_b, int m, int n, int k, const float* a,
           int lda, const float* b, int ldb, float* c, int ldc, GemmAcc acc,
           int k_run) {
  FEDMIGR_CHECK(k_run == 0 ||
                (acc == GemmAcc::kAddAfter && k_run > 0 && k % k_run == 0))
      << "Sgemm k_run " << k_run << " with k " << k;
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (acc == GemmAcc::kOverwrite) {
      for (int i = 0; i < m; ++i) {
        std::memset(c + static_cast<size_t>(i) * ldc, 0, n * sizeof(float));
      }
    }
    return;
  }
  // FLOP accounting is per-call; the wall-clock histogram only kicks in
  // above a work threshold so small GEMMs (DRL scoring, 1×F rows) never
  // pay for a clock read.
  constexpr int64_t kTimedFlopThreshold = int64_t{1} << 20;
  const int64_t flops = 2ll * m * n * k;
  int64_t start_ns = 0;
  if (obs::Telemetry::enabled()) {
    BumpGemmTally(flops);
    if (flops >= kTimedFlopThreshold) start_ns = obs::MonotonicNowNs();
  }

  const MicroKernelFn micro = MicroKernel().fn;
  const int n_panels = (n + kNR - 1) / kNR;
  if (k_run == 0) k_run = k;

  ScratchArena::Scope scope;
  float* bp = ScratchArena::ThreadLocal().AllocFloats(
      static_cast<int64_t>(n_panels) * k * kNR);
  PackB(b, ldb, trans_b, n, k, bp);

  // Row-blocks of kMC rows are the unit of parallelism; kMC is a multiple
  // of kMR, so the micro-panel grid is identical whether a block is
  // processed alone or as part of a larger inline range.
  IntraOpParallelRange(m, kMC, [&](int64_t row_begin, int64_t row_end) {
    ScratchArena::Scope block_scope;
    const int mc = static_cast<int>(row_end - row_begin);
    const int m_panels = (mc + kMR - 1) / kMR;
    float* ap = ScratchArena::ThreadLocal().AllocFloats(
        static_cast<int64_t>(m_panels) * k * kMR);
    PackA(a, lda, trans_a, static_cast<int>(row_begin), mc, k, ap);
    alignas(64) float tile[kMR * kNR];
    for (int mp = 0; mp < m_panels; ++mp) {
      const int i0 = static_cast<int>(row_begin) + mp * kMR;
      const int mr = std::min(kMR, static_cast<int>(row_end) - i0);
      const float* ap_panel = ap + static_cast<size_t>(mp) * k * kMR;
      for (int np = 0; np < n_panels; ++np) {
        const int j0 = np * kNR;
        const int nr = std::min(kNR, n - j0);
        const float* bp_panel = bp + static_cast<size_t>(np) * k * kNR;
        // One pass unless kAddAfter splits k into runs (packed panels are
        // k-major, so a run is a contiguous slice of both).
        for (int p0 = 0; p0 < k; p0 += k_run) {
          if (acc == GemmAcc::kSeedFromC) {
            for (int r = 0; r < mr; ++r) {
              const float* crow = c + static_cast<size_t>(i0 + r) * ldc + j0;
              float* trow = tile + r * kNR;
              for (int cc = 0; cc < nr; ++cc) trow[cc] = crow[cc];
              for (int cc = nr; cc < kNR; ++cc) trow[cc] = 0.0f;
            }
            if (mr < kMR) {
              std::memset(tile + mr * kNR, 0,
                          (kMR - mr) * kNR * sizeof(float));
            }
          } else {
            std::memset(tile, 0, sizeof(tile));
          }
          micro(k_run, ap_panel + static_cast<size_t>(p0) * kMR,
                bp_panel + static_cast<size_t>(p0) * kNR, tile);
          for (int r = 0; r < mr; ++r) {
            float* crow = c + static_cast<size_t>(i0 + r) * ldc + j0;
            const float* trow = tile + r * kNR;
            if (acc == GemmAcc::kAddAfter) {
              for (int cc = 0; cc < nr; ++cc) crow[cc] += trow[cc];
            } else {
              for (int cc = 0; cc < nr; ++cc) crow[cc] = trow[cc];
            }
          }
        }
      }
    }
  });

  if (start_ns != 0) {
    static obs::Histogram* gemm_ms = obs::Registry::Default().GetHistogram(
        obs::Registry::LabeledName("nn/gemm_ms",
                                   {{"kernel", GemmKernelName()}}));
    gemm_ms->Observe(static_cast<double>(obs::MonotonicNowNs() - start_ns) *
                     1e-6);
  }
}

void PublishGemmTally() {
  if (t_gemm_tally.calls > 0) FlushGemmTally(&t_gemm_tally);
}

}  // namespace fedmigr::nn
