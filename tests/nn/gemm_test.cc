// Kernel-equivalence and determinism contract for the GEMM layer.
//
// Equivalence: the packed/blocked/vectorized paths (and the im2col conv
// lowering on top of them) must agree with the retained naive reference
// kernels over adversarial shapes — dimensions straddling the micro-tile
// (4) / row-panel (64) / column-panel (16) boundaries, pads 0–2, channel
// counts 1–9. Tolerances are loose enough for the AVX2+FMA path's fused
// multiply-adds, tight enough to catch any indexing mistake.
//
// Determinism: for a fixed configuration, outputs are bit-identical across
// intra-op thread counts 1, 2 and 8 — the contract that keeps seeded
// experiments reproducible no matter how the kernels are scheduled.

#include "nn/gemm.h"

#include <cmath>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "nn/ops.h"
#include "nn/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedmigr::nn {
namespace {

Tensor RandomTensor(Shape shape, uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Normal());
  }
  return t;
}

// Max |a-b| scaled by the largest magnitude involved, so the bound tracks
// the reduction depth rather than the raw values.
float RelativeDiff(const Tensor& a, const Tensor& b) {
  float max_mag = 1.0f;
  for (int64_t i = 0; i < a.size(); ++i) {
    max_mag = std::max({max_mag, std::fabs(a[i]), std::fabs(b[i])});
  }
  return MaxAbsDiff(a, b) / max_mag;
}

constexpr float kTol = 2e-5f;

// ------------------------------------------------------- MatMul vs naive --

class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeTest, MatMulMatchesNaive) {
  const auto [m, n, k] = GetParam();
  const Tensor a = RandomTensor({m, k}, 1000 + static_cast<uint64_t>(m));
  const Tensor b = RandomTensor({k, n}, 2000 + static_cast<uint64_t>(n));
  EXPECT_LT(RelativeDiff(MatMul(a, b), MatMulNaive(a, b)), kTol);
}

TEST_P(GemmShapeTest, MatMulTransAMatchesNaive) {
  const auto [m, n, k] = GetParam();
  const Tensor a = RandomTensor({k, m}, 3000 + static_cast<uint64_t>(m));
  const Tensor b = RandomTensor({k, n}, 4000 + static_cast<uint64_t>(n));
  EXPECT_LT(RelativeDiff(MatMulTransA(a, b), MatMulTransANaive(a, b)), kTol);
}

TEST_P(GemmShapeTest, MatMulTransBMatchesNaive) {
  const auto [m, n, k] = GetParam();
  const Tensor a = RandomTensor({m, k}, 5000 + static_cast<uint64_t>(m));
  const Tensor b = RandomTensor({n, k}, 6000 + static_cast<uint64_t>(n));
  EXPECT_LT(RelativeDiff(MatMulTransB(a, b), MatMulTransBNaive(a, b)), kTol);
}

// Shapes chosen to straddle every blocking boundary: micro-tile rows (4),
// panel columns (16), parallel row-blocks (64), plus degenerate 1s.
INSTANTIATE_TEST_SUITE_P(
    OddShapes, GemmShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(4, 16, 8), std::make_tuple(5, 17, 9),
                      std::make_tuple(63, 31, 33), std::make_tuple(64, 16, 64),
                      std::make_tuple(65, 15, 130), std::make_tuple(1, 129, 2),
                      std::make_tuple(129, 1, 65), std::make_tuple(70, 70, 70)),
    [](const auto& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "n" +
             std::to_string(std::get<1>(info.param)) + "k" +
             std::to_string(std::get<2>(info.param));
    });

// --------------------------------------------------------- Conv vs naive --

class ConvLoweringTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>> {};

TEST_P(ConvLoweringTest, ForwardAndBackwardMatchNaive) {
  const auto [cin, cout, size, ksize, pad] = GetParam();
  const uint64_t seed =
      static_cast<uint64_t>(cin * 1000 + cout * 100 + size * 10 + pad);
  const Tensor input = RandomTensor({3, cin, size, size}, seed);
  const Tensor kernel = RandomTensor({cout, cin, ksize, ksize}, seed + 1);
  const Tensor bias = RandomTensor({cout}, seed + 2);

  const Tensor out = Conv2dForward(input, kernel, bias, pad);
  const Tensor ref = Conv2dForwardNaive(input, kernel, bias, pad);
  ASSERT_TRUE(out.SameShape(ref));
  EXPECT_LT(RelativeDiff(out, ref), kTol);

  const Tensor grad_out = RandomTensor(out.shape(), seed + 3);
  Tensor gin, gker, gbias, gin_ref, gker_ref, gbias_ref;
  Conv2dBackward(input, kernel, pad, grad_out, &gin, &gker, &gbias);
  Conv2dBackwardNaive(input, kernel, pad, grad_out, &gin_ref, &gker_ref,
                      &gbias_ref);
  EXPECT_LT(RelativeDiff(gin, gin_ref), kTol);
  EXPECT_LT(RelativeDiff(gker, gker_ref), kTol);
  EXPECT_LT(RelativeDiff(gbias, gbias_ref), kTol);
}

INSTANTIATE_TEST_SUITE_P(
    OddShapes, ConvLoweringTest,
    ::testing::Values(std::make_tuple(1, 1, 4, 3, 0),
                      std::make_tuple(1, 9, 5, 3, 1),
                      std::make_tuple(9, 1, 6, 3, 2),
                      std::make_tuple(3, 8, 8, 5, 2),
                      std::make_tuple(5, 7, 7, 5, 1),
                      std::make_tuple(2, 4, 9, 1, 0),
                      std::make_tuple(4, 6, 6, 5, 2),
                      std::make_tuple(7, 3, 10, 3, 1)),
    [](const auto& info) {
      return "cin" + std::to_string(std::get<0>(info.param)) + "cout" +
             std::to_string(std::get<1>(info.param)) + "s" +
             std::to_string(std::get<2>(info.param)) + "k" +
             std::to_string(std::get<3>(info.param)) + "p" +
             std::to_string(std::get<4>(info.param));
    });

// ----------------------------------------------------------- determinism --

// Every op must produce bit-identical results at 1, 2 and 8 intra-op
// threads: tile boundaries and per-tile reduction order are fixed, so the
// schedule cannot leak into the floats.
TEST(GemmDeterminismTest, ResultsBitIdenticalAcrossThreadCounts) {
  // Large enough that the row-panel loop actually splits (m > 2 * 64) and
  // the conv batch loop has more images than threads.
  const Tensor a = RandomTensor({200, 130}, 71);
  const Tensor b = RandomTensor({130, 90}, 72);
  const Tensor at = RandomTensor({130, 200}, 73);
  const Tensor bt = RandomTensor({90, 130}, 74);
  const Tensor input = RandomTensor({9, 3, 8, 8}, 75);
  const Tensor kernel = RandomTensor({8, 3, 5, 5}, 76);
  const Tensor bias = RandomTensor({8}, 77);

  struct Snapshot {
    Tensor mm, ta, tb, conv, gin, gker, gbias;
  };
  auto run = [&]() {
    Snapshot s;
    s.mm = MatMul(a, b);
    s.ta = MatMulTransA(at, b);
    s.tb = MatMulTransB(a, bt);
    s.conv = Conv2dForward(input, kernel, bias, 2);
    const Tensor grad_out = RandomTensor(s.conv.shape(), 78);
    Conv2dBackward(input, kernel, 2, grad_out, &s.gin, &s.gker, &s.gbias);
    return s;
  };

  const int original = GetIntraOpThreads();
  SetIntraOpThreads(1);
  const Snapshot base = run();
  for (int threads : {2, 8}) {
    SetIntraOpThreads(threads);
    const Snapshot got = run();
    EXPECT_EQ(MaxAbsDiff(got.mm, base.mm), 0.0f) << threads << " threads";
    EXPECT_EQ(MaxAbsDiff(got.ta, base.ta), 0.0f) << threads << " threads";
    EXPECT_EQ(MaxAbsDiff(got.tb, base.tb), 0.0f) << threads << " threads";
    EXPECT_EQ(MaxAbsDiff(got.conv, base.conv), 0.0f) << threads << " threads";
    EXPECT_EQ(MaxAbsDiff(got.gin, base.gin), 0.0f) << threads << " threads";
    EXPECT_EQ(MaxAbsDiff(got.gker, base.gker), 0.0f) << threads << " threads";
    EXPECT_EQ(MaxAbsDiff(got.gbias, base.gbias), 0.0f) << threads
                                                       << " threads";
  }
  SetIntraOpThreads(original);
}

// The kernels must also be stable when invoked from inside a pool worker
// (the trainer's inter-client ParallelFor): the intra-op layer detects
// in-pool execution and runs inline with the same tile grid.
TEST(GemmDeterminismTest, InPoolExecutionMatchesTopLevel) {
  const Tensor a = RandomTensor({150, 64}, 81);
  const Tensor b = RandomTensor({64, 40}, 82);
  const int original = GetIntraOpThreads();
  SetIntraOpThreads(4);
  const Tensor top_level = MatMul(a, b);
  util::ThreadPool pool(2);
  std::vector<Tensor> from_workers(4);
  pool.ParallelFor(4, [&](int i) { from_workers[i] = MatMul(a, b); });
  for (const Tensor& got : from_workers) {
    EXPECT_EQ(MaxAbsDiff(got, top_level), 0.0f);
  }
  SetIntraOpThreads(original);
}

// kAddAfter with k runs equals one kAddAfter call per run, in order, bit
// for bit — including a trans_b operand, as the conv weight gradient uses.
TEST(GemmAddAfterTest, KRunsEqualOneCallPerRunBitwise) {
  constexpr int kM = 9, kN = 21, kRun = 7, kRuns = 5, kK = kRun * kRuns;
  const Tensor a = RandomTensor({kM, kK}, 91);
  const Tensor bt = RandomTensor({kN, kK}, 92);
  const Tensor c0 = RandomTensor({kM, kN}, 93);
  Tensor runs = c0;
  Sgemm(false, true, kM, kN, kK, a.data(), kK, bt.data(), kK, runs.data(),
        kN, GemmAcc::kAddAfter, kRun);
  Tensor calls = c0;
  for (int r = 0; r < kRuns; ++r) {
    Sgemm(false, true, kM, kN, kRun, a.data() + r * kRun, kK,
          bt.data() + r * kRun, kK, calls.data(), kN, GemmAcc::kAddAfter);
  }
  EXPECT_EQ(MaxAbsDiff(runs, calls), 0.0f);
  // One run of all of k differs from the chain of partials.
  Tensor whole = c0;
  Sgemm(false, true, kM, kN, kK, a.data(), kK, bt.data(), kK, whole.data(),
        kN, GemmAcc::kAddAfter);
  EXPECT_GT(MaxAbsDiff(whole, calls), 0.0f);
}

TEST(GemmConfigTest, KernelNameIsResolved) {
  const std::string name = GemmKernelName();
  EXPECT_TRUE(name == "avx2+fma" || name == "portable") << name;
}

}  // namespace
}  // namespace fedmigr::nn
