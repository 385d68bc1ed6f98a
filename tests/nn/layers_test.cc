#include "nn/layers.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace fedmigr::nn {
namespace {

using testing::CheckGradients;

Tensor RandomInput(Shape shape, uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Normal());
  }
  return t;
}

TEST(DenseTest, ForwardShapeAndBias) {
  util::Rng rng(1);
  Dense layer(3, 2, &rng);
  // Zero the weights so output = bias.
  layer.Params()[0]->Zero();
  (*layer.Params()[1])[0] = 1.0f;
  (*layer.Params()[1])[1] = -2.0f;
  const Tensor out = layer.Forward(RandomInput({4, 3}, 2), true);
  EXPECT_EQ(out.shape(), (Shape{4, 2}));
  EXPECT_EQ(out.At(0, 0), 1.0f);
  EXPECT_EQ(out.At(3, 1), -2.0f);
}

TEST(DenseTest, GradientsMatchFiniteDifferences) {
  util::Rng rng(3);
  Sequential model;
  model.Add(std::make_unique<Dense>(4, 3, &rng));
  const auto result =
      CheckGradients(&model, RandomInput({2, 4}, 4), &rng);
  EXPECT_LT(result.max_input_error, 1e-2);
  EXPECT_LT(result.max_param_error, 1e-2);
}

TEST(Conv2DTest, GradientsMatchFiniteDifferences) {
  util::Rng rng(5);
  Sequential model;
  model.Add(std::make_unique<Conv2D>(2, 3, 3, 1, &rng));
  const auto result =
      CheckGradients(&model, RandomInput({2, 2, 4, 4}, 6), &rng);
  EXPECT_LT(result.max_input_error, 1e-2);
  EXPECT_LT(result.max_param_error, 1e-2);
}

TEST(ReluTest, ForwardClampsNegatives) {
  ReLU relu;
  Tensor in({1, 4}, {-1, 0, 2, -3});
  const Tensor out = relu.Forward(in, true);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[1], 0.0f);
  EXPECT_EQ(out[2], 2.0f);
  EXPECT_EQ(out[3], 0.0f);
}

TEST(ReluTest, BackwardMasksGradient) {
  ReLU relu;
  Tensor in({1, 3}, {-1, 2, 3});
  (void)relu.Forward(in, true);
  Tensor grad({1, 3}, {5, 5, 5});
  const Tensor out = relu.Backward(grad);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[1], 5.0f);
}

// The original ReLU's branchy semantics, the reference for the edge-value
// tests: forward clamps x < 0 to +0 and keeps everything else (-0.0 and
// NaN included); backward zeroes the gradient where x <= 0.
float OldReluForward(float x) {
  if (x < 0.0f) x = 0.0f;
  return x;
}
float OldReluBackward(float x, float g) {
  if (x <= 0.0f) g = 0.0f;
  return g;
}

void ExpectBitwise(const Tensor& got, const std::vector<float>& want,
                   const char* what) {
  ASSERT_EQ(got.size(), static_cast<int64_t>(want.size())) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint32_t>(got[static_cast<int64_t>(i)]),
              std::bit_cast<uint32_t>(want[i]))
        << what << " element " << i;
  }
}

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kDenormal = 1e-40f;

TEST(ReluTest, EdgeValuesMatchTheBranchySemanticsBitwise) {
  const std::vector<float> x = {0.0f, -0.0f, kNaN, -kNaN, kInf, -kInf,
                                kDenormal, -kDenormal, 2.5f, -2.5f};
  // Gradients with edge values of their own, so a masked lane must read
  // +0.0 whatever it held.
  const std::vector<float> g = {kNaN, -0.0f, 3.0f, -kInf, kInf, kNaN,
                                -kDenormal, 4.0f, -0.0f, 5.0f};
  const int n = static_cast<int>(x.size());
  ReLU relu;
  const Tensor out = relu.Forward(Tensor({1, n}, x), true);
  const Tensor grad = relu.Backward(Tensor({1, n}, g));
  std::vector<float> want_out, want_grad;
  for (int i = 0; i < n; ++i) {
    want_out.push_back(OldReluForward(x[static_cast<size_t>(i)]));
    want_grad.push_back(OldReluBackward(x[static_cast<size_t>(i)],
                                        g[static_cast<size_t>(i)]));
  }
  ExpectBitwise(out, want_out, "forward");
  ExpectBitwise(grad, want_grad, "backward");
}

// ResidualDense's output ReLU, on the same edge values. With a zero
// branch and fc2 bias b, the pre-activation is x + b for a finite row, so
// the test sets it directly: +0 (from -0.0 + 0), ±denormal, ±inf (from
// overflow) and ordinary values. A row holding a NaN turns the whole
// branch, and so the whole pre-activation row, into NaN. (-0.0 cannot
// arise: the branch adds +0.)
TEST(ResidualDenseTest, EdgeValuesMatchTheBranchySemanticsBitwise) {
  constexpr int kFeatures = 6;
  util::Rng rng(22);
  ResidualDense block(kFeatures, 4, &rng);
  for (Tensor* p : block.Params()) p->Zero();
  Tensor& fc2_bias = *block.Params()[3];
  const std::vector<float> b = {0.0f, 0.0f, 0.0f, 3e38f, -3e38f, 1.0f};
  for (int i = 0; i < kFeatures; ++i) fc2_bias[i] = b[static_cast<size_t>(i)];
  const std::vector<float> x = {
      -0.0f, kDenormal, -kDenormal, 3e38f,  -3e38f, -1.0f,  // row 0
      kNaN,  1.0f,      -1.0f,      0.0f,   0.0f,   0.0f,   // row 1
      1.0f,  -1.0f,     -0.0f,      -3e38f, 3e38f,  -2.0f,  // row 2
  };
  const std::vector<float> g = {
      kNaN, 1.0f,  2.0f, 3.0f,  kInf, -0.0f,  //
      1.0f, 2.0f,  kNaN, -kInf, 5.0f, 6.0f,   //
      7.0f, -kInf, kNaN, 8.0f,  9.0f, 10.0f,  //
  };
  const Tensor out = block.Forward(Tensor({3, kFeatures}, x), true);
  const Tensor grad = block.Backward(Tensor({3, kFeatures}, g));
  std::vector<float> want_out, want_grad;
  for (size_t i = 0; i < x.size(); ++i) {
    const size_t row = i / kFeatures;
    const float pre = row == 1 ? kNaN : x[i] + b[i % kFeatures];
    want_out.push_back(OldReluForward(pre));
    want_grad.push_back(OldReluBackward(pre, g[i]));
  }
  // Row 1 is NaN throughout, forward and backward: its NaNs come from
  // 0 * NaN in the branch, which fixes their NaN-ness but not their
  // payload. In the finite rows the zero branch passes +0, so the input
  // gradient is exactly the output ReLU's masked gradient.
  for (int64_t i = kFeatures; i < 2 * kFeatures; ++i) {
    EXPECT_TRUE(std::isnan(out[i])) << i;
    EXPECT_TRUE(std::isnan(grad[i])) << i;
    want_out[static_cast<size_t>(i)] = out[i];
    want_grad[static_cast<size_t>(i)] = grad[i];
  }
  ExpectBitwise(out, want_out, "forward");
  ExpectBitwise(grad, want_grad, "backward");
}

TEST(TanhSigmoidTest, RangeAndGradients) {
  util::Rng rng(7);
  {
    Sequential model;
    model.Add(std::make_unique<Dense>(3, 3, &rng));
    model.Add(std::make_unique<Tanh>());
    const auto r = CheckGradients(&model, RandomInput({2, 3}, 8), &rng);
    EXPECT_LT(r.max_input_error, 1e-2);
    EXPECT_LT(r.max_param_error, 1e-2);
  }
  {
    Sequential model;
    model.Add(std::make_unique<Dense>(3, 3, &rng));
    model.Add(std::make_unique<Sigmoid>());
    const auto r = CheckGradients(&model, RandomInput({2, 3}, 9), &rng);
    EXPECT_LT(r.max_input_error, 1e-2);
    EXPECT_LT(r.max_param_error, 1e-2);
  }
}

TEST(SigmoidTest, KnownValues) {
  Sigmoid sigmoid;
  Tensor in({1, 1}, {0.0f});
  EXPECT_FLOAT_EQ(sigmoid.Forward(in, true)[0], 0.5f);
}

TEST(SoftmaxTest, RowsSumToOne) {
  Softmax softmax;
  const Tensor out = softmax.Forward(RandomInput({3, 5}, 10), true);
  for (int n = 0; n < 3; ++n) {
    float sum = 0.0f;
    for (int c = 0; c < 5; ++c) {
      EXPECT_GT(out.At(n, c), 0.0f);
      sum += out.At(n, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(SoftmaxTest, StableUnderLargeLogits) {
  Softmax softmax;
  Tensor in({1, 3}, {1000.0f, 1000.0f, 1000.0f});
  const Tensor out = softmax.Forward(in, true);
  EXPECT_NEAR(out[0], 1.0f / 3.0f, 1e-5f);
}

TEST(SoftmaxTest, GradientsMatchFiniteDifferences) {
  util::Rng rng(11);
  Sequential model;
  model.Add(std::make_unique<Dense>(4, 4, &rng));
  model.Add(std::make_unique<Softmax>());
  const auto r = CheckGradients(&model, RandomInput({2, 4}, 12), &rng);
  EXPECT_LT(r.max_input_error, 1e-2);
  EXPECT_LT(r.max_param_error, 1e-2);
}

TEST(FlattenTest, RoundTripsShape) {
  Flatten flatten;
  Tensor in = RandomInput({2, 3, 4, 4}, 13);
  const Tensor out = flatten.Forward(in, true);
  EXPECT_EQ(out.shape(), (Shape{2, 48}));
  const Tensor back = flatten.Backward(out);
  EXPECT_EQ(back.shape(), in.shape());
  EXPECT_EQ(MaxAbsDiff(back, in), 0.0f);
}

TEST(MaxPoolLayerTest, GradCheckThroughPool) {
  util::Rng rng(14);
  Sequential model;
  model.Add(std::make_unique<Conv2D>(1, 2, 3, 1, &rng));
  model.Add(std::make_unique<MaxPool2x2>());
  // Distinct values avoid ties at the pooling argmax (finite differences
  // are undefined at ties).
  const auto r = CheckGradients(&model, RandomInput({1, 1, 4, 4}, 15), &rng);
  EXPECT_LT(r.max_input_error, 2e-2);
  EXPECT_LT(r.max_param_error, 2e-2);
}

TEST(ResidualDenseTest, GradientsMatchFiniteDifferences) {
  util::Rng rng(16);
  Sequential model;
  model.Add(std::make_unique<ResidualDense>(4, 6, &rng));
  const auto r = CheckGradients(&model, RandomInput({2, 4}, 17), &rng);
  EXPECT_LT(r.max_input_error, 2e-2);
  EXPECT_LT(r.max_param_error, 2e-2);
}

TEST(ResidualDenseTest, ZeroBranchIsRelu) {
  util::Rng rng(18);
  ResidualDense block(3, 5, &rng);
  for (Tensor* p : block.Params()) p->Zero();
  Tensor in({1, 3}, {1.0f, -2.0f, 0.5f});
  const Tensor out = block.Forward(in, true);
  EXPECT_EQ(out[0], 1.0f);
  EXPECT_EQ(out[1], 0.0f);  // ReLU of the pass-through
  EXPECT_EQ(out[2], 0.5f);
}

TEST(CloneTest, ClonesAreIndependentCopies) {
  util::Rng rng(19);
  Dense layer(2, 2, &rng);
  auto clone = layer.Clone();
  // Same parameters right after cloning.
  EXPECT_EQ(MaxAbsDiff(*layer.Params()[0], *clone->Params()[0]), 0.0f);
  // Mutating the original does not affect the clone.
  (*layer.Params()[0])[0] += 1.0f;
  EXPECT_EQ(MaxAbsDiff(*layer.Params()[0], *clone->Params()[0]), 1.0f);
}

TEST(CloneTest, AllLayerTypesClone) {
  util::Rng rng(20);
  Sequential model;
  model.Add(std::make_unique<Conv2D>(1, 2, 3, 1, &rng));
  model.Add(std::make_unique<ReLU>());
  model.Add(std::make_unique<MaxPool2x2>());
  model.Add(std::make_unique<Flatten>());
  model.Add(std::make_unique<Dense>(8, 4, &rng));
  model.Add(std::make_unique<Tanh>());
  model.Add(std::make_unique<Sigmoid>());
  model.Add(std::make_unique<Softmax>());
  Sequential copy = model;  // copy = layer-wise Clone
  const Tensor in = RandomInput({1, 1, 4, 4}, 21);
  EXPECT_LT(MaxAbsDiff(model.Forward(in, false), copy.Forward(in, false)),
            1e-6f);
}

}  // namespace
}  // namespace fedmigr::nn
