#include "nn/ops.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace fedmigr::nn {
namespace {

TEST(MatMulTest, KnownProduct) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.At(0, 0), 58.0f);
  EXPECT_EQ(c.At(0, 1), 64.0f);
  EXPECT_EQ(c.At(1, 0), 139.0f);
  EXPECT_EQ(c.At(1, 1), 154.0f);
}

TEST(MatMulTest, IdentityLeavesUnchanged) {
  Tensor eye({2, 2}, {1, 0, 0, 1});
  Tensor m({2, 2}, {3, 4, 5, 6});
  EXPECT_EQ(MaxAbsDiff(MatMul(eye, m), m), 0.0f);
}

TEST(MatMulTest, TransAMatchesExplicitTranspose) {
  util::Rng rng(1);
  Tensor a({4, 3});  // interpreted as A^T: K=4, M=3
  Tensor b({4, 5});
  for (int64_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>(rng.Normal());
  for (int64_t i = 0; i < b.size(); ++i) b[i] = static_cast<float>(rng.Normal());
  // Explicit transpose of a -> [3, 4].
  Tensor at({3, 4});
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 3; ++j) at.At(j, i) = a.At(i, j);
  }
  EXPECT_LT(MaxAbsDiff(MatMulTransA(a, b), MatMul(at, b)), 1e-5f);
}

TEST(MatMulTest, TransBMatchesExplicitTranspose) {
  util::Rng rng(2);
  Tensor a({3, 4});
  Tensor b({5, 4});  // interpreted as B^T: N=5, K=4
  for (int64_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>(rng.Normal());
  for (int64_t i = 0; i < b.size(); ++i) b[i] = static_cast<float>(rng.Normal());
  Tensor bt({4, 5});
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 4; ++j) bt.At(j, i) = b.At(i, j);
  }
  EXPECT_LT(MaxAbsDiff(MatMulTransB(a, b), MatMul(a, bt)), 1e-5f);
}

// Reference convolution: the obvious quadruple loop, kept separate from the
// optimized production kernel.
Tensor ReferenceConv(const Tensor& input, const Tensor& kernel,
                     const Tensor& bias, int pad) {
  const int batch = input.dim(0), cin = input.dim(1);
  const int h = input.dim(2), w = input.dim(3);
  const int cout = kernel.dim(0), kh = kernel.dim(2), kw = kernel.dim(3);
  const int oh = h + 2 * pad - kh + 1, ow = w + 2 * pad - kw + 1;
  Tensor out({batch, cout, oh, ow});
  for (int n = 0; n < batch; ++n) {
    for (int oc = 0; oc < cout; ++oc) {
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
          float sum = bias[oc];
          for (int ic = 0; ic < cin; ++ic) {
            for (int ky = 0; ky < kh; ++ky) {
              for (int kx = 0; kx < kw; ++kx) {
                const int iy = oy + ky - pad, ix = ox + kx - pad;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                sum += input.At(n, ic, iy, ix) * kernel.At(oc, ic, ky, kx);
              }
            }
          }
          out.At(n, oc, oy, ox) = sum;
        }
      }
    }
  }
  return out;
}

class ConvParamTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>> {};

TEST_P(ConvParamTest, MatchesReferenceImplementation) {
  const auto [cin, cout, size, ksize, pad] = GetParam();
  util::Rng rng(static_cast<uint64_t>(cin * 100 + cout * 10 + pad));
  Tensor input({2, cin, size, size});
  Tensor kernel({cout, cin, ksize, ksize});
  Tensor bias({cout});
  for (int64_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<float>(rng.Normal());
  }
  for (int64_t i = 0; i < kernel.size(); ++i) {
    kernel[i] = static_cast<float>(rng.Normal());
  }
  for (int64_t i = 0; i < bias.size(); ++i) {
    bias[i] = static_cast<float>(rng.Normal());
  }
  const Tensor fast = Conv2dForward(input, kernel, bias, pad);
  const Tensor ref = ReferenceConv(input, kernel, bias, pad);
  EXPECT_LT(MaxAbsDiff(fast, ref), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvParamTest,
    ::testing::Values(std::make_tuple(1, 1, 4, 3, 1),
                      std::make_tuple(3, 8, 8, 5, 2),
                      std::make_tuple(2, 4, 6, 3, 0),
                      std::make_tuple(4, 2, 5, 1, 0),
                      std::make_tuple(2, 3, 8, 5, 2)));

TEST(Conv2dTest, OutputShape) {
  Tensor input({1, 3, 8, 8});
  Tensor kernel({16, 3, 5, 5});
  Tensor bias({16});
  const Tensor out = Conv2dForward(input, kernel, bias, 2);
  EXPECT_EQ(out.shape(), (Shape{1, 16, 8, 8}));
}

TEST(Conv2dTest, BiasOnlyWhenKernelZero) {
  Tensor input({1, 1, 4, 4});
  input.Fill(3.0f);
  Tensor kernel({2, 1, 3, 3});  // zeros
  Tensor bias({2}, {1.5f, -2.0f});
  const Tensor out = Conv2dForward(input, kernel, bias, 1);
  EXPECT_EQ(out.At(0, 0, 2, 2), 1.5f);
  EXPECT_EQ(out.At(0, 1, 0, 0), -2.0f);
}

TEST(MaxPoolTest, SelectsMaxima) {
  Tensor input({1, 1, 2, 2}, {1, 4, 3, 2});
  Tensor argmax;
  const Tensor out = MaxPool2x2Forward(input, &argmax);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_EQ(out[0], 4.0f);
  EXPECT_EQ(argmax[0], 1.0f);  // window position of the max: row 0, col 1
}

TEST(MaxPoolTest, BackwardRoutesGradientToArgmax) {
  Tensor input({1, 1, 2, 2}, {1, 4, 3, 2});
  Tensor argmax;
  (void)MaxPool2x2Forward(input, &argmax);
  Tensor grad_out({1, 1, 1, 1}, {2.5f});
  const Tensor grad_in = MaxPool2x2Backward(grad_out, argmax, input.shape());
  EXPECT_EQ(grad_in[0], 0.0f);
  EXPECT_EQ(grad_in[1], 2.5f);
  EXPECT_EQ(grad_in[2], 0.0f);
}

TEST(MaxPoolTest, MultiChannelShapes) {
  Tensor input({2, 3, 4, 4});
  for (int64_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<float>(i % 7);
  }
  Tensor argmax;
  const Tensor out = MaxPool2x2Forward(input, &argmax);
  EXPECT_EQ(out.shape(), (Shape{2, 3, 2, 2}));
  EXPECT_TRUE(argmax.SameShape(out));
}

TEST(MaxPoolTest, FirstMaximumWinsTiesAndNaNNeverReplacesBest) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Windows: all tied; tie between positions 1 and 2; NaN first; NaN
  // at position 1 and a tie between 2 and 3; max in the last position.
  Tensor input({1, 1, 2, 10}, {5, 5, 1, 3, nan, 9, 2, nan, 0, 1,  //
                               5, 5, 3, 2, 7, 8, 4, 4, 0, 6});
  Tensor argmax;
  const Tensor out = MaxPool2x2Forward(input, &argmax);
  const float expected_pos[] = {0, 1, 0, 2, 3};
  for (int i = 0; i < 5; ++i) EXPECT_EQ(argmax[i], expected_pos[i]) << i;
  EXPECT_EQ(out[0], 5.0f);
  EXPECT_EQ(out[1], 3.0f);
  EXPECT_TRUE(std::isnan(out[2]));
  EXPECT_EQ(out[3], 4.0f);  // NaN > 2 is false: the NaN is skipped
  EXPECT_EQ(out[4], 6.0f);
}

// The argmax holds window-relative positions (0..3), not flat input
// offsets: a float stores integers exactly only up to 2^24, so flat offsets
// would silently route gradients to the wrong elements on larger inputs.
// Identical planes must therefore store identical positions wherever they
// sit in the tensor, which pins the representation without allocating a
// 2^24-element input.
TEST(MaxPoolTest, ArgmaxIsWindowRelativeSoItStaysExactAtAnySize) {
  constexpr int kPlanes = 96;
  const float plane[16] = {1, 4, 0, 2, 3, 2, 9, 1,  //
                           0, 0, 5, 6, 7, 1, 6, 8};
  Tensor input({kPlanes / 4, 4, 4, 4});
  for (int64_t i = 0; i < input.size(); ++i) input[i] = plane[i % 16];
  Tensor argmax;
  const Tensor out = MaxPool2x2Forward(input, &argmax);
  const float expected_pos[4] = {1, 2, 2, 3};
  for (int64_t i = 0; i < argmax.size(); ++i) {
    ASSERT_EQ(argmax[i], expected_pos[i % 4]) << "output " << i;
  }
  Tensor grad_out(out.shape());
  for (int64_t i = 0; i < grad_out.size(); ++i) {
    grad_out[i] = static_cast<float>(i + 1);
  }
  const Tensor grad_in = MaxPool2x2Backward(grad_out, argmax, input.shape());
  const int expected_offset[4] = {1, 6, 12, 15};  // within each 4x4 plane
  for (int p = 0; p < kPlanes; ++p) {
    for (int i = 0; i < 16; ++i) {
      float want = 0.0f;
      for (int o = 0; o < 4; ++o) {
        if (expected_offset[o] == i) want = grad_out[p * 4 + o];
      }
      ASSERT_EQ(grad_in[p * 16 + i], want) << "plane " << p << " elem " << i;
    }
  }
}

// -------------------------------------------------- conv batch contract --
// A batched conv call must be bit-for-bit the per-image calls: forward
// output and grad_input are the batch-1 results concatenated, grad_kernel
// is the image-order sum of the per-image kernel gradients, and grad_bias
// is the serial sum over images and positions. Batch sizes fall below, at
// and across the image-block size of both C10Net conv shapes (5 images for
// 3->8 on 8x8, 8 for 8->16 on 4x4).

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

Tensor RandomConvTensor(Shape shape, uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Normal());
  }
  return t;
}

Tensor Image(const Tensor& batch, int n) {
  Shape shape = batch.shape();
  shape[0] = 1;
  Tensor image(shape);
  const int64_t size = image.size();
  std::memcpy(image.data(), batch.data() + n * size,
              static_cast<size_t>(size) * sizeof(float));
  return image;
}

class ConvBatchContractTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ConvBatchContractTest, BatchEqualsPerImageCallsBitForBit) {
  const auto [layer, batch] = GetParam();
  const int cin = layer == 0 ? 3 : 8, cout = layer == 0 ? 8 : 16;
  const int size = layer == 0 ? 8 : 4;
  const uint64_t seed = static_cast<uint64_t>(100 * layer + batch);
  const Tensor input = RandomConvTensor({batch, cin, size, size}, seed);
  const Tensor kernel = RandomConvTensor({cout, cin, 5, 5}, seed + 1);
  const Tensor bias = RandomConvTensor({cout}, seed + 2);
  const Tensor grad_out = RandomConvTensor({batch, cout, size, size}, seed + 3);

  const Tensor out = Conv2dForward(input, kernel, bias, 2);
  Tensor gin, gker, gbias;
  Conv2dBackward(input, kernel, 2, grad_out, &gin, &gker, &gbias);

  Tensor want_out({batch, cout, size, size});
  Tensor want_gin(input.shape());
  Tensor want_gker(kernel.shape());
  Tensor want_gbias({cout});
  const int64_t out_img = want_out.size() / batch;
  const int64_t in_img = input.size() / batch;
  for (int n = 0; n < batch; ++n) {
    const Tensor x = Image(input, n);
    const Tensor gy = Image(grad_out, n);
    const Tensor y = Conv2dForward(x, kernel, bias, 2);
    Tensor gx, gk, gb;
    Conv2dBackward(x, kernel, 2, gy, &gx, &gk, &gb);
    std::memcpy(want_out.data() + n * out_img, y.data(),
                static_cast<size_t>(out_img) * sizeof(float));
    std::memcpy(want_gin.data() + n * in_img, gx.data(),
                static_cast<size_t>(in_img) * sizeof(float));
    for (int64_t i = 0; i < gk.size(); ++i) want_gker[i] += gk[i];
    for (int oc = 0; oc < cout; ++oc) {
      for (int i = 0; i < size * size; ++i) {
        want_gbias[oc] += gy[oc * size * size + i];
      }
    }
  }
  EXPECT_TRUE(BitwiseEqual(out, want_out));
  EXPECT_TRUE(BitwiseEqual(gin, want_gin));
  EXPECT_TRUE(BitwiseEqual(gker, want_gker));
  EXPECT_TRUE(BitwiseEqual(gbias, want_gbias));
}

INSTANTIATE_TEST_SUITE_P(
    C10NetConvs, ConvBatchContractTest,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(1, 5, 8, 13, 33)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) == 0 ? "L0b" : "L3b";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

}  // namespace
}  // namespace fedmigr::nn
