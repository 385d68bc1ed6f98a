#include "nn/ops.h"

#include <algorithm>
#include <type_traits>

#include "nn/gemm.h"
#include "nn/scratch.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "util/logging.h"

namespace fedmigr::nn {

namespace {

// Shape of one stride-1 convolution, from its input, kernel and padding.
struct ConvGeom {
  ConvGeom(const Tensor& input, const Tensor& kernel, int pad)
      : batch(input.dim(0)),
        cin(input.dim(1)),
        h(input.dim(2)),
        w(input.dim(3)),
        cout(kernel.dim(0)),
        kh(kernel.dim(2)),
        kw(kernel.dim(3)),
        pad(pad),
        oh(h + 2 * pad - kh + 1),
        ow(w + 2 * pad - kw + 1),
        hp(h + 2 * pad),
        wp(w + 2 * pad) {
    FEDMIGR_CHECK_EQ(input.ndim(), 4);
    FEDMIGR_CHECK_EQ(kernel.ndim(), 4);
    FEDMIGR_CHECK_EQ(kernel.dim(1), cin);
    FEDMIGR_CHECK_GE(pad, 0);
    FEDMIGR_CHECK_GT(oh, 0);
    FEDMIGR_CHECK_GT(ow, 0);
  }

  int kcols() const { return cin * kh * kw; }  // GEMM reduction depth
  int ohw() const { return oh * ow; }
  int64_t in_image() const { return static_cast<int64_t>(cin) * h * w; }
  int64_t out_image() const { return static_cast<int64_t>(cout) * ohw(); }
  int64_t padded_image() const { return static_cast<int64_t>(cin) * hp * wp; }

  // Images per block GEMM. One block's working set — its im2col matrix and
  // the GEMM's packed copy of it, plus its output rows (forward) or its
  // gathered output gradient and the packed copy of that (backward) —
  // stays within 56K floats (5 images for C10Net's first conv, 8 for its
  // second), which leaves room for panel padding and the packed kernel
  // panel inside the scratch arena's first 64K-float chunk. The arena
  // grows by doubling (nn/scratch.cc), so a larger block would add a
  // 128K-float chunk to the resident memory of every thread that runs a
  // conv. The block size only changes how many GEMM columns (or kernel
  // gradient runs) one call covers; each output element's reduction, and
  // so every bit of the result, is the same for any block size.
  int block_images() const {
    constexpr int64_t kBlockFloats = 56 * 1024;
    const int64_t per_image =
        static_cast<int64_t>(ohw()) * 2 * (kcols() + cout);
    return static_cast<int>(std::max<int64_t>(1, kBlockFloats / per_image));
  }

  int batch, cin, h, w, cout, kh, kw, pad, oh, ow;
  int hp, wp;  // padded input extent
};

// dst[y * dst_ld + x] = src[y * src_ld + x] (kAdd: +=) over a rows x width
// window. Conv rows are short — the zoo convs' output rows are 8 and 4
// floats — and a loop with a run-time trip count spends more on set-up
// than on the move, so those widths get a compile-time one (kWidth; 0
// takes the run-time `width`).
template <bool kAdd, int kWidth>
inline void MoveWindow(const float* src, int64_t src_ld, float* dst,
                       int64_t dst_ld, int rows, int width) {
  const int cols = kWidth > 0 ? kWidth : width;
  for (int y = 0; y < rows; ++y, src += src_ld, dst += dst_ld) {
    for (int x = 0; x < cols; ++x) {
      if constexpr (kAdd) {
        dst[x] += src[x];
      } else {
        dst[x] = src[x];
      }
    }
  }
}

// Calls fn(std::integral_constant<int, W>) with W = width for the widths
// MoveWindow specializes, else W = 0.
template <typename Fn>
void DispatchWidth(int width, Fn&& fn) {
  switch (width) {
    case 4:
      return fn(std::integral_constant<int, 4>());
    case 8:
      return fn(std::integral_constant<int, 8>());
    default:
      return fn(std::integral_constant<int, 0>());
  }
}

// Expands one NCHW image into its oh*ow columns of an im2col matrix with
// row stride ld: row (ic, ky, kx), column (oy, ox) holds
// input(ic, oy + ky - pad, ox + kx - pad), zero outside the image. Rows
// are ordered (ic, ky, kx) — the same order the legacy conv kernel
// accumulated taps in, so the GEMM's k-ordered reduction reproduces its
// float association. The image is first copied into `padded` (hp x wp
// per channel, zero border) so every row is a plain window copy. A block
// of images fills adjacent column ranges.
void Im2col(const ConvGeom& g, const float* in, float* padded, float* cols,
            int64_t ld) {
  std::fill(padded, padded + g.padded_image(), 0.0f);
  for (int ic = 0; ic < g.cin; ++ic) {
    MoveWindow<false, 0>(in + static_cast<int64_t>(ic) * g.h * g.w, g.w,
                         padded + (static_cast<int64_t>(ic) * g.hp + g.pad) *
                                      g.wp + g.pad,
                         g.wp, g.h, g.w);
  }
  DispatchWidth(g.ow, [&](auto width) {
    float* row = cols;
    for (int ic = 0; ic < g.cin; ++ic) {
      const float* in_c = padded + static_cast<int64_t>(ic) * g.hp * g.wp;
      for (int ky = 0; ky < g.kh; ++ky) {
        for (int kx = 0; kx < g.kw; ++kx, row += ld) {
          MoveWindow<false, width()>(in_c + ky * g.wp + kx, g.wp, row, g.ow,
                                     g.oh, g.ow);
        }
      }
    }
  });
}

// Transpose of Im2col: scatter-adds one image's columns (row stride ld)
// into the zeroed `padded` gradient, walking rows in the same (ic, ky, kx)
// order, then copies its interior out to the image's gradient `gin`.
// Every element receives the same additions in the same order as it
// would accumulating in place, and the border's share is dropped.
void Col2im(const ConvGeom& g, const float* cols, int64_t ld, float* padded,
            float* gin) {
  std::fill(padded, padded + g.padded_image(), 0.0f);
  DispatchWidth(g.ow, [&](auto width) {
    const float* row = cols;
    for (int ic = 0; ic < g.cin; ++ic) {
      float* g_c = padded + static_cast<int64_t>(ic) * g.hp * g.wp;
      for (int ky = 0; ky < g.kh; ++ky) {
        for (int kx = 0; kx < g.kw; ++kx, row += ld) {
          MoveWindow<true, width()>(row, g.ow, g_c + ky * g.wp + kx, g.wp,
                                    g.oh, g.ow);
        }
      }
    }
  });
  for (int ic = 0; ic < g.cin; ++ic) {
    MoveWindow<false, 0>(
        padded + (static_cast<int64_t>(ic) * g.hp + g.pad) * g.wp + g.pad,
        g.wp, gin + static_cast<int64_t>(ic) * g.h * g.w, g.w, g.h, g.w);
  }
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  FEDMIGR_CHECK_EQ(a.ndim(), 2);
  FEDMIGR_CHECK_EQ(b.ndim(), 2);
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  FEDMIGR_CHECK_EQ(b.dim(0), k);
  Tensor c({m, n});
  Sgemm(false, false, m, n, k, a.data(), k, b.data(), n, c.data(), n);
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  FEDMIGR_CHECK_EQ(a.ndim(), 2);
  FEDMIGR_CHECK_EQ(b.ndim(), 2);
  const int k = a.dim(0), m = a.dim(1), n = b.dim(1);
  FEDMIGR_CHECK_EQ(b.dim(0), k);
  Tensor c({m, n});
  Sgemm(true, false, m, n, k, a.data(), m, b.data(), n, c.data(), n);
  return c;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  FEDMIGR_CHECK_EQ(a.ndim(), 2);
  FEDMIGR_CHECK_EQ(b.ndim(), 2);
  const int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  FEDMIGR_CHECK_EQ(b.dim(1), k);
  Tensor c({m, n});
  Sgemm(false, true, m, n, k, a.data(), k, b.data(), k, c.data(), n);
  return c;
}

Tensor Conv2dForward(const Tensor& input, const Tensor& kernel,
                     const Tensor& bias, int pad) {
  const ConvGeom g(input, kernel, pad);
  FEDMIGR_CHECK_EQ(bias.size(), g.cout);
  Tensor output({g.batch, g.cout, g.oh, g.ow});

  const int kcols = g.kcols();
  const int ohw = g.ohw();
  if (obs::Telemetry::enabled()) {
    static obs::Counter* conv_calls =
        obs::Registry::Default().GetCounter("nn/conv_calls");
    static obs::Counter* conv_flops =
        obs::Registry::Default().GetCounter("nn/conv_flops");
    conv_calls->Increment();
    conv_flops->Add(2ll * g.batch * g.cout * ohw * kcols);
  }
  const float* in = input.data();
  const float* ker = kernel.data();  // [cout, kcols] row-major
  const float* bias_p = bias.data();
  float* out = output.data();

  // One GEMM per block of images: Y_blk (cout x nb*ohw) = K · cols_blk,
  // then scattered into the block's NCHW images. Blocks are independent,
  // so any split of them across threads yields bit-identical outputs.
  IntraOpParallelRange(
      g.batch, g.block_images(), [&](int64_t img_begin, int64_t img_end) {
        ScratchArena::Scope scope;
        ScratchArena& arena = ScratchArena::ThreadLocal();
        const int64_t nb = img_end - img_begin;
        const int n = static_cast<int>(nb * ohw);  // GEMM columns
        float* padded = arena.AllocFloats(g.padded_image());
        float* cols = arena.AllocFloats(static_cast<int64_t>(kcols) * n);
        float* y = arena.AllocFloats(static_cast<int64_t>(g.cout) * n);
        for (int64_t j = 0; j < nb; ++j) {
          Im2col(g, in + (img_begin + j) * g.in_image(), padded,
                 cols + j * ohw, n);
        }
        // Pre-fill with the bias and let the GEMM accumulate on top of it
        // (kSeedFromC), matching the legacy kernel's bias-first reduction.
        for (int oc = 0; oc < g.cout; ++oc) {
          std::fill(y + static_cast<int64_t>(oc) * n,
                    y + static_cast<int64_t>(oc + 1) * n, bias_p[oc]);
        }
        Sgemm(false, false, g.cout, n, kcols, ker, kcols, cols, n, y, n,
              GemmAcc::kSeedFromC);
        for (int64_t j = 0; j < nb; ++j) {
          MoveWindow<false, 0>(y + j * ohw, n,
                               out + (img_begin + j) * g.out_image(), ohw,
                               g.cout, ohw);
        }
      });
  return output;
}

void Conv2dBackward(const Tensor& input, const Tensor& kernel, int pad,
                    const Tensor& grad_output, Tensor* grad_input,
                    Tensor* grad_kernel, Tensor* grad_bias) {
  const ConvGeom g(input, kernel, pad);
  FEDMIGR_CHECK(grad_output.shape() == (Shape{g.batch, g.cout, g.oh, g.ow}))
      << "conv grad_output " << ShapeToString(grad_output.shape());

  *grad_input = Tensor(input.shape());
  *grad_kernel = Tensor(kernel.shape());
  *grad_bias = Tensor(Shape{g.cout});

  const int kcols = g.kcols();
  const int ohw = g.ohw();
  if (obs::Telemetry::enabled()) {
    static obs::Counter* conv_calls =
        obs::Registry::Default().GetCounter("nn/conv_calls");
    static obs::Counter* conv_flops =
        obs::Registry::Default().GetCounter("nn/conv_flops");
    conv_calls->Increment();
    // Kernel gradient + input gradient, each the forward's volume.
    conv_flops->Add(4ll * g.batch * g.cout * ohw * kcols);
  }
  const float* in = input.data();
  const float* ker = kernel.data();
  const float* go = grad_output.data();
  float* gin = grad_input->data();
  float* gker = grad_kernel->data();
  float* gbias = grad_bias->data();

  // Bias gradient: a cheap streaming sum, kept serial and in the legacy
  // element order.
  for (int64_t img = 0; img < g.batch; ++img) {
    const float* go_n = go + img * g.out_image();
    for (int oc = 0; oc < g.cout; ++oc) {
      const float* go_c = go_n + static_cast<int64_t>(oc) * ohw;
      for (int i = 0; i < ohw; ++i) gbias[oc] += go_c[i];
    }
  }

  // Blocks run in image order on the calling thread: the kernel gradient
  // is a chain of per-image partials, each reduced in registers and then
  // added to grad_kernel in image order (kAddAfter, one k-run per image),
  // so its reduction tree is fixed. The GEMMs themselves still split rows
  // across the intra-op pool.
  ScratchArena::Scope scope;
  ScratchArena& arena = ScratchArena::ThreadLocal();
  const int block = g.block_images();
  const int64_t max_n = std::min(block, g.batch) * static_cast<int64_t>(ohw);
  float* padded = arena.AllocFloats(g.padded_image());
  // The block's im2col matrix, then (once the kernel gradient has read it)
  // its column gradients.
  float* cols = arena.AllocFloats(kcols * max_n);
  float* dy = arena.AllocFloats(g.cout * max_n);
  for (int64_t img_begin = 0; img_begin < g.batch; img_begin += block) {
    const int64_t nb = std::min<int64_t>(block, g.batch - img_begin);
    const int n = static_cast<int>(nb * ohw);  // GEMM columns
    for (int64_t j = 0; j < nb; ++j) {
      const int64_t img = img_begin + j;
      Im2col(g, in + img * g.in_image(), padded, cols + j * ohw, n);
      MoveWindow<false, 0>(go + img * g.out_image(), ohw, dy + j * ohw, n,
                           g.cout, ohw);
    }
    // dK += dY_img (cout x ohw) · cols_img^T (ohw x kcols) for each image
    // of the block in turn.
    Sgemm(false, true, g.cout, kcols, n, dy, n, cols, n, gker, kcols,
          GemmAcc::kAddAfter, ohw);
    // dcols_blk = K^T (kcols x cout) · dY_blk (cout x nb*ohw), scattered
    // back into each image's (disjoint) slice of grad_input.
    float* dcols = cols;
    Sgemm(true, false, kcols, n, g.cout, ker, kcols, dy, n, dcols, n,
          GemmAcc::kOverwrite);
    for (int64_t j = 0; j < nb; ++j) {
      Col2im(g, dcols + j * ohw, n, padded,
             gin + (img_begin + j) * g.in_image());
    }
  }
}

Tensor MaxPool2x2Forward(const Tensor& input, Tensor* argmax) {
  FEDMIGR_CHECK_EQ(input.ndim(), 4);
  const int batch = input.dim(0), c = input.dim(1);
  const int h = input.dim(2), w = input.dim(3);
  FEDMIGR_CHECK_EQ(h % 2, 0);
  FEDMIGR_CHECK_EQ(w % 2, 0);
  const int oh = h / 2, ow = w / 2;
  Tensor output({batch, c, oh, ow});
  *argmax = Tensor({batch, c, oh, ow});
  const float* in = input.data();
  float* out = output.data();
  float* arg = argmax->data();
  const int64_t planes = static_cast<int64_t>(batch) * c;
  for (int64_t plane = 0; plane < planes; ++plane) {
    const float* in_p = in + plane * h * w;
    for (int oy = 0; oy < oh; ++oy) {
      const float* row0 = in_p + (2 * oy) * w;
      const float* row1 = row0 + w;
      for (int ox = 0; ox < ow; ++ox) {
        const int x = 2 * ox;
        // Strictly-greater selects in (dy, dx) order keep the first
        // maximum, and a NaN never replaces the running best.
        float best = row0[x];
        float pos = 0.0f;
        const bool b1 = row0[x + 1] > best;
        best = b1 ? row0[x + 1] : best;
        pos = b1 ? 1.0f : pos;
        const bool b2 = row1[x] > best;
        best = b2 ? row1[x] : best;
        pos = b2 ? 2.0f : pos;
        const bool b3 = row1[x + 1] > best;
        best = b3 ? row1[x + 1] : best;
        pos = b3 ? 3.0f : pos;
        *out++ = best;
        *arg++ = pos;
      }
    }
  }
  return output;
}

Tensor MaxPool2x2Backward(const Tensor& grad_output, const Tensor& argmax,
                          const Shape& input_shape) {
  Tensor grad_input(input_shape);
  FEDMIGR_CHECK(grad_output.SameShape(argmax));
  FEDMIGR_CHECK_EQ(grad_output.ndim(), 4);
  FEDMIGR_CHECK_EQ(input_shape.size(), 4u);
  const int h = input_shape[2], w = input_shape[3];
  const int oh = grad_output.dim(2), ow = grad_output.dim(3);
  FEDMIGR_CHECK_EQ(grad_output.dim(0), input_shape[0]);
  FEDMIGR_CHECK_EQ(grad_output.dim(1), input_shape[1]);
  FEDMIGR_CHECK_EQ(oh, h / 2);
  FEDMIGR_CHECK_EQ(ow, w / 2);
  const int64_t planes = static_cast<int64_t>(grad_output.dim(0)) *
                         grad_output.dim(1);
  const float* go = grad_output.data();
  const float* arg = argmax.data();
  float* gin = grad_input.data();
  const int offset[4] = {0, 1, w, w + 1};  // window position -> input
  for (int64_t plane = 0; plane < planes; ++plane) {
    for (int oy = 0; oy < oh; ++oy) {
      float* gin_row = gin + (plane * h + 2 * oy) * w;
      for (int ox = 0; ox < ow; ++ox) {
        gin_row[2 * ox + offset[static_cast<int>(*arg++)]] += *go++;
      }
    }
  }
  return grad_input;
}

}  // namespace fedmigr::nn
