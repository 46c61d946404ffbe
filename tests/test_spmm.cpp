// Dense x sparse multiply kernels against brute-force dense references.
#include "sparse/spmm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "radixnet/builder.hpp"
#include "radixnet/graph_challenge.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/radix_windows.hpp"
#include "support/random.hpp"
#include "xnet/random_regular.hpp"

namespace radix {
namespace {

Csr<float> random_csr(index_t rows, index_t cols, double density, Rng& rng) {
  Coo<float> coo(rows, cols);
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) {
      if (rng.bernoulli(density)) {
        coo.push(r, c, static_cast<float>(rng.uniform(-1.0, 1.0)));
      }
    }
  }
  return Csr<float>::from_coo(coo);
}

std::vector<float> random_dense(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

// Reference epilogue of the challenge rule (two independent ifs, same
// as the historical second sweep).
float ref_epilogue(float v, float bias, float clamp) {
  v += bias;
  if (v < 0.0f) v = 0.0f;
  if (clamp > 0.0f && v > clamp) v = clamp;
  return v;
}

// Tiled panel layout (spmm.hpp), written out independently of the
// kernels: the tile of L = min(kBatchTile, batch - t0) rows at t0 holds
// (t0 + j, c) at t0 * width + c * L + j.
std::size_t tiled_index(index_t b, index_t c, index_t batch, index_t width) {
  const index_t t0 = b - b % kBatchTile;
  const index_t rows = std::min(kBatchTile, batch - t0);
  return static_cast<std::size_t>(t0) * width +
         static_cast<std::size_t>(c) * rows + (b - t0);
}

std::vector<float> to_layout(const std::vector<float>& row_major,
                             index_t batch, index_t width, PanelLayout l) {
  if (l == PanelLayout::kRowMajor) return row_major;
  std::vector<float> out(row_major.size());
  for (index_t b = 0; b < batch; ++b) {
    for (index_t c = 0; c < width; ++c) {
      out[tiled_index(b, c, batch, width)] =
          row_major[static_cast<std::size_t>(b) * width + c];
    }
  }
  return out;
}

std::vector<float> from_layout(const std::vector<float>& panel,
                               index_t batch, index_t width, PanelLayout l) {
  if (l == PanelLayout::kRowMajor) return panel;
  std::vector<float> out(panel.size());
  for (index_t b = 0; b < batch; ++b) {
    for (index_t c = 0; c < width; ++c) {
      out[static_cast<std::size_t>(b) * width + c] =
          panel[tiled_index(b, c, batch, width)];
    }
  }
  return out;
}

// Straight-line reference of a fused gather: output c of row b sums
// its W^T row in ascending input order (plain sums times
// `uniform_weight` when given, else per-edge products), then the
// epilogue's two ifs.  Row-major in and out; returns the nonzero count.
std::uint64_t reference_gather(const std::vector<float>& x, index_t batch,
                               const Csr<float>& wt,
                               std::optional<float> uniform_weight,
                               float bias, float clamp,
                               std::vector<float>& y) {
  const index_t m = wt.cols(), n = wt.rows();
  y.assign(static_cast<std::size_t>(batch) * n, 0.0f);
  std::uint64_t nz = 0;
  for (index_t b = 0; b < batch; ++b) {
    for (index_t c = 0; c < n; ++c) {
      float acc = 0.0f;
      for (offset_t k = wt.rowptr()[c]; k < wt.rowptr()[c + 1]; ++k) {
        const float xv = x[static_cast<std::size_t>(b) * m + wt.colind()[k]];
        acc += uniform_weight ? xv : xv * wt.values()[k];
      }
      float v = acc * uniform_weight.value_or(1.0f) + bias;
      if (v < 0.0f) v = 0.0f;
      if (clamp > 0.0f && v > clamp) v = clamp;
      y[static_cast<std::size_t>(b) * n + c] = v;
      nz += v != 0.0f ? 1 : 0;
    }
  }
  return nz;
}

// Straight-line reference of the weighted fused scatter: the unfused
// spmm_dense_csr, then ref_epilogue.  Row-major in and out; returns the
// nonzero count.
std::uint64_t reference_scatter(const std::vector<float>& x, index_t batch,
                                const Csr<float>& w, float bias, float clamp,
                                std::vector<float>& y) {
  y.assign(static_cast<std::size_t>(batch) * w.cols(), 0.0f);
  spmm_dense_csr(x.data(), batch, w.rows(), w, y.data());
  std::uint64_t nz = 0;
  for (auto& v : y) {
    v = ref_epilogue(v, bias, clamp);
    nz += v != 0.0f ? 1 : 0;
  }
  return nz;
}

TEST(Spmm, DenseCsrMatchesReference) {
  Rng rng(11);
  const index_t batch = 4, m = 7, n = 9;
  const auto w = random_csr(m, n, 0.5, rng);
  const auto wd = to_dense(w);
  const auto x = random_dense(static_cast<std::size_t>(batch) * m, rng);

  std::vector<float> y(static_cast<std::size_t>(batch) * n, 0.0f);
  spmm_dense_csr(x.data(), batch, m, w, y.data());

  for (index_t b = 0; b < batch; ++b) {
    for (index_t c = 0; c < n; ++c) {
      double acc = 0.0;
      for (index_t r = 0; r < m; ++r) acc += x[b * m + r] * wd.at(r, c);
      EXPECT_NEAR(y[b * n + c], acc, 1e-4) << "b=" << b << " c=" << c;
    }
  }
}

TEST(Spmm, DenseCsrAccumulates) {
  // y is an accumuland: pre-filled entries must be added to, not replaced.
  Coo<float> coo(1, 1);
  coo.push(0, 0, 2.0f);
  const auto w = Csr<float>::from_coo(coo);
  std::vector<float> y = {10.0f};
  const float x = 3.0f;
  spmm_dense_csr(&x, 1, 1, w, y.data());
  EXPECT_FLOAT_EQ(y[0], 16.0f);  // 10 + 3*2
}

TEST(Spmm, DenseCsrTMatchesReference) {
  Rng rng(12);
  const index_t batch = 3, m = 6, n = 8;
  const auto w = random_csr(m, n, 0.5, rng);
  const auto wd = to_dense(w);
  const auto x = random_dense(static_cast<std::size_t>(batch) * n, rng);

  std::vector<float> y(static_cast<std::size_t>(batch) * m, 0.0f);
  spmm_dense_csrT(x.data(), batch, n, w, y.data());

  for (index_t b = 0; b < batch; ++b) {
    for (index_t r = 0; r < m; ++r) {
      double acc = 0.0;
      for (index_t c = 0; c < n; ++c) acc += x[b * n + c] * wd.at(r, c);
      EXPECT_NEAR(y[b * m + r], acc, 1e-4) << "b=" << b << " r=" << r;
    }
  }
}

TEST(Spmm, SpmvMatchesReference) {
  Rng rng(13);
  const index_t m = 10, n = 12;
  const auto w = random_csr(m, n, 0.4, rng);
  const auto wd = to_dense(w);
  const auto x = random_dense(n, rng);

  std::vector<float> y(m, 0.0f);
  spmv(w, x.data(), y.data());

  for (index_t r = 0; r < m; ++r) {
    double acc = 0.0;
    for (index_t c = 0; c < n; ++c) acc += wd.at(r, c) * x[c];
    EXPECT_NEAR(y[r], acc, 1e-4) << "r=" << r;
  }
}

TEST(Spmm, SddmmPatternMatchesReference) {
  Rng rng(14);
  const index_t batch = 5, m = 6, n = 7;
  const auto w = random_csr(m, n, 0.5, rng);
  const auto x = random_dense(static_cast<std::size_t>(batch) * m, rng);
  const auto dy = random_dense(static_cast<std::size_t>(batch) * n, rng);

  std::vector<float> grad(w.nnz(), 0.0f);
  sddmm_pattern(x.data(), dy.data(), batch, m, n, w, grad.data());

  // Reference: for every stored (r, c), grad = sum_b x[b,r] * dy[b,c].
  std::size_t k = 0;
  for (index_t r = 0; r < m; ++r) {
    for (offset_t p = w.rowptr()[r]; p < w.rowptr()[r + 1]; ++p, ++k) {
      const index_t c = w.colind()[p];
      double acc = 0.0;
      for (index_t b = 0; b < batch; ++b) {
        acc += x[b * m + r] * dy[b * n + c];
      }
      EXPECT_NEAR(grad[k], acc, 1e-4) << "r=" << r << " c=" << c;
    }
  }
}

TEST(Spmm, ZeroBatchIsANoOp) {
  Rng rng(15);
  const auto w = random_csr(4, 4, 0.5, rng);
  const auto wt = w.transpose();
  const RadixWindows win{{0, 1, 2, 3}, 1, 2, 4};
  spmm_dense_csr(nullptr, 0, 4, w, nullptr);
  spmm_dense_csrT(nullptr, 0, 4, w, nullptr);
  for (const PanelLayout out : {PanelLayout::kRowMajor, PanelLayout::kTiled}) {
    EXPECT_EQ(spmm_dense_csr_fused(nullptr, 0, 4, w, nullptr, 0.1f, 2.0f,
                                   out),
              0u);
    EXPECT_EQ(spmm_dense_csrT_fused(nullptr, 0, 4, wt, nullptr, 0.1f, 2.0f,
                                    out),
              0u);
    EXPECT_EQ(spmm_dense_csr_fused_uniform(nullptr, 0, 4, w, 0.5f, nullptr,
                                           0.1f, 2.0f, out),
              0u);
    EXPECT_EQ(spmm_dense_csrT_fused_uniform(nullptr, 0, 4, wt, 0.5f, nullptr,
                                            0.1f, 2.0f, out),
              0u);
    EXPECT_EQ(spmm_dense_windows_fused_uniform(nullptr, 0, 4, win, 0.5f,
                                               nullptr, 0.1f, 2.0f, out),
              0u);
  }
}

TEST(Spmm, FusedScatterMatchesUnfusedPlusEpilogue) {
  // Both weighted arms, fed the tiled input, into either output layout.
  Rng rng(16);
  const index_t batch = 13, m = 23, n = 17;  // odd sizes: remainder tile
  const auto w = random_csr(m, n, 0.4, rng);
  const auto wt = w.transpose();
  auto x = random_dense(static_cast<std::size_t>(batch) * m, rng);
  for (std::size_t i = 0; i < x.size(); i += 3) x[i] = 0.0f;  // skips
  const float bias = -0.05f, clamp = 0.6f;
  const auto xin = to_layout(x, batch, m, PanelLayout::kTiled);

  std::vector<float> want;
  const auto want_nz = reference_scatter(x, batch, w, bias, clamp, want);

  for (const PanelLayout out : {PanelLayout::kRowMajor, PanelLayout::kTiled}) {
    std::vector<float> got(want.size(), -1.0f);  // fused needs no zero-init
    const auto nz = spmm_dense_csr_fused(xin.data(), batch, m, w, got.data(),
                                         bias, clamp, out);
    EXPECT_EQ(nz, want_nz);
    const auto back = from_layout(got, batch, n, out);
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(back[i], want[i]) << i;  // bit-exact, same summation order
    }

    // Gather arm over the transposed layer: same result, bit for bit.
    std::vector<float> gat(want.size(), -2.0f);
    const auto nz2 = spmm_dense_csrT_fused(xin.data(), batch, m, wt,
                                           gat.data(), bias, clamp, out);
    EXPECT_EQ(nz2, want_nz);
    const auto gback = from_layout(gat, batch, n, out);
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(gback[i], want[i]) << i;
    }
  }
}

TEST(Spmm, FusedUniformArmsAgreeBitExact) {
  // Uniform-weight specializations: scatter and gather defer the weight
  // to the epilogue scale identically, so they must agree bitwise.
  Rng rng(17);
  Coo<float> coo(19, 21);
  for (index_t r = 0; r < 19; ++r) {
    for (index_t c = 0; c < 21; ++c) {
      if (rng.bernoulli(0.4)) coo.push(r, c, 0.0625f);
    }
  }
  const auto w = Csr<float>::from_coo(coo);
  const index_t batch = 11;
  auto x = random_dense(static_cast<std::size_t>(batch) * 19, rng);
  for (auto& v : x) v = v < 0.0f ? 0.0f : v;  // activation-like input
  const auto xin = to_layout(x, batch, 19, PanelLayout::kTiled);

  for (const PanelLayout out : {PanelLayout::kRowMajor, PanelLayout::kTiled}) {
    std::vector<float> a(static_cast<std::size_t>(batch) * 21);
    std::vector<float> b(a.size());
    const auto nza = spmm_dense_csr_fused_uniform(xin.data(), batch, 19, w,
                                                  0.0625f, a.data(), -0.1f,
                                                  0.5f, out);
    const auto nzb = spmm_dense_csrT_fused_uniform(xin.data(), batch, 19,
                                                   w.transpose(), 0.0625f,
                                                   b.data(), -0.1f, 0.5f,
                                                   out);
    EXPECT_EQ(nza, nzb);
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
  }
}

TEST(Spmm, TiledIndexIsAPermutation) {
  for (index_t batch = 1; batch <= 17; ++batch) {
    const index_t width = 5;
    std::vector<int> hits(static_cast<std::size_t>(batch) * width, 0);
    for (index_t b = 0; b < batch; ++b) {
      for (index_t c = 0; c < width; ++c) {
        ++hits.at(tiled_index(b, c, batch, width));
      }
    }
    for (int h : hits) EXPECT_EQ(h, 1) << "batch " << batch;
  }
}

TEST(Spmm, EveryOutputLayoutMatchesReferenceBitExact) {
  // Both arms, general and uniform, fed a tiled input, into either
  // output layout: after de-interleaving, the same bits and nonzero
  // count as the straight-line reference (the unfused spmm_dense_csr
  // plus ref_epilogue for the weighted scatter, reference_gather for
  // the other three).  Batches cover full tiles, every partial-tile
  // size and their mix.
  Rng rng(18);
  const index_t m = 37, n = 29;
  const auto w = random_csr(m, n, 0.3, rng);
  const auto wt = w.transpose();
  Coo<float> ucoo(m, n);
  for (index_t r = 0; r < m; ++r) {
    for (index_t c = 0; c < n; ++c) {
      if (rng.bernoulli(0.3)) ucoo.push(r, c, 0.0625f);
    }
  }
  const auto u = Csr<float>::from_coo(ucoo);
  const auto ut = u.transpose();
  const float bias = -0.02f, clamp = 0.7f;
  const char* const names[] = {"scatter", "gather", "scatter-uniform",
                               "gather-uniform"};
  using enum PanelLayout;
  for (index_t batch = 1; batch <= 17; ++batch) {
    auto x = random_dense(static_cast<std::size_t>(batch) * m, rng);
    for (std::size_t i = 0; i < x.size(); i += 4) x[i] = 0.0f;  // skips
    for (auto& v : x) v = v < -0.5f ? 0.0f : v;
    const auto xin = to_layout(x, batch, m, kTiled);
    const std::size_t out_size = static_cast<std::size_t>(batch) * n;
    for (int arm = 0; arm < 4; ++arm) {
      const auto run = [&](float* out, PanelLayout l) {
        const float* in = xin.data();
        switch (arm) {
          case 0:
            return spmm_dense_csr_fused(in, batch, m, w, out, bias, clamp, l);
          case 1:
            return spmm_dense_csrT_fused(in, batch, m, wt, out, bias, clamp,
                                         l);
          case 2:
            return spmm_dense_csr_fused_uniform(in, batch, m, u, 0.0625f,
                                                out, bias, clamp, l);
          default:
            return spmm_dense_csrT_fused_uniform(in, batch, m, ut, 0.0625f,
                                                 out, bias, clamp, l);
        }
      };
      std::vector<float> want;
      const auto want_nz =
          arm == 0 ? reference_scatter(x, batch, w, bias, clamp, want)
          : arm == 1
              ? reference_gather(x, batch, wt, std::nullopt, bias, clamp,
                                 want)
              : reference_gather(x, batch, ut, 0.0625f, bias, clamp, want);
      for (PanelLayout out : {kRowMajor, kTiled}) {
        std::vector<float> got(out_size, -3.0f);
        const auto nz = run(got.data(), out);
        const auto back = from_layout(got, batch, n, out);
        EXPECT_EQ(nz, want_nz) << names[arm] << " batch " << batch;
        for (std::size_t i = 0; i < out_size; ++i) {
          ASSERT_EQ(back[i], want[i])
              << names[arm] << " batch " << batch << " out "
              << (out == kTiled) << " at " << i;
        }
      }
    }
  }
}

// Each output's inputs, walked through the window table, must be
// exactly the output's W^T row, in the same (ascending) order.
void expect_windows_reproduce(const RadixWindows& win, const Csr<float>& w,
                              const std::string& tag) {
  const auto wt = w.transpose();
  ASSERT_EQ(win.outputs(), w.cols()) << tag;
  ASSERT_EQ(win.modulus, w.rows()) << tag;
  for (index_t c = 0; c < w.cols(); ++c) {
    std::vector<index_t> walked;
    win.for_each_input(c, [&](std::size_t i) {
      walked.push_back(static_cast<index_t>(i));
    });
    const auto& row = wt.colind();
    const std::vector<index_t> want(row.begin() + wt.rowptr()[c],
                                    row.begin() + wt.rowptr()[c + 1]);
    ASSERT_EQ(walked, want) << tag << " output " << c;
  }
}

// The layer whose output c reads {(start[c] + nu * t) mod m : t < d}.
Csr<float> window_layer(index_t m, index_t nu, index_t d,
                        const std::vector<index_t>& start) {
  Coo<float> coo(m, static_cast<index_t>(start.size()));
  for (index_t c = 0; c < start.size(); ++c) {
    for (index_t t = 0; t < d; ++t) {
      coo.push(static_cast<index_t>(
                   (std::uint64_t{start[c]} + std::uint64_t{nu} * t) % m),
               c, 0.125f);
    }
  }
  return Csr<float>::from_coo(coo);
}

// W with every stored (r, c) passed through `edit`.
template <class Edit>
Csr<float> edited_layer(const Csr<float>& w, Edit edit) {
  Coo<float> coo(w.rows(), w.cols());
  for (index_t r = 0; r < w.rows(); ++r) {
    for (offset_t k = w.rowptr()[r]; k < w.rowptr()[r + 1]; ++k) {
      index_t rr = r, cc = w.colind()[k];
      if (edit(rr, cc)) coo.push(rr, cc, w.values()[k]);
    }
  }
  return Csr<float>::from_coo(coo);
}

TEST(RadixWindows, FindsEveryChallengeLayerShuffledOrNot) {
  for (const index_t width : {index_t{1024}, index_t{4096}, index_t{16384}}) {
    const std::size_t depth = width == 1024 ? 4 : 6;  // two periods
    for (const bool shuffled : {false, true}) {
      Rng rng(width + 1);
      const auto net = gc::network(width, depth, shuffled ? &rng : nullptr);
      const auto radices = gc::base_system(width).front();
      index_t nu = 1;
      for (std::size_t k = 0; k < depth; ++k) {
        const std::string tag = "width " + std::to_string(width) +
                                (shuffled ? " shuffled" : "") + " layer " +
                                std::to_string(k);
        const auto win = find_radix_windows(net.layers[k]);
        ASSERT_TRUE(win.has_value()) << tag;
        // Eq. (1): the k-th radix's place value and the radix itself.
        const index_t radix = radices[k % radices.size()];
        EXPECT_EQ(win->degree, radix) << tag;
        EXPECT_EQ(win->stride, nu) << tag;
        nu = k % radices.size() + 1 == radices.size() ? 1 : nu * radix;
        expect_windows_reproduce(*win, net.layers[k], tag);
      }
    }
  }
}

TEST(RadixWindows, FindsEverySeededWindowLayer) {
  // Random (width, stride, degree, starts) with windows shorter than
  // one turn (stride * (degree - 1) < width, as in eq. (1)), strides
  // that do and do not divide the width, and windows that wrap or not:
  // the table must reproduce every W^T row.
  Rng rng(71);
  for (int round = 0; round < 200; ++round) {
    const index_t m = 2 + static_cast<index_t>(rng.uniform(60));
    const index_t nu = 1 + static_cast<index_t>(rng.uniform(m - 1));
    const index_t d = 1 + static_cast<index_t>(rng.uniform((m - 1) / nu + 1));
    const index_t n = 1 + static_cast<index_t>(rng.uniform(40));
    std::vector<index_t> start(n);
    for (auto& s : start) s = static_cast<index_t>(rng.uniform(m));
    const auto w = window_layer(m, nu, d, start);
    const std::string tag = "m " + std::to_string(m) + " nu " +
                            std::to_string(nu) + " d " + std::to_string(d);
    const auto win = find_radix_windows(w);
    ASSERT_TRUE(win.has_value()) << tag;
    EXPECT_EQ(win->degree, d) << tag;
    expect_windows_reproduce(*win, w, tag);
  }
}

TEST(RadixWindows, FallsBackOnEveryOtherStructure) {
  Rng rng(73);
  // The D > 1 Kronecker stage over a partial window: each output reads
  // one window per dense block, two runs that do not close into one.
  const Fnnt kron = build_radix_net({{2, 3, 4}}, {1, 2, 2, 1});
  EXPECT_FALSE(find_radix_windows(
                   kron.layer(1).map<float>([](pattern_t) { return 1.0f; }))
                   .has_value());
  // X-Net and random layers.
  const Fnnt xnet = random_xnet({64, 64, 64}, 4, rng);
  for (std::size_t k = 0; k < xnet.depth(); ++k) {
    EXPECT_FALSE(find_radix_windows(xnet.layer(k).map<float>(
                                        [](pattern_t) { return 1.0f; }))
                     .has_value())
        << "x-net layer " << k;
  }
  EXPECT_FALSE(find_radix_windows(random_csr(40, 40, 0.2, rng)).has_value());
  EXPECT_FALSE(find_radix_windows(Csr<float>(8, 8)).has_value());

  // One edge removed from, or moved within, a challenge layer.
  Rng srng(5);
  const auto net = gc::network(1024, 2, &srng);
  for (std::size_t k = 0; k < net.layers.size(); ++k) {
    const Csr<float>& w = net.layers[k];
    ASSERT_TRUE(find_radix_windows(w).has_value());
    const index_t r0 = 17;
    const index_t c0 = w.colind()[w.rowptr()[r0]];
    const auto has = [&](index_t r, index_t c) {
      const auto b = w.colind().begin() + w.rowptr()[r];
      const auto e = w.colind().begin() + w.rowptr()[r + 1];
      return std::binary_search(b, e, c);
    };
    // Removed: output c0 loses one input.
    EXPECT_FALSE(find_radix_windows(edited_layer(w, [&](index_t r, index_t c) {
                   return !(r == r0 && c == c0);
                 })).has_value())
        << "layer " << k << " edge removed";
    // Moved to another output: c0 loses an input, c1 gains one.
    index_t c1 = (c0 + 1) % w.cols();
    while (has(r0, c1)) c1 = (c1 + 1) % w.cols();
    EXPECT_FALSE(find_radix_windows(edited_layer(w, [&](index_t r,
                                                        index_t& c) {
                   if (r == r0 && c == c0) c = c1;
                   return true;
                 })).has_value())
        << "layer " << k << " edge moved to another output";
    // Moved to another input: every in-degree is unchanged, but one
    // input of c0 is no longer in its window.
    index_t r1 = (r0 + 1) % w.rows();
    while (has(r1, c0)) r1 = (r1 + 1) % w.rows();
    EXPECT_FALSE(find_radix_windows(edited_layer(w, [&](index_t& r,
                                                        index_t c) {
                   if (r == r0 && c == c0) r = r1;
                   return true;
                 })).has_value())
        << "layer " << k << " edge moved to another input";
  }
}

TEST(Spmm, WindowGatherMatchesExplicitGatherEveryLayoutBitExact) {
  // The implicit gather against the explicit uniform gather over the
  // same layer's transpose, both fed the same tiled input: the same bits
  // and nonzero count in either output layout and at every batch 1..17,
  // and both equal to the straight-line reference, over layers with
  // wrapping windows (shuffled challenge layers, strides 1 and 32).
  Rng srng(9);
  const auto net = gc::network(1024, 2, &srng);
  Rng rng(19);
  using enum PanelLayout;
  for (const Csr<float>& w : net.layers) {
    const auto win = find_radix_windows(w);
    ASSERT_TRUE(win.has_value());
    const auto wt = w.transpose();
    const float uw = w.values().front();
    const index_t m = w.rows(), n = w.cols();
    for (index_t batch = 1; batch <= 17; ++batch) {
      auto x = random_dense(static_cast<std::size_t>(batch) * m, rng);
      for (auto& v : x) v = v < -0.3f ? 0.0f : v;
      const auto xin = to_layout(x, batch, m, kTiled);
      const std::size_t out_size = static_cast<std::size_t>(batch) * n;
      std::vector<float> ref;
      const auto ref_nz =
          reference_gather(x, batch, wt, uw, -0.05f, 0.9f, ref);
      for (PanelLayout out : {kRowMajor, kTiled}) {
        std::vector<float> want(out_size), got(out_size, -3.0f);
        const auto want_nz = spmm_dense_csrT_fused_uniform(
            xin.data(), batch, m, wt, uw, want.data(), -0.05f, 0.9f, out);
        const auto nz = spmm_dense_windows_fused_uniform(
            xin.data(), batch, m, *win, uw, got.data(), -0.05f, 0.9f, out);
        EXPECT_EQ(nz, want_nz) << "batch " << batch;
        EXPECT_EQ(nz, ref_nz) << "batch " << batch;
        const auto back = from_layout(got, batch, n, out);
        for (std::size_t i = 0; i < out_size; ++i) {
          ASSERT_EQ(got[i], want[i])
              << "batch " << batch << " out " << (out == kTiled) << " at "
              << i;
          ASSERT_EQ(back[i], ref[i])
              << "batch " << batch << " out " << (out == kTiled) << " at "
              << i;
        }
      }
    }
  }
}

TEST(Spmm, GatherEpilogueAtTheVectorBoundaryBitExact) {
  // The gather arm's 4-float block against the scatter arm and the
  // straight-line reference, compared with memcmp so a sign of zero or
  // a NaN payload counts: batches 1..17 (8-, 4-, 2- and 1-lane blocks),
  // both sources (window table and W^T rows), uniform and weighted
  // (negative weights and biases), no ceiling (clamp 0 and -1), sums
  // landing exactly on the clamp (every input and weight a multiple of
  // 1/2), -0.0 results (+0 sums times a negative uniform weight plus a
  // -0.0 bias) and a NaN input.  Every kernel reads the tiled input and
  // writes either output layout.
  Rng rng(23);
  const index_t m = 37, nu = 3, d = 6, n = 29;  // windows wrap
  std::vector<index_t> start(n);
  for (auto& st : start) st = static_cast<index_t>(rng.uniform(m));
  const auto pattern = window_layer(m, nu, d, start);
  const auto win = find_radix_windows(pattern);
  ASSERT_TRUE(win.has_value());
  const auto pt = pattern.transpose();
  static const float kWeights[] = {-1.0f, -0.5f, 0.5f, 1.0f};
  const auto weighted = pattern.map<float>(
      [&](float) { return kWeights[rng.uniform(4)]; });
  const auto weighted_t = weighted.transpose();
  static const float kInputs[] = {-2.0f, -1.0f, -0.5f, 0.0f,
                                  0.0f,  0.5f,  1.0f,  2.0f};
  using enum PanelLayout;
  for (index_t batch = 1; batch <= 17; ++batch) {
    std::vector<float> x(static_cast<std::size_t>(batch) * m);
    for (auto& v : x) v = kInputs[rng.uniform(8)];
    if (batch % 5 == 0) x[rng.uniform(x.size())] = NAN;
    const auto xin = to_layout(x, batch, m, kTiled);
    const std::size_t out_size = static_cast<std::size_t>(batch) * n;
    for (const float uw : {0.5f, -0.5f}) {
      for (const float bias : {-0.0f, -0.5f, 0.25f}) {
        for (const float clamp : {0.0f, -1.0f, 1.0f}) {
          std::vector<float> want_u, want_w;
          const auto nz_u =
              reference_gather(x, batch, pt, uw, bias, clamp, want_u);
          const auto nz_w = reference_gather(x, batch, weighted_t,
                                             std::nullopt, bias, clamp,
                                             want_w);
          for (PanelLayout out : {kTiled, kRowMajor}) {
            const auto check = [&](const char* arm, auto run,
                                   const std::vector<float>& want,
                                   std::uint64_t want_nz) {
              std::vector<float> got(out_size, -3.0f);
              const std::uint64_t nz = run(got.data());
              const auto back = from_layout(got, batch, n, out);
              const std::string tag =
                  std::string(arm) + " batch " + std::to_string(batch) +
                  " uw " + std::to_string(uw) + " bias " +
                  std::to_string(bias) + " clamp " + std::to_string(clamp) +
                  " out " + std::to_string(out == kTiled);
              EXPECT_EQ(nz, want_nz) << tag;
              EXPECT_EQ(std::memcmp(back.data(), want.data(),
                                    out_size * sizeof(float)),
                        0)
                  << tag;
            };
            check("window gather", [&](float* y) {
              return spmm_dense_windows_fused_uniform(
                  xin.data(), batch, m, *win, uw, y, bias, clamp, out);
            }, want_u, nz_u);
            check("uniform gather", [&](float* y) {
              return spmm_dense_csrT_fused_uniform(
                  xin.data(), batch, m, pt, uw, y, bias, clamp, out);
            }, want_u, nz_u);
            check("uniform scatter", [&](float* y) {
              return spmm_dense_csr_fused_uniform(
                  xin.data(), batch, m, pattern, uw, y, bias, clamp, out);
            }, want_u, nz_u);
            check("weighted gather", [&](float* y) {
              return spmm_dense_csrT_fused(xin.data(), batch, m, weighted_t,
                                           y, bias, clamp, out);
            }, want_w, nz_w);
            check("weighted scatter", [&](float* y) {
              return spmm_dense_csr_fused(xin.data(), batch, m, weighted, y,
                                          bias, clamp, out);
            }, want_w, nz_w);
          }
        }
      }
    }
  }
}

TEST(Spmm, TilePanelMatchesTheTiledLayoutAndCountsNonzeros) {
  Rng rng(29);
  for (index_t batch = 0; batch <= 17; ++batch) {
    const index_t width = 13;
    auto x = random_dense(static_cast<std::size_t>(batch) * width, rng);
    std::uint64_t want_nz = 0;
    for (auto& v : x) {
      if (v < -0.4f) v = 0.0f;
      want_nz += v != 0.0f ? 1 : 0;
    }
    const auto want = to_layout(x, batch, width, PanelLayout::kTiled);
    std::vector<float> got(x.size(), -3.0f);
    EXPECT_EQ(tile_panel(x.data(), batch, width, got.data()), want_nz)
        << "batch " << batch;
    EXPECT_EQ(got, want) << "batch " << batch;
  }
}

}  // namespace
}  // namespace radix
