// Dense x sparse multiply kernels against brute-force dense references.
#include "sparse/spmm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "support/random.hpp"

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
  spmm_dense_csr(nullptr, 0, 4, w, nullptr);
  spmm_dense_csrT(nullptr, 0, 4, w, nullptr);
  EXPECT_EQ(spmm_dense_csr_fused(nullptr, 0, 4, w, nullptr, 0.1f, 2.0f),
            0u);
  EXPECT_EQ(spmm_dense_csrT_fused(nullptr, 0, 4, w.transpose(), nullptr,
                                  0.1f, 2.0f),
            0u);
}

// Reference epilogue of the challenge rule (two independent ifs, same
// as the historical second sweep).
float ref_epilogue(float v, float bias, float clamp) {
  v += bias;
  if (v < 0.0f) v = 0.0f;
  if (clamp > 0.0f && v > clamp) v = clamp;
  return v;
}

TEST(Spmm, FusedScatterMatchesUnfusedPlusEpilogue) {
  Rng rng(16);
  const index_t batch = 13, m = 23, n = 17;  // odd sizes: remainder tile
  const auto w = random_csr(m, n, 0.4, rng);
  auto x = random_dense(static_cast<std::size_t>(batch) * m, rng);
  for (std::size_t i = 0; i < x.size(); i += 3) x[i] = 0.0f;  // skips
  const float bias = -0.05f, clamp = 0.6f;

  std::vector<float> want(static_cast<std::size_t>(batch) * n, 0.0f);
  spmm_dense_csr(x.data(), batch, m, w, want.data());
  std::uint64_t want_nz = 0;
  for (auto& v : want) {
    v = ref_epilogue(v, bias, clamp);
    want_nz += v != 0.0f ? 1 : 0;
  }

  std::vector<float> got(want.size(), -1.0f);  // fused needs no zero-init
  const auto nz =
      spmm_dense_csr_fused(x.data(), batch, m, w, got.data(), bias, clamp);
  EXPECT_EQ(nz, want_nz);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << i;  // bit-exact, same summation order
  }

  // Gather arm over the transposed layer: same result, bit for bit.
  std::vector<float> gat(want.size(), -2.0f);
  const auto nz2 = spmm_dense_csrT_fused(x.data(), batch, m, w.transpose(),
                                         gat.data(), bias, clamp);
  EXPECT_EQ(nz2, want_nz);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(gat[i], want[i]) << i;
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

  std::vector<float> a(static_cast<std::size_t>(batch) * 21);
  std::vector<float> b(a.size());
  const auto nza = spmm_dense_csr_fused_uniform(x.data(), batch, 19, w,
                                                0.0625f, a.data(), -0.1f,
                                                0.5f);
  const auto nzb = spmm_dense_csrT_fused_uniform(x.data(), batch, 19,
                                                 w.transpose(), 0.0625f,
                                                 b.data(), -0.1f, 0.5f);
  EXPECT_EQ(nza, nzb);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
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

TEST(Spmm, EveryLayoutPairMatchesRowMajorBitExact) {
  // Both arms, general and uniform, in every (input, output) layout
  // pair: after (de)interleaving, the same bits and nonzero count as the
  // row-major call.  Batches cover full tiles, every partial-tile size
  // and their mix.
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
    const std::size_t out_size = static_cast<std::size_t>(batch) * n;
    for (int arm = 0; arm < 4; ++arm) {
      const auto run = [&](const float* in, float* out, PanelLayouts l) {
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
      std::vector<float> want(out_size);
      const auto want_nz = run(x.data(), want.data(), {});
      for (PanelLayout in : {kRowMajor, kTiled}) {
        for (PanelLayout out : {kRowMajor, kTiled}) {
          const auto xin = to_layout(x, batch, m, in);
          std::vector<float> got(out_size, -3.0f);
          const auto nz = run(xin.data(), got.data(), {in, out});
          const auto back = from_layout(got, batch, n, out);
          EXPECT_EQ(nz, want_nz) << names[arm] << " batch " << batch;
          for (std::size_t i = 0; i < out_size; ++i) {
            ASSERT_EQ(back[i], want[i])
                << names[arm] << " batch " << batch << " in "
                << (in == kTiled) << " out " << (out == kTiled) << " at "
                << i;
          }
        }
      }
    }
  }
}

TEST(Spmm, CountNonzeros) {
  std::vector<float> v = {0.0f, 1.0f, -2.0f, 0.0f, 0.5f};
  EXPECT_EQ(count_nonzeros(v.data(), v.size()), 3u);
  EXPECT_EQ(count_nonzeros(nullptr, 0), 0u);
}

}  // namespace
}  // namespace radix
