#include "sparse/spmm.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/parallel.hpp"

namespace radix {
namespace {

// The Graph-Challenge epilogue.  Kept as two independent ifs (not
// else-if) so the generated code is identical to the historical
// two-pass implementation and results stay bit-exact; scale == 1.0f is
// an exact IEEE identity, so the general path is unaffected by it.
inline float epilogue(float v, float scale, float bias, float clamp) {
  v = v * scale + bias;
  if (v < 0.0f) v = 0.0f;
  if (clamp > 0.0f && v > clamp) v = clamp;
  return v;
}

// The one addressing helper of the fused kernels: one batch tile (rows
// t0 .. t0+L-1) of a panel `width` columns wide, in either layout.
// Element (lane j, column c) sits at base[col(c) + lane(j)]; exactly one
// of the two strides is the compile-time constant 1 (columns in a
// row-major tile, lanes in a tiled one), so a tiled tile's lanes for one
// column are contiguous and vectorize into one load.  The tile occupies
// panel[t0*width, (t0+L)*width) in both layouts.
template <PanelLayout kLayout, class T>
struct Tile {
  T* base;             // panel + t0 * width
  std::size_t stride;  // row-major: width (lane to lane); tiled: L

  Tile(T* panel, index_t t0, index_t rows, index_t width)
      : base(panel + static_cast<std::size_t>(t0) * width),
        stride(kLayout == PanelLayout::kRowMajor
                   ? static_cast<std::size_t>(width)
                   : static_cast<std::size_t>(rows)) {}

  std::size_t col(std::size_t c) const {
    return kLayout == PanelLayout::kRowMajor ? c : c * stride;
  }
  std::size_t lane(index_t j) const {
    return kLayout == PanelLayout::kRowMajor
               ? static_cast<std::size_t>(j) * stride
               : static_cast<std::size_t>(j);
  }
};

// Runs body.template operator()<In, Out>() for the runtime layout pair,
// so each kernel body is written once over all four combinations.
template <class Body>
std::uint64_t dispatch_layouts(PanelLayouts layouts, const Body& body) {
  using enum PanelLayout;
  if (layouts.in == kRowMajor) {
    return layouts.out == kRowMajor
               ? body.template operator()<kRowMajor, kRowMajor>()
               : body.template operator()<kRowMajor, kTiled>();
  }
  return layouts.out == kRowMajor
             ? body.template operator()<kTiled, kRowMajor>()
             : body.template operator()<kTiled, kTiled>();
}

// Shared body of the fused scatter kernels.  kUniform drops the
// per-edge value load + multiply and defers the weight to the epilogue
// scale (see spmm.hpp).  The batch is processed in kBatchTile-row tiles:
// each W row's entries are loaded once per tile and scattered into every
// active tile row, after compacting the tile's nonzero activations so
// ReLU-dead rows cost nothing in the inner loop.  With a tiled output
// the active lanes of one scattered edge share one cache line.
template <bool kUniform, PanelLayout kIn, PanelLayout kOut>
std::uint64_t csr_fused_impl(const float* x, index_t batch, index_t m,
                             CsrFloatView w, float scale, float* y,
                             float bias, float clamp) {
  RADIX_REQUIRE_DIM(w.rows() == m,
                    "spmm_dense_csr_fused: inner dim mismatch");
  const index_t n = w.cols();
  const auto rowptr = w.rowptr();
  const auto colind = w.colind();
  const auto vals = w.values();
  const std::int64_t ntiles =
      batch == 0 ? 0 : (batch + kBatchTile - 1) / kBatchTile;
  const std::int64_t ops_per_tile =
      static_cast<std::int64_t>(kBatchTile) *
      static_cast<std::int64_t>(w.nnz() + n);
  return parallel_reduce_sum<std::uint64_t>(
      0, ntiles,
      [&](std::int64_t t) -> std::uint64_t {
        const index_t b0 = static_cast<index_t>(t) * kBatchTile;
        const index_t rows = std::min(batch - b0, kBatchTile);
        const Tile<kIn, const float> xt(x, b0, rows, m);
        const Tile<kOut, float> yt(y, b0, rows, n);
        float* const tile_lo = yt.base;
        float* const tile_hi = yt.base + static_cast<std::size_t>(rows) * n;
        // Zero the tile's output panel while it is about to become hot.
        std::fill(tile_lo, tile_hi, 0.0f);
        for (index_t r = 0; r < m; ++r) {
          const offset_t lo = rowptr[r], hi = rowptr[r + 1];
          if (lo == hi) continue;
          // Compact the tile's active (nonzero) activations for input
          // row r; skip the row's weights entirely if the whole tile is
          // dead.  Accumulation per output stays in ascending-r order,
          // bit-identical to the unblocked kernel.
          float xv[kBatchTile];
          std::size_t yl[kBatchTile];
          int na = 0;
          const float* xr = xt.base + xt.col(r);
          for (index_t j = 0; j < rows; ++j) {
            const float v = xr[xt.lane(j)];
            if (v != 0.0f) {
              xv[na] = v;
              yl[na] = yt.lane(j);
              ++na;
            }
          }
          if (na == 0) continue;
          for (offset_t k = lo; k < hi; ++k) {
            float* yc = yt.base + yt.col(colind[k]);
            if constexpr (kUniform) {
              for (int j = 0; j < na; ++j) yc[yl[j]] += xv[j];
            } else {
              const float v = vals[k];
              for (int j = 0; j < na; ++j) yc[yl[j]] += xv[j] * v;
            }
          }
        }
        // Fused epilogue over the still-resident tile (layout-blind:
        // every element of the tile's range is one output).
        std::uint64_t nz = 0;
        for (float* p = tile_lo; p != tile_hi; ++p) {
          const float v = epilogue(*p, scale, bias, clamp);
          *p = v;
          nz += v != 0.0f ? 1 : 0;
        }
        return nz;
      },
      grain_for_cost(ops_per_tile));
}

// Input sources of the fused gather kernel: for_each_input(r, edge)
// calls edge(input, weight) for every input of output r in ascending
// input order.  CsrRows streams a pre-transposed layer's row r;
// WindowRows computes the inputs of an eq. (1) window (uniform layers
// only, so the weight it passes is never read).
struct CsrRows {
  std::span<const offset_t> rowptr;
  std::span<const index_t> colind;
  std::span<const float> vals;

  template <class Edge>
  void for_each_input(index_t r, Edge&& edge) const {
    for (offset_t k = rowptr[r]; k < rowptr[r + 1]; ++k) {
      edge(colind[k], vals[k]);
    }
  }
};

struct WindowRows {
  const RadixWindows& win;

  template <class Edge>
  void for_each_input(index_t r, Edge&& edge) const {
    win.for_each_input(r, [&](std::size_t i) { edge(i, 1.0f); });
  }
};

// One J-lane block (lanes j0 .. j0+J-1 of a tile) of the fused gather
// kernel: J independent accumulator chains over output r's inputs,
// epilogue applied in registers.  J is a compile-time constant so the
// inner loops fully unroll; over a tiled input the J loads of one edge
// are one contiguous vector load.
template <bool kUniform, int J, PanelLayout kIn, PanelLayout kOut,
          class Source>
std::uint64_t gather_fused_block(const Tile<kIn, const float>& xt,
                                 const Tile<kOut, float>& yt, index_t j0,
                                 index_t n, const Source& src, float scale,
                                 float bias, float clamp) {
  const float* const xb = xt.base + xt.lane(j0);
  float* const yb = yt.base + yt.lane(j0);
  std::uint64_t nz = 0;
  for (index_t r = 0; r < n; ++r) {
    float acc[J] = {};
    src.for_each_input(r, [&](std::size_t c, float v) {
      const float* xc = xb + xt.col(c);
      if constexpr (kUniform) {
        for (int j = 0; j < J; ++j) acc[j] += xc[xt.lane(j)];
      } else {
        for (int j = 0; j < J; ++j) acc[j] += xc[xt.lane(j)] * v;
      }
    });
    float* yc = yb + yt.col(r);
    for (int j = 0; j < J; ++j) {
      const float v = epilogue(acc[j], scale, bias, clamp);
      yc[yt.lane(j)] = v;
      nz += v != 0.0f ? 1 : 0;
    }
  }
  return nz;
}

// Shared body of the fused gather kernels, over n outputs with `edges`
// inputs in total.  Each input is loaded once per kBatchTile batch
// rows, feeding kBatchTile independent accumulator chains (out-of-order
// execution hides the FP-add latency a single chain serializes on);
// partial tiles step down through 4/2/1-lane blocks rather than
// collapsing to the serial chain.  Every accumulator sums in ascending
// input-index order -- the same order the scatter arm adds
// contributions -- so both arms, and both input sources, are
// bit-identical.
template <bool kUniform, PanelLayout kIn, PanelLayout kOut, class Source>
std::uint64_t gather_fused_impl(const float* x, index_t batch, index_t m,
                                index_t n, std::size_t edges,
                                const Source& src, float scale, float* y,
                                float bias, float clamp) {
  const std::int64_t ntiles =
      batch == 0 ? 0 : (batch + kBatchTile - 1) / kBatchTile;
  const std::int64_t ops_per_tile =
      static_cast<std::int64_t>(kBatchTile) *
      static_cast<std::int64_t>(edges + n);
  return parallel_reduce_sum<std::uint64_t>(
      0, ntiles,
      [&](std::int64_t t) -> std::uint64_t {
        const index_t b0 = static_cast<index_t>(t) * kBatchTile;
        const index_t rows = std::min(batch - b0, kBatchTile);
        const Tile<kIn, const float> xt(x, b0, rows, m);
        const Tile<kOut, float> yt(y, b0, rows, n);
        const auto block = [&]<int J>(index_t j0) {
          return gather_fused_block<kUniform, J>(xt, yt, j0, n, src, scale,
                                                 bias, clamp);
        };
        index_t j = 0;
        std::uint64_t nz = 0;
        while (rows - j >= 8) {
          nz += block.template operator()<8>(j);
          j += 8;
        }
        if (rows - j >= 4) {
          nz += block.template operator()<4>(j);
          j += 4;
        }
        if (rows - j >= 2) {
          nz += block.template operator()<2>(j);
          j += 2;
        }
        if (rows - j == 1) nz += block.template operator()<1>(j);
        return nz;
      },
      grain_for_cost(ops_per_tile));
}

// The fused gather over a pre-transposed layer wt = W^T.
template <bool kUniform>
std::uint64_t csrT_fused(const float* x, index_t batch, index_t m,
                         CsrFloatView wt, float scale, float* y, float bias,
                         float clamp, PanelLayouts layouts) {
  RADIX_REQUIRE_DIM(wt.cols() == m,
                    "spmm_dense_csrT_fused: inner dim mismatch");
  const CsrRows src{wt.rowptr(), wt.colind(), wt.values()};
  return dispatch_layouts(layouts, [&]<PanelLayout kIn, PanelLayout kOut>() {
    return gather_fused_impl<kUniform, kIn, kOut>(
        x, batch, m, wt.rows(), wt.nnz(), src, scale, y, bias, clamp);
  });
}

}  // namespace

void spmm_dense_csr(const float* x, index_t batch, index_t m,
                    const Csr<float>& w, float* y) {
  RADIX_REQUIRE_DIM(w.rows() == m, "spmm_dense_csr: inner dim mismatch");
  const index_t n = w.cols();
  const auto& rowptr = w.rowptr();
  const auto& colind = w.colind();
  const auto& vals = w.values();
  // Each batch row touches up to nnz(W) entries.
  const std::int64_t grain =
      grain_for_cost(static_cast<std::int64_t>(w.nnz()));
  parallel_for(
      0, batch,
      [&](std::int64_t b) {
        const float* xb = x + static_cast<std::size_t>(b) * m;
        float* yb = y + static_cast<std::size_t>(b) * n;
        for (index_t r = 0; r < m; ++r) {
          const float xv = xb[r];
          if (xv == 0.0f) continue;  // activations are often sparse (ReLU)
          for (offset_t k = rowptr[r]; k < rowptr[r + 1]; ++k) {
            yb[colind[k]] += xv * vals[k];
          }
        }
      },
      grain);
}

void spmm_dense_csrT(const float* x, index_t batch, index_t n,
                     const Csr<float>& w, float* y) {
  RADIX_REQUIRE_DIM(w.cols() == n, "spmm_dense_csrT: inner dim mismatch");
  const index_t m = w.rows();
  const auto& rowptr = w.rowptr();
  const auto& colind = w.colind();
  const auto& vals = w.values();
  const std::int64_t grain =
      grain_for_cost(static_cast<std::int64_t>(w.nnz()));
  parallel_for(
      0, batch,
      [&](std::int64_t b) {
        const float* xb = x + static_cast<std::size_t>(b) * n;
        float* yb = y + static_cast<std::size_t>(b) * m;
        for (index_t r = 0; r < m; ++r) {
          float acc = yb[r];
          for (offset_t k = rowptr[r]; k < rowptr[r + 1]; ++k) {
            acc += xb[colind[k]] * vals[k];
          }
          yb[r] = acc;
        }
      },
      grain);
}

std::uint64_t spmm_dense_csr_fused(const float* x, index_t batch, index_t m,
                                   CsrFloatView w, float* y, float bias,
                                   float clamp, PanelLayouts layouts) {
  return dispatch_layouts(layouts, [&]<PanelLayout kIn, PanelLayout kOut>() {
    return csr_fused_impl<false, kIn, kOut>(x, batch, m, w, /*scale=*/1.0f,
                                            y, bias, clamp);
  });
}

std::uint64_t spmm_dense_csrT_fused(const float* x, index_t batch,
                                    index_t m, CsrFloatView wt, float* y,
                                    float bias, float clamp,
                                    PanelLayouts layouts) {
  return csrT_fused<false>(x, batch, m, wt, /*scale=*/1.0f, y, bias, clamp,
                           layouts);
}

std::uint64_t spmm_dense_csr_fused_uniform(const float* x, index_t batch,
                                           index_t m, CsrFloatView w,
                                           float uniform_weight, float* y,
                                           float bias, float clamp,
                                           PanelLayouts layouts) {
  return dispatch_layouts(layouts, [&]<PanelLayout kIn, PanelLayout kOut>() {
    return csr_fused_impl<true, kIn, kOut>(x, batch, m, w, uniform_weight,
                                           y, bias, clamp);
  });
}

std::uint64_t spmm_dense_csrT_fused_uniform(const float* x, index_t batch,
                                            index_t m, CsrFloatView wt,
                                            float uniform_weight, float* y,
                                            float bias, float clamp,
                                            PanelLayouts layouts) {
  return csrT_fused<true>(x, batch, m, wt, uniform_weight, y, bias, clamp,
                          layouts);
}

std::uint64_t spmm_dense_windows_fused_uniform(
    const float* x, index_t batch, index_t m, const RadixWindows& win,
    float uniform_weight, float* y, float bias, float clamp,
    PanelLayouts layouts) {
  RADIX_REQUIRE_DIM(win.modulus == m,
                    "spmm_dense_windows_fused_uniform: inner dim mismatch");
  const WindowRows src{win};
  const std::size_t edges =
      static_cast<std::size_t>(win.outputs()) * win.degree;
  return dispatch_layouts(layouts, [&]<PanelLayout kIn, PanelLayout kOut>() {
    return gather_fused_impl<true, kIn, kOut>(x, batch, m, win.outputs(),
                                              edges, src, uniform_weight, y,
                                              bias, clamp);
  });
}

std::uint64_t count_nonzeros(const float* v, std::size_t n) {
  return parallel_reduce_sum<std::uint64_t>(
      0, static_cast<std::int64_t>(n),
      [&](std::int64_t i) -> std::uint64_t {
        return v[i] != 0.0f ? 1 : 0;
      },
      grain_for_cost(1));
}

void spmv(const Csr<float>& w, const float* x, float* y) {
  const auto& rowptr = w.rowptr();
  const auto& colind = w.colind();
  const auto& vals = w.values();
  const std::int64_t avg_row_nnz =
      w.rows() > 0 ? static_cast<std::int64_t>(w.nnz() / w.rows()) : 0;
  parallel_for(
      0, w.rows(),
      [&](std::int64_t r) {
        float acc = 0.0f;
        for (offset_t k = rowptr[r]; k < rowptr[r + 1]; ++k) {
          acc += vals[k] * x[colind[k]];
        }
        y[r] = acc;
      },
      grain_for_cost(std::max<std::int64_t>(1, avg_row_nnz)));
}

void sddmm_pattern(const float* x, const float* dy, index_t batch,
                   index_t m, index_t n, const Csr<float>& w,
                   float* grad_values) {
  RADIX_REQUIRE_DIM(w.rows() == m && w.cols() == n,
                    "sddmm_pattern: shape mismatch");
  const auto& rowptr = w.rowptr();
  const auto& colind = w.colind();
  const std::int64_t avg_row_cost =
      m > 0 ? static_cast<std::int64_t>(w.nnz()) * batch / m : 0;
  // Parallel over pattern rows: each stored entry is written exactly once.
  parallel_for(
      0, m,
      [&](std::int64_t r) {
        for (offset_t k = rowptr[r]; k < rowptr[r + 1]; ++k) {
          const index_t c = colind[k];
          float acc = 0.0f;
          for (index_t b = 0; b < batch; ++b) {
            acc += x[static_cast<std::size_t>(b) * m + r] *
                   dy[static_cast<std::size_t>(b) * n + c];
          }
          grad_values[k] += acc;
        }
      },
      grain_for_cost(std::max<std::int64_t>(1, avg_row_cost)));
}

}  // namespace radix
