#include "sparse/spmm.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

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

  // Unrolled 4 edges per trip, as walk_window is (radix_windows.hpp):
  // a one-edge loop's speed hangs on where the linker places it.  The
  // edges still run in order, so sums are unchanged.
  template <class Edge>
  void for_each_input(index_t r, Edge&& edge) const {
    const offset_t end = rowptr[r + 1];
#pragma GCC unroll 4
    for (offset_t k = rowptr[r]; k < end; ++k) edge(colind[k], vals[k]);
  }
};

struct WindowRows {
  const index_t* start;
  index_t stride, degree, modulus;

  explicit WindowRows(const RadixWindows& win)
      : start(win.start.data()), stride(win.stride), degree(win.degree),
        modulus(win.modulus) {}

  template <class Edge>
  void for_each_input(index_t r, Edge&& edge) const {
    walk_window(start[r], stride, degree, modulus,
                [&](std::size_t i) { edge(i, 1.0f); });
  }
};

// One J-lane block (lanes j0 .. j0+J-1 of a tile) of the fused gather
// kernel: J independent accumulator chains over output r's inputs,
// epilogue applied in registers.  J is a compile-time constant so the
// inner loops fully unroll.  This scalar block serves a row-major input
// (the public kernel API) and the 2- and 1-lane remainders of a tiled
// one; full 8- and 4-lane blocks of a tiled input take
// gather_vector_block below.
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

// The native 4-float vector of the SSE2 baseline, and its lane-mask
// twin (GCC/Clang vector extension: no compile flag, no intrinsics).  A
// comparison yields all-ones lanes where it holds; a cast between the
// two reinterprets bits.
typedef float f32x4 __attribute__((vector_size(16)));
typedef std::int32_t i32x4 __attribute__((vector_size(16)));
typedef std::uint32_t u32x4 __attribute__((vector_size(16)));

inline f32x4 splat(float v) { return f32x4{v, v, v, v}; }

// Unaligned 16-byte load/store: a partial tile's lane runs sit at
// 4 * L-byte column strides, so alignment is not guaranteed.
inline f32x4 load4(const float* p) {
  f32x4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void store4(float* p, f32x4 v) { std::memcpy(p, &v, sizeof(v)); }

// epilogue() on four lanes, bit for bit: ReLU clears exactly the lanes
// where v < 0 (so -0.0 and NaN pass through, as the scalar if does), and
// the ceiling selects hi where v > hi, with hi = +inf when there is no
// clamp.
inline f32x4 epilogue4(f32x4 v, f32x4 scale, f32x4 bias, f32x4 hi) {
  v = v * scale + bias;
  const f32x4 zero = {};
  v = (f32x4)((i32x4)v & ~(v < zero));
  const i32x4 over = v > hi;
  return (f32x4)(((i32x4)v & ~over) | ((i32x4)hi & over));
}

// The fused gather block over a tiled input for J in {8, 4}: J/4
// vector accumulators stay in registers from the first edge through
// the epilogue, the nonzero count is a per-lane compare-and-subtract,
// and a tiled output takes each 4 lanes as one store (a row-major one,
// the last layer's, is written lane by lane).  Every lane sums in the
// scalar block's order with the same IEEE operations, so the two blocks
// are bit-identical.
template <bool kUniform, int J, PanelLayout kOut, class Source>
std::uint64_t gather_vector_block(const Tile<PanelLayout::kTiled,
                                             const float>& xt,
                                  const Tile<kOut, float>& yt, index_t j0,
                                  index_t n, const Source& src, float scale,
                                  float bias, float clamp) {
  static_assert(J % 4 == 0);
  constexpr int kVecs = J / 4;
  // A local copy of the source keeps its fields in registers: the
  // output stores may alias anything the source points into.
  const Source s = src;
  const float* const xb = xt.base + xt.lane(j0);
  float* const yb = yt.base + yt.lane(j0);
  const f32x4 vscale = splat(scale), vbias = splat(bias);
  const f32x4 vhi =
      splat(clamp > 0.0f ? clamp : std::numeric_limits<float>::infinity());
  const f32x4 zero = {};
  u32x4 nz = {};
  for (index_t r = 0; r < n; ++r) {
    f32x4 acc[kVecs] = {};
    s.for_each_input(r, [&](std::size_t c, float v) {
      const float* xc = xb + xt.col(c);
      if constexpr (kUniform) {
        for (int q = 0; q < kVecs; ++q) acc[q] += load4(xc + 4 * q);
      } else {
        const f32x4 w = splat(v);
        for (int q = 0; q < kVecs; ++q) acc[q] += load4(xc + 4 * q) * w;
      }
    });
    float* yc = yb + yt.col(r);
    for (int q = 0; q < kVecs; ++q) {
      const f32x4 y = epilogue4(acc[q], vscale, vbias, vhi);
      nz -= (u32x4)(y != zero);
      if constexpr (kOut == PanelLayout::kTiled) {
        store4(yc + 4 * q, y);
      } else {
        for (int j = 0; j < 4; ++j) yc[yt.lane(4 * q + j)] = y[j];
      }
    }
  }
  return std::uint64_t{nz[0]} + nz[1] + nz[2] + nz[3];
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
          if constexpr (kIn == PanelLayout::kTiled && J % 4 == 0) {
            return gather_vector_block<kUniform, J>(xt, yt, j0, n, src,
                                                    scale, bias, clamp);
          } else {
            return gather_fused_block<kUniform, J>(xt, yt, j0, n, src,
                                                   scale, bias, clamp);
          }
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
  const WindowRows src(win);
  const std::size_t edges =
      static_cast<std::size_t>(win.outputs()) * win.degree;
  return dispatch_layouts(layouts, [&]<PanelLayout kIn, PanelLayout kOut>() {
    return gather_fused_impl<true, kIn, kOut>(x, batch, m, win.outputs(),
                                              edges, src, uniform_weight, y,
                                              bias, clamp);
  });
}

std::uint64_t tile_panel(const float* x, index_t batch, index_t width,
                         float* out) {
  const std::int64_t ntiles =
      batch == 0 ? 0 : (batch + kBatchTile - 1) / kBatchTile;
  return parallel_reduce_sum<std::uint64_t>(
      0, ntiles,
      [&](std::int64_t t) -> std::uint64_t {
        const index_t b0 = static_cast<index_t>(t) * kBatchTile;
        const index_t rows = std::min(batch - b0, kBatchTile);
        const Tile<PanelLayout::kRowMajor, const float> xt(x, b0, rows,
                                                           width);
        const Tile<PanelLayout::kTiled, float> yt(out, b0, rows, width);
        std::uint64_t nz = 0;
        for (index_t c = 0; c < width; ++c) {
          const float* xc = xt.base + xt.col(c);
          float* yc = yt.base + yt.col(c);
          for (index_t j = 0; j < rows; ++j) {
            const float v = xc[xt.lane(j)];
            yc[yt.lane(j)] = v;
            nz += v != 0.0f ? 1 : 0;
          }
        }
        return nz;
      },
      grain_for_cost(static_cast<std::int64_t>(kBatchTile) * width));
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
