// Sparse x dense and dense x sparse multiply kernels.
//
// These are the inner loops of both the inference engine (infer/) and the
// sparse NN layers (nn/):
//
//   spmm_dense_csr:  Y[b x n] = X[b x m] * W[m x n]   (W sparse)
//     -- forward pass of a sparse linear layer: iterate W's rows r,
//        scatter X[:, r] * w(r, c) into Y[:, c].  Parallel over batch.
//
//   spmm_dense_csrT: Y[b x m] = X[b x n] * W^T         (W sparse, m x n)
//     -- backward pass (dX = dY * W^T) without materializing W^T:
//        gather along W's rows.
//
// Dense operands are row-major float arrays (batch-major), matching
// nn::Tensor's layout.
//
// Fused variants
// --------------
// The *_fused kernels own the whole per-layer pipeline of the inference
// engine: they zero / overwrite the output panel themselves, apply the
// Graph-Challenge epilogue  y = min(clamp, ReLU(y + bias))  in the same
// pass that produces y (while the tile is still cache-resident, instead
// of a second full read-modify-write sweep of the activation matrix),
// and return the number of nonzero outputs as a free byproduct -- the
// activation-density signal the engine's adaptive kernel dispatch and
// InferenceStats consume.  Both accumulate contributions to each output
// in ascending input-index order, so the scatter and gather forms are
// bit-identical to each other and to a straight-line reference.
//
// Both fused kernels process the batch in tiles sized so a tile's input
// and output panels stay cache-resident while the weight matrix streams
// through exactly once per tile (instead of once per batch row).
//
// Panel layouts
// -------------
// A fused kernel reads and writes its activation panels in one of two
// layouts (PanelLayout), chosen per call for input and output
// separately.  kRowMajor is the batch-major layout above.  kTiled
// interleaves each batch tile: the tile of L = min(kBatchTile,
// batch - t0) rows starting at row t0 (a multiple of kBatchTile) stores
// element (t0 + j, c) at
//
//     t0 * width + c * L + j
//
// so a full tile's 8 lanes of one column are one contiguous 32-byte run:
// one vector load per edge in the gather arm, one cache line per
// scattered edge in the scatter arm (row-major touches 8).  A partial
// last tile uses lane stride L, so a tiled panel is exactly
// batch x width floats, occupies the same [t0*width, (t0+L)*width)
// range per tile as its row-major twin, and is the same size.  Layout
// changes only addresses: each output lane still sums in ascending
// input-index order, so every layout pair is bit-identical to the
// row-major call.  tile_panel copies a row-major panel into the tiled
// layout; SparseDnn::forward uses it once for the input batch, so every
// layer reads a tiled panel, and keeps the activations between layers
// tiled (see infer/sparse_dnn.hpp).
//
// The vector gather block
// -----------------------
// Over a tiled input the gather arm runs each full 8- or 4-lane block
// of a tile in J/4 native 4-float vectors (GCC/Clang vector_size(16):
// the SSE2 baseline, no compile flag, no intrinsics).  They stay in
// registers from the first edge to the store: one vector add (weighted:
// multiply and add) per 4 lanes per edge, then the epilogue as
// v * scale + bias, ReLU as compare + and-not (so -0.0 and NaN pass
// exactly as the scalar `if (v < 0)` lets them), the ceiling as
// compare + select against clamp, or +inf when clamp <= 0, and the
// nonzero count as compare-and-subtract.  A tiled output takes each 4
// lanes as one store; a row-major one (the last layer's) is written
// lane by lane.  Each lane performs the scalar block's IEEE operations
// in the same order, so the two are bit-identical.  The scalar block
// remains for the 2- and 1-lane remainders of a partial tile and for a
// row-major input.
//
// The fused kernels take the weight matrix as a CsrFloatView (implicitly
// constructible from Csr<float>, so owning call sites are unchanged):
// the inner loops only ever stream the three CSR arrays, so they run
// equally over heap-owned layers and mmap'd artifact sections -- the
// zero-copy load path of store/artifact.hpp.
//
// Gather input sources
// --------------------
// The fused gather kernel has one body, templated on where each
// output's inputs come from (next to the PanelLayout template): the
// rows of a pre-transposed CSR layer, or -- for a uniform RadiX-Net
// layer -- the eq. (1) window of sparse/radix_windows.hpp, whose inputs
// are computed from one start index per output instead of loaded from
// a column-index array.  A wrapped window is walked low run first, so
// both sources sum every output in ascending input order and the
// implicit kernel is bit-identical to the explicit uniform gather.
// It drops the 4-byte column-index load of every edge, and with it the
// index-to-address dependency in front of every activation load.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sparse/csr.hpp"
#include "sparse/csr_view.hpp"
#include "sparse/radix_windows.hpp"

namespace radix {

/// Batch-tile width of the fused kernels.  Each weight-matrix row entry
/// (colind + value) is loaded once per tile of kBatchTile batch rows
/// instead of once per batch row, and the tile's kBatchTile accumulator
/// chains are independent, so out-of-order execution hides the FP-add
/// latency that serializes a one-row-at-a-time kernel.  It is also the
/// tile height of the kTiled panel layout.  8 was measured fastest on
/// the bench host (4 leaves add-latency unhidden, 16 spills
/// accumulators).
inline constexpr index_t kBatchTile = 8;

/// Memory layout of a dense [batch x width] activation panel (see
/// "Panel layouts" above).
enum class PanelLayout : std::uint8_t {
  kRowMajor,  ///< (b, c) at b * width + c
  kTiled,     ///< (t0 + j, c) at t0 * width + c * L + j, per batch tile
};

/// Layouts of a fused kernel's input and output panels.
struct PanelLayouts {
  PanelLayout in = PanelLayout::kRowMajor;
  PanelLayout out = PanelLayout::kRowMajor;
};

/// y[b*n + c] += sum_r x[b*m + r] * w(r, c);  y must be zero-initialized
/// by the caller (or hold an accumuland).
void spmm_dense_csr(const float* x, index_t batch, index_t m,
                    const Csr<float>& w, float* y);

/// y[b*m + r] += sum_c x[b*n + c] * w(r, c)   -- multiply by W^T.
void spmm_dense_csrT(const float* x, index_t batch, index_t n,
                     const Csr<float>& w, float* y);

/// Fused scatter kernel: y[b x n] = epilogue(X[b x m] * W[m x n]) with
/// epilogue(v) = min(clamp, max(0, v + bias)); clamp <= 0 disables the
/// ceiling.  y is written unconditionally (no zero-init required) and
/// rows of W whose activation x[b*m + r] is zero are skipped entirely,
/// which is what makes this arm win on sparse (post-ReLU) activations.
/// Returns the number of nonzero outputs.  `layouts` picks the panel
/// layouts of x and y (row-major by default).
std::uint64_t spmm_dense_csr_fused(const float* x, index_t batch, index_t m,
                                   CsrFloatView w, float* y,
                                   float bias, float clamp,
                                   PanelLayouts layouts = {});

/// Fused gather kernel over a pre-transposed layer: given wt = W^T
/// (n x m), computes y[b x n] = epilogue(X[b x m] * W) by accumulating
/// each output in registers along wt's rows (pure sequential streaming,
/// no scatter read-modify-write), then applies the same epilogue before
/// the single write.  Wins once activations are dense.  Returns the
/// number of nonzero outputs.
std::uint64_t spmm_dense_csrT_fused(const float* x, index_t batch,
                                    index_t m, CsrFloatView wt,
                                    float* y, float bias, float clamp,
                                    PanelLayouts layouts = {});

/// Uniform-weight specializations: Graph-Challenge layers store one
/// repeated nonzero value (1/16 at in-degree 32), so the inner loop can
/// accumulate plain activation sums -- no per-edge value load, no
/// per-edge multiply -- and fold the weight into the epilogue as
/// y = min(clamp, max(0, sum * uniform_weight + bias)).  The scatter and
/// gather forms accumulate in the same order and stay bit-identical to
/// each other (not to the general kernels: (sum x) * w rounds once where
/// sum(x * w) rounds per term).
std::uint64_t spmm_dense_csr_fused_uniform(const float* x, index_t batch,
                                           index_t m, CsrFloatView w,
                                           float uniform_weight, float* y,
                                           float bias, float clamp,
                                           PanelLayouts layouts = {});

std::uint64_t spmm_dense_csrT_fused_uniform(const float* x, index_t batch,
                                            index_t m, CsrFloatView wt,
                                            float uniform_weight, float* y,
                                            float bias, float clamp,
                                            PanelLayouts layouts = {});

/// The uniform fused gather over an implicit layer: output c sums the
/// inputs of window c of `win` (see "Gather input sources" above).
/// Bit-identical to spmm_dense_csrT_fused_uniform over the transpose of
/// the layer the windows were found in.
std::uint64_t spmm_dense_windows_fused_uniform(
    const float* x, index_t batch, index_t m, const RadixWindows& win,
    float uniform_weight, float* y, float bias, float clamp,
    PanelLayouts layouts = {});

/// Copies the row-major [batch x width] panel x into `out` in the tiled
/// layout, in parallel over batch tiles, and returns x's nonzero count
/// from the same pass.  x and out must not overlap.
std::uint64_t tile_panel(const float* x, index_t batch, index_t width,
                         float* out);

/// Sparse matrix times dense vector: y[r] = sum_c w(r,c) * x[c].
void spmv(const Csr<float>& w, const float* x, float* y);

/// Accumulate the outer-product gradient restricted to W's pattern:
/// grad(r, c) += sum_b x[b*m + r] * dy[b*n + c] for every stored (r, c).
/// `grad` must have the same pattern as `w` (values are written into the
/// parallel value array `grad_values`).
void sddmm_pattern(const float* x, const float* dy, index_t batch,
                   index_t m, index_t n, const Csr<float>& w,
                   float* grad_values);

}  // namespace radix
