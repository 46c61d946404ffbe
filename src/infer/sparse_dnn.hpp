// Graph-Challenge-style sparse DNN inference engine.
//
// Executes the challenge's forward rule layer by layer over a dense
// batch of activations:
//     Y_{k+1} = min(clamp, ReLU(Y_k * W_k + b_k))
// where W_k are CSR float layers (e.g. from radix::gc::network or any
// weighted FNNT) and b_k is a per-layer scalar bias applied to every
// *active* output unit (the challenge adds bias before ReLU).
//
// Hot path
// --------
// The engine runs each layer through one *fused* SpMM kernel
// (sparse/spmm.hpp): bias, ReLU and clamp are applied in the same pass
// that produces the activations, the batch is processed in
// cache-resident tiles, and the kernel returns the nonzero-output count
// as a free byproduct.  That count drives the adaptive dispatch for the
// next layer:
//
//   * density <= kGatherDensityThreshold -> CSR *scatter* arm, which
//     skips a layer row's weights outright whenever the activation
//     feeding it is zero (post-ReLU activations are mostly zero deep in
//     a challenge stack);
//   * denser inputs -> row-*gather* arm, which accumulates each output
//     in registers over its inputs instead of scattering
//     read-modify-write traffic.  Where the gather arm finds a layer's
//     inputs is decided once per layer, on first use (or in prewarm),
//     and cached:
//       - an *implicit* layer -- uniform weights, and every output's
//         inputs exactly one eq. (1) window (sparse/radix_windows.hpp):
//         spec-built RadiX-Nets and the shuffled Graph-Challenge
//         networks -- keeps one start index per output, and the kernel
//         computes the inputs instead of loading them;
//       - every other layer (non-uniform weights, the D > 1 Kronecker
//         stage on a partial window, X-Nets, random CSR) keeps a
//         transposed copy W^T and streams its column indices.
//     Both record Kernel::kGather and are bit-identical.
//
// Activations live in a caller-provided InferenceWorkspace: two
// ping-pong panels sized once to batch x max_width (the input and every
// layer output), so a forward pass performs zero heap allocations in
// steady state (the first pass may build the gather cache).
//
// Panel layout is fixed by a layer's position in the stack, not by an
// option (PanelLayout, sparse/spmm.hpp):
//
//   * every layer reads a *tiled* panel, the only input layout the
//     fused kernels take: each kBatchTile-row tile stores a column's
//     lanes contiguously, so one edge is one 32-byte load in the gather
//     arm (two 4-float vector adds, see "The vector gather block" in
//     spmm.hpp) and one cache line in the scatter arm instead of
//     kBatchTile row-major lines.  forward copies the caller's
//     row-major batch into panel 1 in that layout, in parallel over
//     tiles, counting its nonzeros (the first layer's dispatch density)
//     in the same pass;
//   * the activations between layers stay tiled;
//   * the last layer writes row-major, so forward's result span is the
//     same [batch x output_width] row-major matrix as ever.
//
// Layout changes addresses only: a kernel writes the same bits in
// either output layout.
// Concurrent forward calls on one SparseDnn instance are safe as long
// as each caller brings its own workspace (the lazy gather cache is
// mutex-guarded).
//
// Layer storage
// -------------
// Internally every layer is a CsrFloatView; the kernels only ever see
// views.  A SparseDnn either owns its layers (the Csr<float>
// constructors -- views point into the owned vectors) or borrows them
// from external storage such as an mmap'd model artifact
// (store/artifact.hpp): the view constructor takes a
// shared_ptr<const void> keep-alive that pins the backing memory for
// the engine's lifetime.  Borrowed layers are never copied -- the fused
// kernels stream the mapped arrays directly; only the gather cache (a
// window table or a transpose per layer) is materialized on the heap.
// Activations, the tiled copy of the input batch included, live in the
// caller's workspace, never in the engine.  SparseDnn is move-only: views into owned layers stay valid across
// moves (vector heap buffers are stable) but would dangle in a copy.
//
// The engine reports the standard challenge throughput metric: edges
// processed per second = batch * sum_k nnz(W_k) / wall time.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <variant>
#include <vector>

#include "infer/workspace.hpp"
#include "sparse/csr.hpp"
#include "sparse/csr_view.hpp"
#include "sparse/radix_windows.hpp"

namespace radix::infer {

/// Activation-density crossover of the adaptive dispatch.  Below it the
/// scatter arm's zero-activation row skip saves more weight traffic than
/// the gather arm's sequential streaming recovers; above it the gather
/// arm wins.  Empirical on the bench host (see BENCH_pr2.json); the
/// exact value is uncritical within ~2x.
inline constexpr double kGatherDensityThreshold = 0.25;

/// What SparseDnn::prewarm should make ready ahead of the first
/// forward call (see prewarm below).
struct WorkspaceHint {
  /// Largest batch (rows) the caller expects to run; used to size the
  /// workspace panels.  0 skips panel sizing (gather cache only).
  index_t max_batch = 0;
  /// Workspace to pre-size; may be null when only the shared gather
  /// cache should be built (e.g. worker workspaces live elsewhere).
  InferenceWorkspace* workspace = nullptr;
};

struct InferenceStats {
  double wall_seconds = 0.0;
  std::uint64_t edges_processed = 0;  // batch * total nnz
  double edges_per_second = 0.0;
  std::uint64_t nonzero_outputs = 0;  // nnz of the final activation
};

class SparseDnn {
 public:
  /// Layers must chain (cols of k == rows of k+1); bias is per layer.
  SparseDnn(std::vector<Csr<float>> layers, std::vector<float> biases,
            float clamp = 0.0f /* 0 = no clamp */);

  /// Convenience: uniform bias across layers.
  SparseDnn(std::vector<Csr<float>> layers, float bias, float clamp = 0.0f);

  /// Borrowed-storage constructor: the layer views point into memory
  /// owned elsewhere (e.g. an mmap'd artifact); `storage` keeps that
  /// memory alive for the engine's lifetime.  The caller vouches for
  /// the views' CSR invariants (the artifact reader validates before
  /// constructing); shapes are still chain-checked here.
  SparseDnn(std::vector<CsrFloatView> layers, std::vector<float> biases,
            float clamp, std::shared_ptr<const void> storage);

  // Movable (the mutex member forbids =default: the moved-to instance
  // gets a fresh mutex; moving while another thread runs forward is as
  // undefined as for any container).  Views into owned layers_ survive
  // the move -- vector heap buffers are stable.
  SparseDnn(SparseDnn&& other) noexcept;
  SparseDnn& operator=(SparseDnn&& other) noexcept;
  SparseDnn(const SparseDnn&) = delete;
  SparseDnn& operator=(const SparseDnn&) = delete;

  index_t input_width() const;
  index_t output_width() const;
  std::size_t depth() const noexcept { return views_.size(); }
  std::uint64_t total_nnz() const noexcept;

  /// Per-layer weight view (borrowed or into the owned layers) and the
  /// epilogue parameters -- the surface the artifact writer serializes.
  CsrFloatView layer_view(std::size_t k) const { return views_[k]; }
  const std::vector<float>& biases() const noexcept { return biases_; }
  float clamp() const noexcept { return clamp_; }
  /// True when layer k stores one repeated weight value (Graph-Challenge
  /// layers); uniform_weight(k) is that value.
  bool layer_uniform(std::size_t k) const { return layer_uniform_[k] != 0; }
  float uniform_weight(std::size_t k) const { return uniform_weight_[k]; }

  /// Widest activation panel a forward pass writes: the max over the
  /// input width (forward stages the input batch, tiled, in a panel)
  /// and every layer's output width.
  index_t max_width() const noexcept;

  /// Pay every one-time cost up front so the *first* forward call is
  /// already in the zero-allocation steady state: eagerly builds the
  /// gather cache (shared by all workspaces: a window table for each
  /// implicit layer, found in one pass over the layer's CSR, and a
  /// transposed copy for every other layer; a large model builds the
  /// missing entries in parallel over layers), and, when the hint
  /// carries a workspace, sizes its panels for hint.max_batch rows and
  /// reserves its dispatch trace.  Serving engines call this from model
  /// registration so the first request never pays construction latency;
  /// thread-safe like forward.
  void prewarm(const WorkspaceHint& hint = {}) const;

  /// Zero-allocation forward: runs the full stack over the row-major
  /// [batch x input_width] batch at `input` using the workspace's
  /// ping-pong panels (tiled up to the last layer, see above).  The
  /// returned span of final activations [batch x output_width] is
  /// row-major, aliases workspace memory and stays valid until the
  /// workspace is next written.  The input batch is copied once, tiled,
  /// into a panel, so `input` must not alias the workspace.
  std::span<const float> forward(const float* input, index_t batch,
                                 InferenceWorkspace& workspace,
                                 InferenceStats* stats = nullptr) const;

  /// Convenience overload owning a transient workspace; validates the
  /// input size and copies the result out.  Use the span overload with a
  /// long-lived workspace on hot paths.
  std::vector<float> forward(const std::vector<float>& input, index_t batch,
                             InferenceStats* stats = nullptr) const;

  /// Rows of the final activation whose max entry is positive
  /// ("categories" in challenge terms).
  static std::vector<index_t> active_rows(std::span<const float> y,
                                          index_t batch, index_t width);

  /// True when the gather arm computes layer k's inputs from eq. (1)
  /// windows rather than reading a transposed copy (builds the layer's
  /// gather cache entry if prewarm has not).
  bool layer_implicit(std::size_t k) const;

 private:
  // A layer's gather-arm input source: a window table (implicit layer)
  // or the explicit transpose W^T.
  using GatherLayer = std::variant<RadixWindows, Csr<float>>;

  void validate_and_index();
  // Layer k's gather source, built from its CSR (no caching, no lock).
  std::unique_ptr<const GatherLayer> build_gather(std::size_t k) const;
  const GatherLayer& gather(std::size_t k) const;

  // Owned layers (empty when borrowing); views_ is the single source of
  // truth the hot path iterates -- one view per layer, pointing either
  // into layers_ or into storage_-pinned external memory.
  std::vector<Csr<float>> layers_;
  std::vector<CsrFloatView> views_;
  std::shared_ptr<const void> storage_;
  std::vector<float> biases_;
  float clamp_;
  // Graph-Challenge layers store one repeated weight; the constructor
  // detects that per layer so the kernels can drop the per-edge value
  // load + multiply (spmm_dense_csr*_fused_uniform).
  std::vector<char> layer_uniform_;
  std::vector<float> uniform_weight_;
  // Lazily built, cached gather sources, one per layer; the mutex
  // guards the slots, so concurrent forward calls on one instance (each
  // with its own workspace) stay safe.  gather(k) fills a slot under
  // it; prewarm builds outside it and publishes into empty slots only.
  mutable std::mutex gather_mutex_;
  mutable std::vector<std::unique_ptr<const GatherLayer>> gather_;
};

}  // namespace radix::infer
