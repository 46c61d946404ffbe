#include "infer/sparse_dnn.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "sparse/spmm.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/timer.hpp"

namespace radix::infer {

namespace {

// Edge count from which prewarm builds the gather entries in parallel.
// A calling thread's first fork starts its thread team, which a small
// model does not earn back: a 1024-wide, 12-layer model (393k edges)
// prewarms in ~1 ms serially, and forking there made radix-served's
// boot slower, not faster.  A 4096-wide, 24-layer one (2.2M edges)
// prewarmed 2.5x faster forked on 4 cores.
constexpr std::uint64_t kParallelPrewarmEdges = std::uint64_t{1} << 21;

}  // namespace

SparseDnn::SparseDnn(std::vector<Csr<float>> layers,
                     std::vector<float> biases, float clamp)
    : layers_(std::move(layers)), biases_(std::move(biases)),
      clamp_(clamp) {
  views_.assign(layers_.begin(), layers_.end());
  validate_and_index();
}

SparseDnn::SparseDnn(std::vector<Csr<float>> layers, float bias, float clamp)
    : layers_(std::move(layers)), clamp_(clamp) {
  // Not a delegating constructor: evaluating layers.size() in the same
  // argument list that moves `layers` is indeterminately sequenced.
  views_.assign(layers_.begin(), layers_.end());
  biases_.assign(layers_.size(), bias);
  validate_and_index();
}

SparseDnn::SparseDnn(std::vector<CsrFloatView> layers,
                     std::vector<float> biases, float clamp,
                     std::shared_ptr<const void> storage)
    : views_(std::move(layers)), storage_(std::move(storage)),
      biases_(std::move(biases)), clamp_(clamp) {
  validate_and_index();
}

SparseDnn::SparseDnn(SparseDnn&& other) noexcept
    : layers_(std::move(other.layers_)),
      views_(std::move(other.views_)),
      storage_(std::move(other.storage_)),
      biases_(std::move(other.biases_)),
      clamp_(other.clamp_),
      layer_uniform_(std::move(other.layer_uniform_)),
      uniform_weight_(std::move(other.uniform_weight_)),
      gather_(std::move(other.gather_)) {}

SparseDnn& SparseDnn::operator=(SparseDnn&& other) noexcept {
  if (this == &other) return *this;
  layers_ = std::move(other.layers_);
  views_ = std::move(other.views_);
  storage_ = std::move(other.storage_);
  biases_ = std::move(other.biases_);
  clamp_ = other.clamp_;
  layer_uniform_ = std::move(other.layer_uniform_);
  uniform_weight_ = std::move(other.uniform_weight_);
  gather_ = std::move(other.gather_);
  return *this;
}

void SparseDnn::validate_and_index() {
  RADIX_REQUIRE(!views_.empty(), "SparseDnn: need at least one layer");
  RADIX_REQUIRE(biases_.size() == views_.size(),
                "SparseDnn: one bias per layer required");
  for (std::size_t i = 0; i + 1 < views_.size(); ++i) {
    RADIX_REQUIRE_DIM(views_[i].cols() == views_[i + 1].rows(),
                      "SparseDnn: layer shapes do not chain");
  }
  gather_.resize(views_.size());
  layer_uniform_.reserve(views_.size());
  uniform_weight_.reserve(views_.size());
  for (const auto& l : views_) {
    const auto vals = l.values();
    const bool uniform =
        std::all_of(vals.begin(), vals.end(),
                    [&](float v) { return v == vals.front(); });
    layer_uniform_.push_back(uniform ? 1 : 0);
    uniform_weight_.push_back(uniform && !vals.empty() ? vals.front()
                                                       : 0.0f);
  }
}

index_t SparseDnn::input_width() const { return views_.front().rows(); }
index_t SparseDnn::output_width() const { return views_.back().cols(); }

std::uint64_t SparseDnn::total_nnz() const noexcept {
  std::uint64_t n = 0;
  for (const auto& l : views_) n += l.nnz();
  return n;
}

index_t SparseDnn::max_width() const noexcept {
  // forward copies the input batch into a panel (tiled), so the input
  // width counts next to every layer's output width.
  index_t w = input_width();
  for (const auto& l : views_) w = std::max(w, l.cols());
  return w;
}

std::unique_ptr<const SparseDnn::GatherLayer> SparseDnn::build_gather(
    std::size_t k) const {
  std::optional<RadixWindows> win;
  if (layer_uniform_[k] != 0) win = find_radix_windows(views_[k]);
  return win ? std::make_unique<const GatherLayer>(std::move(*win))
             : std::make_unique<const GatherLayer>(views_[k].transpose());
}

const SparseDnn::GatherLayer& SparseDnn::gather(std::size_t k) const {
  // The lock only serializes cache fills; once built an entry is
  // immutable, so returning the reference after unlock is safe.
  std::scoped_lock lock(gather_mutex_);
  auto& slot = gather_[k];
  if (!slot) slot = build_gather(k);
  return *slot;
}

bool SparseDnn::layer_implicit(std::size_t k) const {
  return std::holds_alternative<RadixWindows>(gather(k));
}

void SparseDnn::prewarm(const WorkspaceHint& hint) const {
  // The missing entries are built outside the cache mutex, in parallel
  // for a large model, and each is published only into a still-empty
  // slot, so prewarming may race concurrent forward calls safely (a
  // slot filled meanwhile keeps its entry, and the copy built here is
  // dropped).
  std::vector<std::size_t> missing;
  {
    std::scoped_lock lock(gather_mutex_);
    for (std::size_t k = 0; k < gather_.size(); ++k) {
      if (!gather_[k]) missing.push_back(k);
    }
  }
  std::vector<std::unique_ptr<const GatherLayer>> built(missing.size());
  const auto n = static_cast<std::int64_t>(missing.size());
  parallel_for_rethrow(
      0, n, [&](std::int64_t i) { built[i] = build_gather(missing[i]); },
      total_nnz() >= kParallelPrewarmEdges ? 1 : n + 1);
  {
    std::scoped_lock lock(gather_mutex_);
    for (std::size_t i = 0; i < missing.size(); ++i) {
      if (!gather_[missing[i]]) gather_[missing[i]] = std::move(built[i]);
    }
  }
  if (hint.workspace != nullptr) {
    hint.workspace->reserve(hint.max_batch, max_width());
    // forward() reserves the dispatch trace lazily; doing it here keeps
    // the first post-prewarm pass allocation-free.
    if (hint.workspace->dispatch_.capacity() < views_.size()) {
      hint.workspace->dispatch_.reserve(views_.size());
    }
  }
}

std::span<const float> SparseDnn::forward(const float* input, index_t batch,
                                          InferenceWorkspace& workspace,
                                          InferenceStats* stats) const {
  Timer timer;
  // Layer 0 reads `input` while the kernels rewrite the panels -- and
  // reserve() below may even reallocate them -- so an input aliasing
  // the workspace (e.g. a span returned by a previous forward) is
  // unsupported; copy it out first.
  RADIX_REQUIRE(!workspace.owns(input),
                "SparseDnn::forward: input must not alias the workspace "
                "panels");
  workspace.reserve(batch, max_width());
  workspace.dispatch_.clear();
  if (workspace.dispatch_.capacity() < views_.size()) {
    workspace.dispatch_.reserve(views_.size());
  }

  // Every layer reads a tiled panel (sparse/spmm.hpp): the caller's
  // row-major batch is copied tiled into panel 1, which layer 0 reads
  // while it writes panel 0.  The input's nonzero count, from the same
  // pass, seeds the density signal for the first layer's dispatch;
  // every later layer gets it free from the fused epilogue.
  std::uint64_t nz =
      tile_panel(input, batch, input_width(), workspace.panel(1));
  const float* cur = workspace.panel(1);

  // The activations between layers stay tiled, and the last layer
  // writes row-major for the caller.
  int out_panel = 0;
  auto layer_start = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < views_.size(); ++k) {
    const CsrFloatView w = views_[k];
    const std::size_t in_elems =
        static_cast<std::size_t>(batch) * w.rows();
    const double density =
        in_elems > 0 ? static_cast<double>(nz) /
                           static_cast<double>(in_elems)
                     : 0.0;
    Kernel choice = workspace.forced_;
    if (choice == Kernel::kAuto) {
      choice = density <= kGatherDensityThreshold ? Kernel::kScatter
                                                  : Kernel::kGather;
    }
    const PanelLayouts layouts{
        .in = PanelLayout::kTiled,
        .out = k + 1 == views_.size() ? PanelLayout::kRowMajor
                                      : PanelLayout::kTiled};
    float* dst = workspace.panel(out_panel);
    const bool uniform = layer_uniform_[k] != 0;
    if (choice == Kernel::kScatter) {
      nz = uniform ? spmm_dense_csr_fused_uniform(cur, batch, w.rows(), w,
                                                  uniform_weight_[k], dst,
                                                  biases_[k], clamp_, layouts)
                   : spmm_dense_csr_fused(cur, batch, w.rows(), w, dst,
                                          biases_[k], clamp_, layouts);
    } else if (const GatherLayer& g = gather(k);
               const auto* win = std::get_if<RadixWindows>(&g)) {
      nz = spmm_dense_windows_fused_uniform(cur, batch, w.rows(), *win,
                                            uniform_weight_[k], dst,
                                            biases_[k], clamp_, layouts);
    } else {
      const Csr<float>& wt = std::get<Csr<float>>(g);
      nz = uniform ? spmm_dense_csrT_fused_uniform(cur, batch, w.rows(), wt,
                                                   uniform_weight_[k], dst,
                                                   biases_[k], clamp_,
                                                   layouts)
                   : spmm_dense_csrT_fused(cur, batch, w.rows(), wt, dst,
                                           biases_[k], clamp_, layouts);
    }
    const auto layer_end = std::chrono::steady_clock::now();
    workspace.dispatch_.push_back(
        {choice, density, nz,
         static_cast<std::uint64_t>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 layer_end - layer_start)
                 .count())});
    layer_start = layer_end;
    cur = dst;
    out_panel ^= 1;
  }

  if (stats != nullptr) {
    stats->wall_seconds = timer.seconds();
    stats->edges_processed = static_cast<std::uint64_t>(batch) * total_nnz();
    stats->edges_per_second =
        stats->wall_seconds > 0.0
            ? static_cast<double>(stats->edges_processed) /
                  stats->wall_seconds
            : 0.0;
    stats->nonzero_outputs = nz;  // fused-epilogue byproduct, no extra pass
  }
  return {cur, static_cast<std::size_t>(batch) * output_width()};
}

std::vector<float> SparseDnn::forward(const std::vector<float>& input,
                                      index_t batch,
                                      InferenceStats* stats) const {
  RADIX_REQUIRE_DIM(
      input.size() ==
          static_cast<std::size_t>(batch) * views_.front().rows(),
      "SparseDnn::forward: input size mismatch");
  InferenceWorkspace workspace;
  const auto y = forward(input.data(), batch, workspace, stats);
  return std::vector<float>(y.begin(), y.end());
}

std::vector<index_t> SparseDnn::active_rows(std::span<const float> y,
                                            index_t batch, index_t width) {
  RADIX_REQUIRE_DIM(y.size() == static_cast<std::size_t>(batch) * width,
                    "SparseDnn::active_rows: size mismatch");
  std::vector<index_t> rows;
  for (index_t b = 0; b < batch; ++b) {
    const float* row = y.data() + static_cast<std::size_t>(b) * width;
    for (index_t c = 0; c < width; ++c) {
      if (row[c] > 0.0f) {
        rows.push_back(b);
        break;
      }
    }
  }
  return rows;
}

}  // namespace radix::infer
