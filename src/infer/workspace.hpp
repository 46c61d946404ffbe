// Reusable activation workspace for the sparse DNN inference engine.
//
// A forward pass needs exactly two activation panels of
// batch x max_width floats, where max_width (SparseDnn::max_width)
// covers the input width and every layer's output width: forward first
// copies the caller's input batch, tiled, into panel 1, then layer k
// reads one panel and writes the other, ping-ponging down the stack.
// InferenceWorkspace owns those panels and grows them monotonically,
// so a caller that reuses one workspace across repeated forward calls
// of the same shape performs zero heap allocations in steady state --
// the property the Graph-Challenge edges/second metric rewards.
//
// Every layer input is in the tiled layout of sparse/spmm.hpp
// (PanelLayout::kTiled), the only input layout of the fused kernels:
// the tile of L <= kBatchTile rows starting at row t0 stores (t0 + j, c)
// at t0 * width + c * L + j.  A partial last tile uses lane stride L, so
// a tiled panel is exactly batch x width floats -- the same capacity as
// a row-major one.  Only the last
// layer's panel, the one forward returns, is row-major.  The panels
// are 64-byte aligned, so a full tile's 8 lanes of one column sit in
// one cache line.
//
// The workspace also records, per layer of the last forward pass, which
// kernel the adaptive dispatch chose and the activation density that
// drove the choice (see sparse_dnn.hpp for the dispatch policy), and
// lets tests pin the dispatch to one arm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sparse/types.hpp"

namespace radix::infer {

/// Which SpMM arm executes a layer.
enum class Kernel : std::uint8_t {
  kAuto,     ///< let the per-layer density heuristic decide
  kScatter,  ///< CSR scatter with zero-activation row skip
  kGather,   ///< row-gather over the layer's cached gather source
};

/// Per-layer record of the last forward pass's dispatch decisions.
struct LayerDispatch {
  Kernel chosen = Kernel::kAuto;   ///< kScatter or kGather after a pass
  double input_density = 0.0;      ///< nonzero fraction of the layer input
  std::uint64_t nonzero_outputs = 0;  ///< epilogue byproduct
  /// Wall time of the layer's fused kernel (one steady-clock read per
  /// layer; the input copy before layer 0 is in no layer's time).
  std::uint64_t wall_ns = 0;
};

class InferenceWorkspace {
 public:
  InferenceWorkspace() = default;

  /// Ensure capacity for two batch x max_width panels (max_width covers
  /// the input width, see above).  Growth-only:
  /// shrinking requests keep the larger buffers, so alternating shapes
  /// never thrash the allocator.
  void reserve(index_t batch, index_t max_width);

  /// Floats per activation panel currently allocated.
  std::size_t capacity() const noexcept {
    return buf_[0].empty() ? 0 : buf_[0].size() - kLineFloats;
  }

  /// Pin every layer to one kernel arm (tests / benchmarking); kAuto
  /// restores the density heuristic.
  void force_kernel(Kernel k) noexcept { forced_ = k; }
  Kernel forced_kernel() const noexcept { return forced_; }

  /// Dispatch trace of the most recent forward pass (one entry per
  /// layer, front == first layer).
  const std::vector<LayerDispatch>& last_dispatch() const noexcept {
    return dispatch_;
  }

  /// Stable address of panel 0; tests use it to prove buffer reuse.
  const float* panel_data() const noexcept {
    return buf_[0].data() + line_offset(buf_[0].data());
  }

  /// True when p points into one of the activation panels (used to
  /// reject inputs that alias memory the kernels are about to rewrite).
  bool owns(const float* p) const noexcept {
    const auto q = reinterpret_cast<std::uintptr_t>(p);
    for (const auto& b : buf_) {
      const auto lo = reinterpret_cast<std::uintptr_t>(b.data());
      if (q >= lo && q < lo + b.size() * sizeof(float)) return true;
    }
    return false;
  }

 private:
  friend class SparseDnn;

  float* panel(int i) noexcept {
    return buf_[i].data() + line_offset(buf_[i].data());
  }

  // Each buffer carries kLineFloats spare floats so its panel can start
  // on a 64-byte boundary: a full tile's 8 lanes of one column (32 bytes
  // at a multiple of 32) then never straddle two cache lines.  Plain
  // allocation plus an offset, not an aligned allocator: with glibc 2.36
  // the aligned path kept freed panels resident across repeated
  // workspace lifetimes (+4 MB peak RSS in the challenge benchmark's
  // repeated set-up).
  static constexpr std::size_t kLineFloats = 64 / sizeof(float);
  static std::size_t line_offset(const float* p) noexcept {
    const auto misalign = reinterpret_cast<std::uintptr_t>(p) % 64;
    return misalign == 0 ? 0 : (64 - misalign) / sizeof(float);
  }

  std::vector<float> buf_[2];
  std::vector<LayerDispatch> dispatch_;
  Kernel forced_ = Kernel::kAuto;
};

}  // namespace radix::infer
