// RadiX-Net specification (Section III.A).
//
// A RadiX-Net topology is uniquely defined by
//   * N* = (N^1, ..., N^M): an ordered set of mixed-radix numeral systems
//     subject to (1) a common product N' for systems 1..M-1 and (2) the
//     last system's product dividing N';
//   * D = (D_0, ..., D_Mbar): positive integers, one per node layer of
//     the concatenated ("extended") mixed-radix topology, where
//     Mbar = sum_i L_i is the total radix count.
//
// The paper additionally asks D_i << N'; we treat that as advisory (it
// matters for the sparsity claim, not for well-formedness) and expose
// max(D)/N' via dominance_ratio() so callers can check it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "radixnet/mixed_radix.hpp"

namespace radix {

class RadixNetSpec {
 public:
  /// Validates the RadiX-Net constraints; throws SpecError on violation.
  RadixNetSpec(std::vector<MixedRadix> systems, std::vector<std::uint32_t> d);

  /// Spec with all D_i = 1 (an "extended mixed-radix topology", Appendix).
  static RadixNetSpec extended(std::vector<MixedRadix> systems);

  const std::vector<MixedRadix>& systems() const noexcept { return systems_; }
  const std::vector<std::uint32_t>& dense_widths() const noexcept {
    return d_;
  }

  /// The shared product N' of systems 1..M-1 (or of the sole system when
  /// M == 1).
  std::uint64_t n_prime() const noexcept { return n_prime_; }

  /// Mbar: total radix count == number of edge layers of the topology.
  std::size_t total_radices() const noexcept;

  /// Flattened radix list (N_1, ..., N_Mbar) used by eq. (4).
  std::vector<std::uint32_t> flattened_radices() const;

  /// Node-layer widths of the resulting RadiX-Net: D_i * N'.  Throws
  /// SpecError if a width does not fit 64 bits.
  std::vector<std::uint64_t> layer_widths() const;

  /// max(D_i) / N' -- the paper asks this to be << 1.
  double dominance_ratio() const noexcept;

  /// Mean and variance of the flattened radices (mu of eq. (5)).
  double mean_radix() const noexcept;
  double radix_variance() const noexcept;

  std::string to_string() const;

 private:
  std::vector<MixedRadix> systems_;
  std::vector<std::uint32_t> d_;
  std::uint64_t n_prime_ = 0;
};

}  // namespace radix
