// Closed-form analytics of RadiX-Net topologies (Section III.B and the
// Appendix): densities (eq. (4)-(6)), exact path counts (Theorem 1,
// generalized to the divisor case of constraint 2), and size predictions.
// These are computed from the spec alone, without materializing the
// topology, and are cross-checked against measured values in the tests.
#pragma once

#include <cstdint>

#include "radixnet/spec.hpp"
#include "support/biguint.hpp"

namespace radix {

/// Exact density of the RadiX-Net topology, eq. (4):
///   Delta = (1/N') * (sum_i N_i D_{i-1} D_i) / (sum_i D_{i-1} D_i).
double exact_density(const RadixNetSpec& spec);

/// First-order approximation, eq. (5): Delta ~= mu / N'.
double approx_density_mu(const RadixNetSpec& spec);

/// d = log_mu N' (the "number of radices per system" scale of eq. (6)).
double radix_depth(const RadixNetSpec& spec);

/// Second approximation, eq. (6): Delta ~= mu^(1-d) for given mu, d.
double approx_density_mu_d(double mu, double d);

/// Exact number of paths between every input/output pair (the symmetry
/// constant of Theorem 1).  For specs whose systems all share product N'
/// this equals (N')^(M-1) * prod_{i=1..Mbar-1} D_i; when the last
/// system's product N'' properly divides N' the count generalizes to
/// (N')^(M-2) * N'' * prod D_i (each middle boundary contributes its
/// system's product).
BigUInt predicted_path_count(const RadixNetSpec& spec);

// The size counts below are exact: every product and sum is
// overflow-checked, and a count that does not fit 64 bits throws
// SpecError instead of wrapping.

/// Total edge count of the topology, without building it:
///   sum_i N_i * D_{i-1} * D_i * N'.
std::uint64_t predicted_edge_count(const RadixNetSpec& spec);

/// Total node count: sum_i D_i * N'.
std::uint64_t predicted_node_count(const RadixNetSpec& spec);

/// Approximate CSR storage in bytes for a pattern topology (8-byte row
/// pointers amortized + 4-byte column indices + 1-byte values).
std::uint64_t predicted_storage_bytes(const RadixNetSpec& spec);

/// Edge count of the dense DNN on the same layer widths.
std::uint64_t dense_edge_count(const RadixNetSpec& spec);

}  // namespace radix
