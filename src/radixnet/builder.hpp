// The RadiX-Net generator (Fig 6 of the paper).
//
// Fig 6 builds a RadiX-Net in two stages:
//   1. Extended mixed-radix (EMR) topology: concatenate the mixed-radix
//      topologies G_1, ..., G_M (each laid out on N' nodes; the last
//      system's product may be a proper divisor of N', Section III.A
//      bullet 2), identifying outputs of G_i with inputs of G_{i+1}
//      label-wise.  This yields W = (W_1, ..., W_Mbar) with each
//      W_i = sum_{j<N_i} P^{j*pv} (eq. (1)), the place value pv
//      restarting at 1 with every system.
//   2. Kronecker stage (eq. (3)): replace each W_i with
//      1_{D_{i-1} x D_i} (x) W_i.
//
// radix_net_layers runs both stages in one pass per layer: it writes
// W_i = 1_{D_{i-1} x D_i} (x) sum_j P^{j*pv} straight into its final
// CSR, each row's columns once and in ascending order, from the sorted
// offset set split at the wrap (no per-edge modulo).  An optional column
// shuffle W_i <- W_i * Pi_i is applied in the same pass in linear time:
// the emitter inverts the permutation, walks the new column ids in
// ascending order and appends each to its input rows, so every row
// comes out sorted with no sort and no SpGEMM.  Layers are built in
// parallel.  build_radix_net, build_extended_mixed_radix, gc::network
// and the spec-only artifact loader all generate through it; the
// stage-wise primitives (mrt_submatrix, kron_ones, spgemm_bool,
// permutation_matrix) stay in the library and are the tests' reference.
#pragma once

#include <span>
#include <vector>

#include "graph/fnnt.hpp"
#include "radixnet/spec.hpp"

namespace radix {

/// The spec's edge layers with every stored value of layer i equal to
/// values[i] (values.size() must be Mbar).  When `shuffles` is not
/// empty it holds one permutation per layer, and layer i's column c is
/// renamed shuffles[i][c] -- the product W_i * permutation_matrix
/// (shuffles[i]).  Throws SpecError when a layer width does not fit
/// index_t or a shuffle is not a permutation of the layer's columns.
template <typename T>
std::vector<Csr<T>> radix_net_layers(
    const RadixNetSpec& spec, std::span<const T> values,
    std::span<const std::vector<index_t>> shuffles = {});

/// Stage 1 only: the extended mixed-radix topology of the spec's systems
/// (equivalent to building with all D_i = 1).
Fnnt build_extended_mixed_radix(const RadixNetSpec& spec);

/// Full construction: the RadiX-Net topology of the spec (Fig 6).
Fnnt build_radix_net(const RadixNetSpec& spec);

/// Convenience overload: build from raw radix lists and D.
Fnnt build_radix_net(const std::vector<std::vector<std::uint32_t>>& systems,
                     const std::vector<std::uint32_t>& d);

}  // namespace radix
