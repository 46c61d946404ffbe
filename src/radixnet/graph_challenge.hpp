// Graph-Challenge-style network presets.
//
// The MIT/IEEE/Amazon Sparse DNN Graph Challenge (Kepner et al., HPEC
// 2019 -- reference [2]/[11] lineage of this paper) distributes sparse
// DNNs *generated with RadiX-Net* at widths 1024..65536 and depths
// 120..1920, with all nonzero weights equal and a per-width bias chosen
// to keep activations bounded.
//
// Substitution note (see DESIGN.md): the challenge's exact radix sets are
// not given in this paper, so our presets choose radix systems whose
// product equals the layer width -- (32,32) for 1024, (32,32,4) for 4096,
// (32,32,16) for 16384, (32,32,64) for 65536 -- repeated to the requested
// depth.  This preserves the properties the challenge relies on: fixed
// width, extreme sparsity with constant per-layer nnz, symmetry, and
// path-connectedness.  The bias values below are the published challenge
// constants for each width; the weight constant 1/16 matches the
// challenge's uniform nonzero weight.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/fnnt.hpp"
#include "radixnet/spec.hpp"
#include "support/random.hpp"

namespace radix::gc {

/// Widths the challenge publishes.
bool is_supported_width(index_t neurons);

/// The radix systems our preset uses for one "period" at this width.
std::vector<std::vector<std::uint32_t>> base_system(index_t neurons);

/// The published challenge bias for this width (-0.30, -0.35, -0.40,
/// -0.45 for 1024, 4096, 16384, 65536).
float bias_for_width(index_t neurons);

/// Nonzero weight at the challenge's uniform in-degree 32 (1/16).  Our
/// presets at widths > 1024 have one transition with a different
/// in-degree k (see base_system); those layers use 2/k so the layer gain
/// (in-degree x weight = 2) matches the published networks everywhere
/// and activations neither die nor blow up mid-stack.
inline constexpr float kWeight = 1.0f / 16.0f;

/// The per-layer weight rule above.
inline constexpr float weight_for_indegree(std::uint32_t k) {
  return 2.0f / static_cast<float>(k);
}

/// Activation ceiling used by the challenge inference rule.
inline constexpr float kClamp = 32.0f;

/// RadiX-Net spec for the given width and edge-layer count.  num_layers
/// must be a multiple of the preset's period (2 for width 1024, else 3).
RadixNetSpec spec(index_t neurons, std::size_t num_layers);

/// Build the pattern topology for the given width/depth.
Fnnt topology(index_t neurons, std::size_t num_layers);

/// A ready-to-run challenge network: weighted layers + bias.
struct Network {
  std::vector<Csr<float>> layers;
  float bias = 0.0f;
  index_t neurons = 0;
};

/// Assemble the weighted network.  When `rng` is non-null, each layer's
/// columns are randomly permuted (the challenge shuffles neuron ids so
/// the structure is not axis-aligned); determinism comes from the rng
/// seed.  One pass per layer (radix_net_layers, radixnet/builder.hpp)
/// writes the float weights and the shuffle straight into the final
/// CSR, in time linear in the edge count, with the layers built in
/// parallel.  The permutations are drawn in layer order first, so the
/// network is the same for a seed at any thread count.
Network network(index_t neurons, std::size_t num_layers,
                Rng* rng = nullptr);

/// Synthetic input batch: `batch` rows of `neurons` features with the
/// given fraction of nonzeros, each nonzero equal to 1 (the challenge's
/// binarized MNIST stand-in; see DESIGN.md substitutions).
std::vector<float> synthetic_input(index_t batch, index_t neurons,
                                   double nonzero_fraction, Rng& rng);

}  // namespace radix::gc
