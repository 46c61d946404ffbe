// Reference RadiX-Net generation for the tests: Fig 6 composed stage by
// stage from the library's primitives -- mrt_submatrix per radix
// (eq. (1), the place value restarting with every system), kron_ones
// (eq. (3)), spgemm_bool against permutation_matrix (the
// Graph-Challenge column shuffle W <- W * Pi) and Csr::map to the float
// weights.  The one-pass emitter (radix_net_layers) must reproduce it
// array for array.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "radixnet/graph_challenge.hpp"
#include "radixnet/mrt.hpp"
#include "radixnet/spec.hpp"
#include "sparse/csr_view.hpp"
#include "sparse/kron.hpp"
#include "sparse/permutation.hpp"
#include "sparse/spgemm.hpp"
#include "support/random.hpp"

namespace radix::reference {

/// The spec's pattern layers: EMR submatrices, then the ones factors.
inline std::vector<Csr<pattern_t>> topology(const RadixNetSpec& spec) {
  const auto nodes = static_cast<index_t>(spec.n_prime());
  std::vector<Csr<pattern_t>> layers;
  for (const auto& system : spec.systems()) {
    std::uint64_t pv = 1;
    for (const std::uint32_t r : system.radices()) {
      layers.push_back(mrt_submatrix(nodes, r, pv));
      pv *= r;
    }
  }
  const auto& d = spec.dense_widths();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (d[i] != 1 || d[i + 1] != 1) {
      layers[i] = kron_ones(index_t{d[i]}, index_t{d[i + 1]}, layers[i]);
    }
  }
  return layers;
}

/// topology(spec), each layer's columns renamed by shuffles[i] (when
/// given) and its values set to values[i].
inline std::vector<Csr<float>> weighted(
    const RadixNetSpec& spec, const std::vector<float>& values,
    const std::vector<std::vector<index_t>>& shuffles = {}) {
  std::vector<Csr<float>> out;
  const auto topo = topology(spec);
  for (std::size_t i = 0; i < topo.size(); ++i) {
    Csr<pattern_t> layer = topo[i];
    if (!shuffles.empty()) {
      layer = spgemm_bool(layer, permutation_matrix(shuffles[i]));
    }
    const float w = values[i];
    out.push_back(layer.map<float>([w](pattern_t) { return w; }));
  }
  return out;
}

/// gc::network(neurons, num_layers, rng), composed stage by stage: the
/// permutations are drawn from `rng` in layer order.
inline std::vector<Csr<float>> challenge_network(index_t neurons,
                                                 std::size_t num_layers,
                                                 Rng* rng) {
  const auto base = gc::base_system(neurons).front();
  std::vector<float> weights;
  std::vector<std::vector<index_t>> shuffles;
  for (std::size_t i = 0; i < num_layers; ++i) {
    weights.push_back(gc::weight_for_indegree(base[i % base.size()]));
    if (rng != nullptr) shuffles.push_back(rng->permutation(neurons));
  }
  return weighted(gc::spec(neurons, num_layers), weights, shuffles);
}

/// Array-for-array equality of two CSR matrices (shape, rowptr, colind,
/// values), reported without printing the arrays.
template <typename A, typename B>
void expect_same_csr(const A& got, const B& want, const std::string& what) {
  EXPECT_EQ(got.rows(), want.rows()) << what;
  EXPECT_EQ(got.cols(), want.cols()) << what;
  const auto eq = [](const auto& x, const auto& y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  EXPECT_TRUE(eq(got.rowptr(), want.rowptr())) << what << ": rowptr";
  EXPECT_TRUE(eq(got.colind(), want.colind())) << what << ": colind";
  EXPECT_TRUE(eq(got.values(), want.values())) << what << ": values";
}

template <typename A, typename B>
void expect_same_layers(const std::vector<A>& got, const std::vector<B>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_same_csr(got[i], want[i], what + " layer " + std::to_string(i));
  }
}

}  // namespace radix::reference
