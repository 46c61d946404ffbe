// Graph-Challenge preset networks.
#include "radixnet/graph_challenge.hpp"

#include <gtest/gtest.h>

#include "graph/properties.hpp"
#include "radixnet/analytics.hpp"
#include "radixnet_reference.hpp"
#include "support/error.hpp"

namespace radix {
namespace {

TEST(GraphChallenge, SupportedWidths) {
  EXPECT_TRUE(gc::is_supported_width(1024));
  EXPECT_TRUE(gc::is_supported_width(4096));
  EXPECT_TRUE(gc::is_supported_width(16384));
  EXPECT_TRUE(gc::is_supported_width(65536));
  EXPECT_FALSE(gc::is_supported_width(2048));
  EXPECT_THROW(gc::base_system(2048), SpecError);
}

TEST(GraphChallenge, PublishedBiases) {
  EXPECT_FLOAT_EQ(gc::bias_for_width(1024), -0.30f);
  EXPECT_FLOAT_EQ(gc::bias_for_width(4096), -0.35f);
  EXPECT_FLOAT_EQ(gc::bias_for_width(16384), -0.40f);
  EXPECT_FLOAT_EQ(gc::bias_for_width(65536), -0.45f);
  EXPECT_THROW(gc::bias_for_width(7), SpecError);
}

TEST(GraphChallenge, BaseSystemsMultiplyToWidth) {
  for (index_t w : {1024u, 4096u, 16384u, 65536u}) {
    const auto base = gc::base_system(w);
    std::uint64_t prod = 1;
    for (auto r : base.front()) prod *= r;
    EXPECT_EQ(prod, w);
  }
}

TEST(GraphChallenge, SpecHasRequestedDepth) {
  const auto spec = gc::spec(1024, 6);  // period 2 -> 3 systems
  EXPECT_EQ(spec.total_radices(), 6u);
  EXPECT_EQ(spec.n_prime(), 1024u);
  EXPECT_EQ(spec.systems().size(), 3u);
}

TEST(GraphChallenge, DepthMustMatchPeriod) {
  EXPECT_THROW(gc::spec(1024, 5), SpecError);   // period 2
  EXPECT_THROW(gc::spec(4096, 4), SpecError);   // period 3
  EXPECT_NO_THROW(gc::spec(4096, 6));
  EXPECT_THROW(gc::spec(1024, 0), SpecError);
}

TEST(GraphChallenge, TopologyShapeAndDegrees) {
  const auto g = gc::topology(1024, 4);
  EXPECT_EQ(g.depth(), 4u);
  for (index_t w : g.widths()) EXPECT_EQ(w, 1024u);
  // Every transition of the (32,32) system has out-degree exactly 32.
  for (std::size_t l = 0; l < g.depth(); ++l) {
    const auto s = layer_degree_stats(g.layer(l));
    EXPECT_TRUE(s.out_regular());
    EXPECT_EQ(s.max_out, 32u);
    EXPECT_TRUE(s.in_regular());
    EXPECT_EQ(s.max_in, 32u);
  }
  EXPECT_TRUE(g.validate().ok);
}

TEST(GraphChallenge, TopologyIsSymmetric) {
  const auto g = gc::topology(1024, 4);
  const auto m = symmetry_constant(g);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, BigUInt(1024));  // (N')^(M-1), M = 2 systems
}

TEST(GraphChallenge, NetworkCarriesUniformWeights) {
  const auto net = gc::network(1024, 2);
  EXPECT_EQ(net.layers.size(), 2u);
  EXPECT_FLOAT_EQ(net.bias, -0.30f);
  for (const auto& l : net.layers) {
    for (float v : l.values()) EXPECT_FLOAT_EQ(v, gc::kWeight);
  }
}

TEST(GraphChallenge, LayerGainIsTwoAtEveryWidth) {
  // Wider presets have one transition with in-degree != 32; the weight
  // rule keeps in-degree x weight == 2 everywhere so activations are
  // stable at any depth.
  const auto net = gc::network(4096, 3);
  for (const auto& l : net.layers) {
    const auto stats = layer_degree_stats(l.pattern());
    ASSERT_TRUE(stats.in_regular());
    EXPECT_FLOAT_EQ(l.values().front() * stats.max_in, 2.0f);
  }
}

TEST(GraphChallenge, ShuffledNetworkKeepsDegreeStructure) {
  Rng rng(5);
  const auto plain = gc::network(1024, 2);
  const auto shuffled = gc::network(1024, 2, &rng);
  for (std::size_t l = 0; l < 2; ++l) {
    EXPECT_EQ(shuffled.layers[l].nnz(), plain.layers[l].nnz());
    const auto s = layer_degree_stats(shuffled.layers[l].pattern());
    EXPECT_TRUE(s.out_regular());
    EXPECT_EQ(s.max_out, 32u);
  }
  // Actually shuffled: patterns differ.
  EXPECT_FALSE(shuffled.layers[0].pattern() == plain.layers[0].pattern());
}

TEST(GraphChallenge, ShuffleIsDeterministicPerSeed) {
  Rng a(9), b(9);
  const auto na = gc::network(1024, 2, &a);
  const auto nb = gc::network(1024, 2, &b);
  EXPECT_EQ(na.layers[0].pattern(), nb.layers[0].pattern());
}

TEST(GraphChallenge, SyntheticInputDensity) {
  Rng rng(7);
  const auto x = gc::synthetic_input(64, 1024, 0.1, rng);
  EXPECT_EQ(x.size(), 64u * 1024u);
  std::size_t nnz = 0;
  for (float v : x) {
    EXPECT_TRUE(v == 0.0f || v == 1.0f);
    if (v != 0.0f) ++nnz;
  }
  const double frac = static_cast<double>(nnz) / x.size();
  EXPECT_NEAR(frac, 0.1, 0.01);
  EXPECT_THROW(gc::synthetic_input(1, 8, 1.5, rng), SpecError);
}

TEST(GraphChallenge, Width16384Builds) {
  const auto g = gc::topology(16384, 3);
  EXPECT_EQ(g.widths(), std::vector<index_t>(4, 16384));
  EXPECT_EQ(g.num_edges(), 16384ull * (32 + 32 + 16));
  EXPECT_TRUE(g.validate().ok);
  const auto net = gc::network(16384, 3);
  EXPECT_FLOAT_EQ(net.bias, -0.40f);
}

TEST(GraphChallenge, LargerWidthsBuild) {
  const auto g = gc::topology(4096, 3);
  EXPECT_EQ(g.widths(), std::vector<index_t>(4, 4096));
  // (32, 32, 4): per-transition out-degrees 32, 32, 4.
  EXPECT_EQ(layer_degree_stats(g.layer(0)).max_out, 32u);
  EXPECT_EQ(layer_degree_stats(g.layer(1)).max_out, 32u);
  EXPECT_EQ(layer_degree_stats(g.layer(2)).max_out, 4u);
}

// gc::network against the stage-wise composition (mrt_submatrix, then
// spgemm_bool with permutation_matrix, then map to the weights) at every
// supported width, unseeded and under three seeds.
struct NetworkCase {
  index_t neurons;
  std::size_t layers;
};

class NetworkMatchesReference : public ::testing::TestWithParam<NetworkCase> {
};

TEST_P(NetworkMatchesReference, UnseededAndSeeded) {
  const auto [neurons, layers] = GetParam();
  const std::string what = "gc(" + std::to_string(neurons) + ", " +
                           std::to_string(layers) + ")";
  reference::expect_same_layers(
      gc::network(neurons, layers).layers,
      reference::challenge_network(neurons, layers, nullptr),
      what + " unseeded");
  for (const std::uint64_t seed : {1u, 5u, 31u}) {
    Rng a(seed), b(seed);
    reference::expect_same_layers(
        gc::network(neurons, layers, &a).layers,
        reference::challenge_network(neurons, layers, &b),
        what + " seed " + std::to_string(seed));
    // Both drew the same permutations, so the streams stay in step.
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, NetworkMatchesReference,
                         ::testing::Values(NetworkCase{1024, 4},
                                           NetworkCase{4096, 6},
                                           NetworkCase{16384, 3},
                                           NetworkCase{65536, 3}));

}  // namespace
}  // namespace radix
