// Closed-form analytics vs measured topology quantities (eq. (4)-(6)).
#include "radixnet/analytics.hpp"

#include <gtest/gtest.h>

#include "graph/properties.hpp"
#include "radixnet/builder.hpp"
#include "support/error.hpp"

namespace radix {
namespace {

RadixNetSpec make_spec(std::vector<std::vector<std::uint32_t>> systems,
                       std::vector<std::uint32_t> d) {
  std::vector<MixedRadix> sys;
  for (auto& s : systems) sys.emplace_back(s);
  return RadixNetSpec(std::move(sys), std::move(d));
}

struct SpecCase {
  std::vector<std::vector<std::uint32_t>> systems;
  std::vector<std::uint32_t> d;
};

class AnalyticsSweep : public ::testing::TestWithParam<SpecCase> {};

TEST_P(AnalyticsSweep, Eq4DensityIsExact) {
  const auto spec = make_spec(GetParam().systems, GetParam().d);
  const auto g = build_radix_net(spec);
  EXPECT_NEAR(exact_density(spec), density(g), 1e-12) << spec.to_string();
}

TEST_P(AnalyticsSweep, EdgeAndNodePredictionsExact) {
  const auto spec = make_spec(GetParam().systems, GetParam().d);
  const auto g = build_radix_net(spec);
  EXPECT_EQ(predicted_edge_count(spec), g.num_edges());
  EXPECT_EQ(predicted_node_count(spec), g.num_nodes());
  EXPECT_EQ(dense_edge_count(spec), dense_edge_count(g));
}

TEST_P(AnalyticsSweep, PathCountPredictionExact) {
  const auto spec = make_spec(GetParam().systems, GetParam().d);
  const auto g = build_radix_net(spec);
  const auto m = symmetry_constant(g);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, predicted_path_count(spec));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AnalyticsSweep,
    ::testing::Values(
        SpecCase{{{2, 2, 2}}, {1, 1, 1, 1}},
        SpecCase{{{2, 2, 2}}, {3, 1, 2, 1}},
        SpecCase{{{3, 3, 4}}, {1, 1, 1, 1}},
        SpecCase{{{2, 3}, {3, 2}}, {1, 2, 3, 2, 1}},
        SpecCase{{{4, 4}, {2, 8}}, {1, 1, 1, 1, 1}},
        SpecCase{{{2, 2, 2}, {2, 2}}, {2, 1, 1, 1, 2, 1}}));

TEST(Analytics, Eq5ApproximationTightForUniformRadices) {
  // Zero radix variance: eq. (5) must match eq. (4) exactly when all D
  // are equal (the D-dependence cancels).
  const auto spec = RadixNetSpec::extended(
      {MixedRadix::uniform(4, 3), MixedRadix::uniform(4, 3)});
  EXPECT_NEAR(exact_density(spec), approx_density_mu(spec), 1e-15);
}

TEST(Analytics, Eq5ApproximationLooseForMixedD) {
  // With non-uniform D the exact density deviates from mu/N' but stays
  // within a factor bounded by max radix / min radix.
  const auto spec = make_spec({{2, 8}}, {1, 5, 1});
  const double exact = exact_density(spec);
  const double approx = approx_density_mu(spec);
  EXPECT_GT(exact / approx, 0.2);
  EXPECT_LT(exact / approx, 5.0);
}

TEST(Analytics, Eq6MatchesDefinition) {
  // d = log_mu N' and Delta ~ mu^(1-d): for uniform mu^d = N' exactly,
  // mu^(1-d) = mu / N'.
  const auto spec =
      RadixNetSpec::extended({MixedRadix::uniform(3, 4)});  // N' = 81
  const double d = radix_depth(spec);
  EXPECT_NEAR(d, 4.0, 1e-12);
  EXPECT_NEAR(approx_density_mu_d(3.0, d), 3.0 / 81.0, 1e-12);
}

TEST(Analytics, DensityDecreasesWithDepthAtFixedMu) {
  // The Fig 7 monotonicity: at fixed mu, density falls as d grows.
  double prev = 1.0;
  for (std::size_t d = 1; d <= 5; ++d) {
    const auto spec =
        RadixNetSpec::extended({MixedRadix::uniform(2, d)});
    const double delta = exact_density(spec);
    EXPECT_LT(delta, prev + 1e-15);
    prev = delta;
  }
}

TEST(Analytics, DensityDecreasesWithMuAtFixedDepth) {
  // At fixed d >= 2, density mu^(1-d) falls as mu grows.
  double prev = 1.0;
  for (std::uint32_t mu : {2u, 3u, 4u, 8u}) {
    const auto spec =
        RadixNetSpec::extended({MixedRadix::uniform(mu, 3)});
    const double delta = exact_density(spec);
    EXPECT_LT(delta, prev);
    prev = delta;
  }
}

TEST(Analytics, StorageEstimatePositiveAndProportional) {
  const auto small =
      RadixNetSpec::extended({MixedRadix::uniform(2, 3)});
  const auto large =
      RadixNetSpec::extended({MixedRadix::uniform(2, 6)});
  EXPECT_GT(predicted_storage_bytes(small), 0u);
  EXPECT_GT(predicted_storage_bytes(large),
            predicted_storage_bytes(small));
}

TEST(Analytics, MinimalDensityBound) {
  // Density of any RadiX-Net lies in [min_density, 1].
  const auto spec = make_spec({{2, 4}, {8}}, {1, 2, 1, 1});
  const auto g = build_radix_net(spec);
  const double delta = density(g);
  EXPECT_GE(delta, min_density(g) - 1e-12);
  EXPECT_LE(delta, 1.0 + 1e-12);
}

TEST(Analytics, SizeCountsThrowInsteadOfWrapping) {
  // One system (65536, 65536), D = 1, 2^32 - 1, 2^32 - 1: N' = 2^32, so
  // the second layer alone has 65536 * (2^32 - 1)^2 * 2^32 edges, far
  // past 64 bits.  Unchecked, the edge count wrapped to exactly 0.
  const std::uint32_t big = 0xFFFFFFFFu;
  const auto spec = make_spec({{65536, 65536}}, {1, big, big});
  EXPECT_THROW((void)predicted_edge_count(spec), SpecError);
  EXPECT_THROW((void)predicted_storage_bytes(spec), SpecError);
  EXPECT_THROW((void)dense_edge_count(spec), SpecError);
  EXPECT_THROW((void)predicted_node_count(spec), SpecError);

  // The same system at D = 1 fits: 2 layers of 65536 * 2^32 edges, and
  // dense layers of (2^32)^2 = 2^64 edges do not.
  const auto fits = make_spec({{65536, 65536}}, {1, 1, 1});
  EXPECT_EQ(predicted_edge_count(fits), std::uint64_t{1} << 49);
  EXPECT_EQ(predicted_node_count(fits), std::uint64_t{3} << 32);
  EXPECT_EQ(predicted_storage_bytes(fits),
            (std::uint64_t{5} << 49) + (std::uint64_t{24} << 32));
  EXPECT_THROW((void)dense_edge_count(fits), SpecError);

  // N' = 2^48 and D_2 = 2^16: the width D_2 * N' = 2^64 itself does not
  // fit, so layer_widths and every count built on it throw.
  const auto wide = make_spec({{65536, 65536, 65536}}, {1, 1, 65536, 1});
  EXPECT_THROW((void)wide.layer_widths(), SpecError);
  EXPECT_THROW((void)predicted_node_count(wide), SpecError);
  EXPECT_THROW((void)dense_edge_count(wide), SpecError);
  EXPECT_THROW((void)predicted_edge_count(wide), SpecError);
}

}  // namespace
}  // namespace radix
