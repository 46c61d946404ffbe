// RadiX-Net construction (Fig 5/6), Lemma 2, Theorem 1.
#include "radixnet/builder.hpp"

#include <gtest/gtest.h>

#include "graph/properties.hpp"
#include "radixnet/analytics.hpp"
#include "radixnet_reference.hpp"
#include "sparse/kron.hpp"
#include "support/error.hpp"

namespace radix {
namespace {

RadixNetSpec make_spec(std::vector<std::vector<std::uint32_t>> systems,
                       std::vector<std::uint32_t> d) {
  std::vector<MixedRadix> sys;
  for (auto& s : systems) sys.emplace_back(s);
  return RadixNetSpec(std::move(sys), std::move(d));
}

TEST(Spec, ValidatesSharedProduct) {
  // (2,2,2) and (4,2) both have product 8 -- fine.
  EXPECT_NO_THROW(make_spec({{2, 2, 2}, {4, 2}}, {1, 1, 1, 1, 1, 1}));
  // (2,2,2) and (3,3) differ -- the middle systems must share N'.
  EXPECT_THROW(make_spec({{3, 3}, {2, 2, 2}, {2, 2, 2}},
                         std::vector<std::uint32_t>(9, 1)),
               SpecError);
}

TEST(Spec, LastSystemMayDivide) {
  // Last product 4 divides N' = 8.
  EXPECT_NO_THROW(make_spec({{2, 2, 2}, {2, 2}}, {1, 1, 1, 1, 1, 1}));
  // Last product 3 does not divide 8.
  EXPECT_THROW(make_spec({{2, 2, 2}, {3}}, {1, 1, 1, 1, 1}), SpecError);
}

TEST(Spec, DArityEnforced) {
  EXPECT_THROW(make_spec({{2, 2}}, {1, 1}), SpecError);      // need 3
  EXPECT_THROW(make_spec({{2, 2}}, {1, 1, 0}), SpecError);   // D_i >= 1
  EXPECT_NO_THROW(make_spec({{2, 2}}, {1, 3, 1}));
}

TEST(Spec, Accessors) {
  const auto spec = make_spec({{3, 3, 4}, {4, 3, 3}}, {2, 1, 1, 1, 1, 1, 3});
  EXPECT_EQ(spec.n_prime(), 36u);
  EXPECT_EQ(spec.total_radices(), 6u);
  EXPECT_EQ(spec.flattened_radices(),
            (std::vector<std::uint32_t>{3, 3, 4, 4, 3, 3}));
  EXPECT_EQ(spec.layer_widths(),
            (std::vector<std::uint64_t>{72, 36, 36, 36, 36, 36, 108}));
  EXPECT_DOUBLE_EQ(spec.mean_radix(), 20.0 / 6.0);
}

TEST(Builder, EmrHasExpectedShape) {
  const auto spec = RadixNetSpec::extended(
      {MixedRadix({2, 2, 2}), MixedRadix({4, 2})});
  const auto g = build_extended_mixed_radix(spec);
  EXPECT_EQ(g.depth(), 5u);
  for (index_t w : g.widths()) EXPECT_EQ(w, 8u);
  EXPECT_TRUE(g.validate().ok);
}

TEST(Builder, PlaceValueResetsPerSystem) {
  // Two copies of (2,2): second system's first transition must again use
  // stride 1 (pv resets), i.e. j -> {j, j+1}.
  const auto spec =
      RadixNetSpec::extended({MixedRadix({2, 2}), MixedRadix({2, 2})});
  const auto g = build_extended_mixed_radix(spec);
  EXPECT_TRUE(g.layer(2).contains(0, 0));
  EXPECT_TRUE(g.layer(2).contains(0, 1));
  EXPECT_TRUE(g.layer(3).contains(0, 0));
  EXPECT_TRUE(g.layer(3).contains(0, 2));
}

TEST(Builder, KroneckerStageMatchesManual) {
  const auto spec = make_spec({{2, 2}}, {3, 2, 1});
  const auto emr = build_extended_mixed_radix(
      RadixNetSpec::extended({MixedRadix({2, 2})}));
  const auto g = build_radix_net(spec);
  EXPECT_EQ(g.layer(0),
            kron(Csr<pattern_t>::ones(3, 2), emr.layer(0)));
  EXPECT_EQ(g.layer(1),
            kron(Csr<pattern_t>::ones(2, 1), emr.layer(1)));
  EXPECT_EQ(g.widths(), (std::vector<index_t>{12, 8, 4}));
}

TEST(Builder, Fig5ShapeExample) {
  // Fig 5 uses D = (3, 5, 4, 2) around three mixed-radix systems of one
  // radix each; we instantiate with N' = 6 = (6), (6), (6)... each of one
  // digit, giving 3 transitions and widths D_i * 6.
  const auto spec = make_spec({{6}, {6}, {6}}, {3, 5, 4, 2});
  const auto g = build_radix_net(spec);
  EXPECT_EQ(g.widths(), (std::vector<index_t>{18, 30, 24, 12}));
  EXPECT_TRUE(g.validate().ok);
  EXPECT_TRUE(is_path_connected(g));
}

TEST(Builder, ConvenienceOverloadEquivalent) {
  const auto a = build_radix_net({{2, 2}, {2, 2}},
                                 std::vector<std::uint32_t>{1, 2, 1, 1, 1});
  const auto b = build_radix_net(
      make_spec({{2, 2}, {2, 2}}, {1, 2, 1, 1, 1}));
  EXPECT_EQ(a, b);
}

// Lemma 2: EMR topologies are symmetric with (N')^(M-1) paths.
class Lemma2Sweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Lemma2Sweep, EmrPathCount) {
  const std::size_t num_systems = GetParam();
  std::vector<MixedRadix> systems(num_systems, MixedRadix({2, 3}));
  const auto spec = RadixNetSpec::extended(std::move(systems));
  const auto g = build_extended_mixed_radix(spec);
  const auto m = symmetry_constant(g);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, BigUInt(6).pow(num_systems - 1));
}

INSTANTIATE_TEST_SUITE_P(Sweep, Lemma2Sweep, ::testing::Values(1u, 2u, 3u, 4u));

// Theorem 1: the full RadiX-Net is symmetric with
// (N')^(M-1) * prod_{i=1..Mbar-1} D_i paths, and the analytics module
// predicts the same number.
struct Thm1Case {
  std::vector<std::vector<std::uint32_t>> systems;
  std::vector<std::uint32_t> d;
};

class Theorem1Sweep : public ::testing::TestWithParam<Thm1Case> {};

TEST_P(Theorem1Sweep, SymmetryConstantMatchesPrediction) {
  const auto& c = GetParam();
  const auto spec = make_spec(c.systems, c.d);
  const auto g = build_radix_net(spec);
  EXPECT_TRUE(g.validate().ok);
  const auto m = symmetry_constant(g);
  ASSERT_TRUE(m.has_value()) << spec.to_string();
  EXPECT_EQ(*m, predicted_path_count(spec)) << spec.to_string();
  EXPECT_TRUE(is_path_connected(g));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Theorem1Sweep,
    ::testing::Values(
        // Single system, D = 1 -> Lemma 1 (one path).
        Thm1Case{{{2, 2, 2}}, {1, 1, 1, 1}},
        // Single system with widths.
        Thm1Case{{{2, 2, 2}}, {2, 3, 1, 2}},
        // Two equal-product systems.
        Thm1Case{{{2, 3}, {3, 2}}, {1, 1, 1, 1, 1}},
        // Two systems with interior D.
        Thm1Case{{{2, 3}, {6}}, {1, 2, 4, 1}},
        // Three systems, mixed D.
        Thm1Case{{{2, 2}, {4}, {2, 2}}, {2, 1, 3, 1, 2, 1}},
        // Divisor case: last system product 4 divides N' = 8.
        Thm1Case{{{2, 2, 2}, {2, 2}}, {1, 1, 1, 1, 1, 1}},
        // Divisor case with D.
        Thm1Case{{{2, 2, 2}, {4}}, {1, 2, 1, 3, 1}}));

TEST(Theorem1, ExplicitValueForPaperScale) {
  // (N')^(M-1) * prod D_i for N' = 8, 3 systems, interior D = (2, ..., 3).
  const auto spec =
      make_spec({{2, 2, 2}, {2, 2, 2}, {2, 2, 2}},
                {1, 2, 1, 1, 1, 1, 1, 3, 1, 1});
  EXPECT_EQ(predicted_path_count(spec), BigUInt(8 * 8 * 2 * 3));
}

TEST(Builder, NPrimeOverflowRejected) {
  // N' beyond index range must be rejected at build time.
  std::vector<MixedRadix> sys = {MixedRadix(
      std::vector<std::uint32_t>(33, 2))};  // 2^33 > 2^32-1
  const auto spec = RadixNetSpec::extended(std::move(sys));
  EXPECT_THROW(build_extended_mixed_radix(spec), SpecError);
}

// The one-pass emitter against the stage-wise Fig 6 composition
// (tests/radixnet_reference.hpp), array for array.
struct EmitCase {
  std::vector<std::vector<std::uint32_t>> systems;
  std::vector<std::uint32_t> d;
};

class EmitterMatchesReference : public ::testing::TestWithParam<EmitCase> {};

TEST_P(EmitterMatchesReference, BuildRadixNet) {
  const auto spec = make_spec(GetParam().systems, GetParam().d);
  reference::expect_same_layers(build_radix_net(spec).layers(),
                                reference::topology(spec), spec.to_string());
  const auto emr = RadixNetSpec::extended(spec.systems());
  reference::expect_same_layers(build_extended_mixed_radix(spec).layers(),
                                reference::topology(emr), emr.to_string());
}

TEST_P(EmitterMatchesReference, WeightedAndShuffled) {
  // Per-layer values and a column shuffle on every layer, D-blocks
  // included: the linear shuffle equals W * permutation_matrix(perm).
  const auto spec = make_spec(GetParam().systems, GetParam().d);
  const auto widths = spec.layer_widths();
  Rng rng(17);
  std::vector<float> values;
  std::vector<std::vector<index_t>> shuffles;
  for (std::size_t i = 0; i < spec.total_radices(); ++i) {
    values.push_back(0.25f * static_cast<float>(i + 1));
    shuffles.push_back(
        rng.permutation(static_cast<std::uint32_t>(widths[i + 1])));
  }
  reference::expect_same_layers(
      radix_net_layers<float>(spec, values, shuffles),
      reference::weighted(spec, values, shuffles), spec.to_string());
  reference::expect_same_layers(radix_net_layers<float>(spec, values),
                                reference::weighted(spec, values),
                                spec.to_string() + " unshuffled");
}

INSTANTIATE_TEST_SUITE_P(
    Specs, EmitterMatchesReference,
    ::testing::Values(
        // One system, D = 1.
        EmitCase{{{2, 2, 2}}, {1, 1, 1, 1}},
        // D_i > 1 on both sides of a layer, and D_0 > 1.
        EmitCase{{{2, 2, 2}}, {2, 3, 1, 2}},
        EmitCase{{{3, 3, 4}, {4, 3, 3}}, {2, 1, 1, 1, 1, 1, 3}},
        EmitCase{{{2, 3}, {6}}, {1, 2, 4, 1}},
        // Partial last system: product 4 (or 4, with D) divides N' = 8.
        EmitCase{{{2, 2, 2}, {2, 2}}, {1, 1, 1, 1, 1, 1}},
        EmitCase{{{2, 2, 2}, {4}}, {1, 2, 1, 3, 1}},
        EmitCase{{{32, 32, 4}, {32, 2}}, {1, 1, 1, 1, 1, 1}},
        // The Fig 5 example: D = (3, 5, 4, 2) around three one-digit
        // systems.
        EmitCase{{{6}, {6}, {6}}, {3, 5, 4, 2}}));

TEST(Builder, EmitterRejectsBadShufflesAndValueCounts) {
  const auto spec = make_spec({{2, 2}}, {1, 1, 1});
  const std::vector<float> values = {1.0f, 1.0f};
  const std::vector<index_t> ok = {3, 2, 1, 0};
  const std::vector<index_t> dup = {3, 2, 1, 1};
  const std::vector<index_t> out_of_range = {3, 2, 1, 4};
  const std::vector<index_t> short_perm = {1, 0};
  EXPECT_NO_THROW(radix_net_layers<float>(
      spec, values, std::vector<std::vector<index_t>>{ok, ok}));
  for (const auto& bad : {dup, out_of_range, short_perm}) {
    EXPECT_THROW(radix_net_layers<float>(
                     spec, values, std::vector<std::vector<index_t>>{ok, bad}),
                 SpecError);
  }
  EXPECT_THROW(radix_net_layers<float>(
                   spec, values, std::vector<std::vector<index_t>>{ok}),
               SpecError);
  EXPECT_THROW(radix_net_layers<float>(spec, std::vector<float>{1.0f}),
               SpecError);
}

TEST(Builder, LayerWidthOverflowRejected) {
  // D_1 * N' = 65537 * 65536 > 2^32 - 1: refused before any allocation.
  const auto spec = make_spec({{256, 256}}, {1, 65537, 1});
  EXPECT_THROW(build_radix_net(spec), SpecError);
}

}  // namespace
}  // namespace radix
