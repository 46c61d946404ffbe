// E12 -- RadiX-Net construction performance (google-benchmark):
// generation throughput (edges/second materialized) vs width and depth.
// Expected shape: linear in output edge count -- every layer is written
// once, straight into its final CSR (radix_net_layers), and the
// Graph-Challenge column shuffle is a counting fill in the same pass, so
// no step is super-linear.  Layers are built in parallel, so the
// numbers depend on OMP_NUM_THREADS.  A developer tool, not a gate.
#include <benchmark/benchmark.h>

#include "radixnet/builder.hpp"
#include "radixnet/graph_challenge.hpp"

namespace radix {
namespace {

void BM_BuildMrt(benchmark::State& state) {
  const std::uint32_t mu = static_cast<std::uint32_t>(state.range(0));
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  const auto spec =
      RadixNetSpec::extended({MixedRadix::uniform(mu, d)});
  std::uint64_t edges = 0;
  for (auto _ : state) {
    const auto g = build_extended_mixed_radix(spec);
    edges = g.num_edges();
    benchmark::DoNotOptimize(g.layers().data());
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_BuildMrt)
    ->Args({2, 10})    // N' = 1024, degree 2
    ->Args({4, 6})     // N' = 4096, degree 4
    ->Args({32, 2})    // N' = 1024, degree 32
    ->Args({32, 3});   // N' = 32768, degree 32

void BM_BuildGraphChallenge(benchmark::State& state) {
  const index_t neurons = static_cast<index_t>(state.range(0));
  const std::size_t layers = static_cast<std::size_t>(state.range(1));
  std::uint64_t edges = 0;
  for (auto _ : state) {
    const auto g = gc::topology(neurons, layers);
    edges = g.num_edges();
    benchmark::DoNotOptimize(g.layers().data());
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_BuildGraphChallenge)
    ->Args({1024, 12})
    ->Args({1024, 120})
    ->Args({4096, 12});

// The seeded challenge network as the perfbench workloads build it:
// permutations drawn, weights and the shuffle written in one pass.
void BM_BuildChallengeNetwork(benchmark::State& state) {
  const index_t neurons = static_cast<index_t>(state.range(0));
  const std::size_t layers = static_cast<std::size_t>(state.range(1));
  std::uint64_t edges = 0;
  for (auto _ : state) {
    Rng rng(1);
    const auto net = gc::network(neurons, layers, &rng);
    edges = 0;
    for (const auto& l : net.layers) edges += l.nnz();
    benchmark::DoNotOptimize(net.layers.data());
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_BuildChallengeNetwork)
    ->Args({4096, 24})
    ->Args({16384, 12})
    ->Unit(benchmark::kMillisecond);

void BM_BuildWithKronecker(benchmark::State& state) {
  const std::uint32_t d_width = static_cast<std::uint32_t>(state.range(0));
  const RadixNetSpec spec(
      {MixedRadix({16, 16}), MixedRadix({16, 16})},
      std::vector<std::uint32_t>(5, d_width));
  std::uint64_t edges = 0;
  for (auto _ : state) {
    const auto g = build_radix_net(spec);
    edges = g.num_edges();
    benchmark::DoNotOptimize(g.layers().data());
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_BuildWithKronecker)->Arg(1)->Arg(4)->Arg(16);

}  // namespace
}  // namespace radix
