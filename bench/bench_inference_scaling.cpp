// E8 -- Graph-Challenge-style sparse inference throughput ([2], [11]).
//
// Google Benchmark harness sweeping batch size and depth over real
// RadiX-Net preset topologies (radix::gc::network).  Two paths run on
// identical networks and inputs:
//
//   BM_InferReference  -- the historical engine: copies the input batch,
//       reallocates + zero-fills the output panel every layer, runs the
//       unfused scatter SpMM, then a second full read-modify-write sweep
//       for bias/ReLU/clamp, and a final count_if for the stats.
//   BM_InferFused      -- SparseDnn::forward with a reused
//       InferenceWorkspace: zero steady-state allocations, fused
//       epilogue, batch tiling, tile-interleaved inner panels, adaptive
//       scatter/gather dispatch.  Also reports, per layer k,
//       layerKK_edges_per_s (from LayerDispatch::wall_ns),
//       layerKK_input_density and layerKK_gather (the arm, 1 = gather).
//
// items_per_second is the challenge metric: edges processed per second
// = batch * sum_k nnz(W_k) / wall.  scripts/record_bench_baseline.py
// snapshots both paths into BENCH_*.json; scripts/check_perf_smoke.py
// gates CI on fused >= reference.
//
// Args: {neurons, layers, batch}.  Depths obey each width's preset
// period (2 for 1024, 3 for 4096).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <map>
#include <tuple>
#include <vector>

#include "infer/sparse_dnn.hpp"
#include "radixnet/graph_challenge.hpp"
#include "sparse/spmm.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"

namespace radix {
namespace {

constexpr double kInputDensity = 0.4;

// Networks are expensive to synthesize (per-layer shuffle SpGEMM);
// build each (neurons, layers) configuration once per process.
const gc::Network& cached_network(index_t neurons, std::size_t layers) {
  static std::map<std::pair<index_t, std::size_t>, gc::Network> cache;
  const auto key = std::make_pair(neurons, layers);
  auto it = cache.find(key);
  if (it == cache.end()) {
    Rng rng(99);
    it = cache.emplace(key, gc::network(neurons, layers, &rng)).first;
  }
  return it->second;
}

const std::vector<float>& cached_input(index_t batch, index_t neurons) {
  static std::map<std::pair<index_t, index_t>, std::vector<float>> cache;
  const auto key = std::make_pair(batch, neurons);
  auto it = cache.find(key);
  if (it == cache.end()) {
    Rng rng(7);
    it = cache
             .emplace(key, gc::synthetic_input(batch, neurons,
                                               kInputDensity, rng))
             .first;
  }
  return it->second;
}

// The seed engine's forward pass, kept verbatim as the in-harness
// reference: per-layer allocation + zero-fill, unfused scatter SpMM, a
// second full sweep for the epilogue, and a trailing nonzero count.
std::vector<float> reference_forward(const std::vector<Csr<float>>& layers,
                                     float bias, float clamp,
                                     const std::vector<float>& input,
                                     index_t batch,
                                     std::uint64_t* nonzero_outputs) {
  std::vector<float> cur = input;
  std::vector<float> next;
  for (const auto& w : layers) {
    next.assign(static_cast<std::size_t>(batch) * w.cols(), 0.0f);
    spmm_dense_csr(cur.data(), batch, w.rows(), w, next.data());
    parallel_for(
        0, static_cast<std::int64_t>(next.size()),
        [&](std::int64_t i) {
          float v = next[i] + bias;
          if (v < 0.0f) v = 0.0f;
          if (clamp > 0.0f && v > clamp) v = clamp;
          next[i] = v;
        });
    cur.swap(next);
  }
  *nonzero_outputs = static_cast<std::uint64_t>(
      std::count_if(cur.begin(), cur.end(),
                    [](float v) { return v != 0.0f; }));
  return cur;
}

void BM_InferReference(benchmark::State& state) {
  const index_t neurons = static_cast<index_t>(state.range(0));
  const std::size_t layers = static_cast<std::size_t>(state.range(1));
  const index_t batch = static_cast<index_t>(state.range(2));
  const auto& net = cached_network(neurons, layers);
  const auto& x = cached_input(batch, neurons);
  std::uint64_t total_nnz = 0;
  for (const auto& w : net.layers) total_nnz += w.nnz();

  std::uint64_t nz = 0;
  for (auto _ : state) {
    auto y = reference_forward(net.layers, net.bias, gc::kClamp, x, batch,
                               &nz);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * batch * total_nnz);
  state.counters["nonzero_outputs"] = static_cast<double>(nz);
}

void BM_InferFused(benchmark::State& state) {
  const index_t neurons = static_cast<index_t>(state.range(0));
  const std::size_t layers = static_cast<std::size_t>(state.range(1));
  const index_t batch = static_cast<index_t>(state.range(2));
  const auto& net = cached_network(neurons, layers);
  const auto& x = cached_input(batch, neurons);

  infer::SparseDnn dnn(net.layers, net.bias, gc::kClamp);
  infer::InferenceWorkspace ws;
  infer::InferenceStats stats;
  // Warm-up: sizes the workspace and builds any lazily transposed
  // layers, so the loop measures the steady (zero-allocation) state.
  (void)dnn.forward(x.data(), batch, ws, nullptr);

  std::vector<std::uint64_t> layer_ns(dnn.depth(), 0);
  for (auto _ : state) {
    auto y = dnn.forward(x.data(), batch, ws, &stats);
    benchmark::DoNotOptimize(y.data());
    for (std::size_t k = 0; k < layer_ns.size(); ++k) {
      layer_ns[k] += ws.last_dispatch()[k].wall_ns;
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * batch *
      dnn.total_nnz());
  state.counters["nonzero_outputs"] =
      static_cast<double>(stats.nonzero_outputs);
  std::size_t gather_layers = 0;
  for (const auto& d : ws.last_dispatch()) {
    if (d.chosen == infer::Kernel::kGather) ++gather_layers;
  }
  state.counters["gather_layers"] = static_cast<double>(gather_layers);
  // Layer by layer: edges/s from LayerDispatch::wall_ns next to the
  // input density and arm (1 = gather) that drove it.  Zero-padded
  // names keep one layer's three counters adjacent in the output.
  for (std::size_t k = 0; k < layer_ns.size(); ++k) {
    const auto& d = ws.last_dispatch()[k];
    char prefix[32];
    std::snprintf(prefix, sizeof prefix, "layer%02zu_", k);
    const double edges = static_cast<double>(state.iterations()) * batch *
                         static_cast<double>(dnn.layer_view(k).nnz());
    state.counters[std::string(prefix) + "edges_per_s"] =
        layer_ns[k] > 0 ? edges / (static_cast<double>(layer_ns[k]) * 1e-9)
                        : 0.0;
    state.counters[std::string(prefix) + "input_density"] = d.input_density;
    state.counters[std::string(prefix) + "gather"] =
        d.chosen == infer::Kernel::kGather ? 1.0 : 0.0;
  }
}

// Sweep batch at fixed shape, depth at fixed batch, and one wider net.
#define INFER_ARGS                                          \
  Args({1024, 12, 4})->Args({1024, 12, 32})                 \
      ->Args({1024, 6, 32})->Args({1024, 24, 32})           \
      ->Args({4096, 12, 32})

BENCHMARK(BM_InferReference)->INFER_ARGS->Unit(benchmark::kMillisecond);
BENCHMARK(BM_InferFused)->INFER_ARGS->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace radix
