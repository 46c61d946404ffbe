// The Graph-Challenge workloads: an offline batch SparseDnn::forward
// from one calling thread.
//
//   challenge-dense   width 16384, 12 layers, batch 32, every input row
//                     at density 0.4: activations saturate and the
//                     gather arm runs on every layer.
//   challenge-sparse  width 4096, 24 layers, batch 64; one row in 8
//                     (positions seeded) at density 0.4, the rest at
//                     0.1.  The sparse rows die within two layers and
//                     the scatter arm runs on almost every layer.  The
//                     window cycles through 16 such seeded batches.
//
// Set-up (topology generation, construction, prewarm, first forward) is
// repeated kSetupReps times and reported per repetition.  The timed
// window then runs forward calls back to back for --seconds; every
// output is checked against a straight-line reference forward computed
// before the window.  A traced run instead chains one borrowed-view
// SparseDnn per layer (zero-copy, via layer_view) and times each call,
// which breaks the forward into NN layers from outside the library.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common.hpp"
#include "infer/sparse_dnn.hpp"
#include "radixnet/graph_challenge.hpp"
#include "support/random.hpp"

namespace perfbench {
namespace {

using radix::index_t;
using radix::offset_t;
using radix::infer::InferenceWorkspace;
using radix::infer::Kernel;
using radix::infer::SparseDnn;

constexpr int kSetupReps = 11;

struct Shape {
  index_t width;
  std::size_t layers;
  index_t batch;
  double hot_density;   // density of the seeded "hot" rows
  double cold_density;  // density of every other row
  index_t hot_every;    // one hot row per this many rows
  // Seeded input batches the timed window cycles through.  Where the hot
  // rows sit decides how evenly the forward's row tiles share the work,
  // so one batch would make a run's speed a draw of the seed; many
  // batches put the spread of layouts into every run.  With every row
  // alike (challenge-dense) the layout does not matter.
  std::size_t inputs;
};

Shape shape_for(const std::string& workload) {
  if (workload == "challenge-dense") return {16384, 12, 32, 0.4, 0.4, 1, 1};
  if (workload == "challenge-sparse") return {4096, 24, 64, 0.4, 0.1, 8, 16};
  throw std::invalid_argument("unknown challenge workload " + workload);
}

// Seeded input batch: batch / hot_every rows at hot_density at seeded
// positions, the rest at cold_density.
std::vector<float> make_input(const Shape& s, radix::Rng& rng) {
  std::vector<index_t> order(s.batch);
  for (index_t i = 0; i < s.batch; ++i) order[i] = i;
  rng.shuffle(order);
  std::vector<char> hot(s.batch, 0);
  for (index_t i = 0; i < s.batch / s.hot_every; ++i) hot[order[i]] = 1;
  std::vector<float> x;
  x.reserve(static_cast<std::size_t>(s.batch) * s.width);
  for (index_t r = 0; r < s.batch; ++r) {
    const auto row = radix::gc::synthetic_input(
        1, s.width, hot[r] ? s.hot_density : s.cold_density, rng);
    x.insert(x.end(), row.begin(), row.end());
  }
  return x;
}

// The benchmark's own straight-line forward: for every batch row,
// accumulate each output over its inputs in ascending index order, then
// apply min(clamp, ReLU(v + bias)).  Weights are read through the
// engine's layer views, so it checks the kernels, not the generator.
std::vector<float> reference_forward(const SparseDnn& dnn,
                                     const std::vector<float>& input,
                                     index_t batch) {
  std::vector<float> x = input;
  for (std::size_t k = 0; k < dnn.depth(); ++k) {
    const radix::CsrFloatView w = dnn.layer_view(k);
    const float bias = dnn.biases()[k];
    const float clamp = dnn.clamp();
    const auto rowptr = w.rowptr();
    const auto colind = w.colind();
    const auto vals = w.values();
    std::vector<float> y(static_cast<std::size_t>(batch) * w.cols(), 0.0f);
    for (index_t b = 0; b < batch; ++b) {
      const float* xr = x.data() + static_cast<std::size_t>(b) * w.rows();
      float* yr = y.data() + static_cast<std::size_t>(b) * w.cols();
      for (index_t r = 0; r < w.rows(); ++r) {
        if (xr[r] == 0.0f) continue;
        for (offset_t e = rowptr[r]; e < rowptr[r + 1]; ++e) {
          yr[colind[e]] += xr[r] * vals[e];
        }
      }
      for (index_t c = 0; c < w.cols(); ++c) {
        float v = yr[c] + bias;
        if (v < 0.0f) v = 0.0f;
        if (clamp > 0.0f && v > clamp) v = clamp;
        yr[c] = v;
      }
    }
    x = std::move(y);
  }
  return x;
}

std::uint64_t count_nonzero(std::span<const float> y) {
  return static_cast<std::uint64_t>(
      std::count_if(y.begin(), y.end(), [](float v) { return v != 0.0f; }));
}

struct Expected {
  std::vector<index_t> categories;
  std::uint64_t nonzeros = 0;
  std::vector<float> values;
};

// The challenge's checks (category set and final nonzero count), plus
// every final activation within a relative 1e-4 of the reference, which
// tolerates a change of summation order but not of the arithmetic.
bool matches(const Expected& want, std::span<const float> y, index_t batch,
             index_t width) {
  if (count_nonzero(y) != want.nonzeros ||
      SparseDnn::active_rows(y, batch, width) != want.categories) {
    return false;
  }
  for (std::size_t i = 0; i < y.size(); ++i) {
    const float ref = want.values[i];
    if (std::fabs(y[i] - ref) > 1e-4f * std::max(1.0f, std::fabs(ref))) {
      return false;
    }
  }
  return true;
}

// Row tile of the fused kernels: a copy of kBatchTile in
// src/sparse/spmm.cpp, which no header exports.  Change both together, or
// sparse.computed_mb_per_forward goes wrong without an error.
constexpr index_t kKernelBatchTile = 8;

// Bytes one forward streams, computed from the CSR arrays and the
// activation panels: each layer's weights once per kKernelBatchTile-row
// batch tile, values skipped for uniform layers, the input panel read
// once and the output panel written once.
double computed_mb_per_forward(const SparseDnn& dnn, index_t batch) {
  const double tiles = static_cast<double>(
      (batch + kKernelBatchTile - 1) / kKernelBatchTile);
  double bytes = 0.0;
  for (std::size_t k = 0; k < dnn.depth(); ++k) {
    const radix::CsrFloatView w = dnn.layer_view(k);
    double weights = static_cast<double>(w.rowptr().size()) * sizeof(offset_t) +
                     static_cast<double>(w.nnz()) * sizeof(index_t);
    if (!dnn.layer_uniform(k)) {
      weights += static_cast<double>(w.nnz()) * sizeof(float);
    }
    bytes += tiles * weights +
             static_cast<double>(batch) * (w.rows() + w.cols()) * sizeof(float);
  }
  return bytes / (1024.0 * 1024.0);
}

const char* arm_name(Kernel k) {
  return k == Kernel::kGather ? "gather" : k == Kernel::kScatter ? "scatter"
                                                                  : "auto";
}

}  // namespace

RunResult run_challenge(const std::string& workload, const RunOptions& opt) {
  const Shape s = shape_for(workload);
  radix::Rng input_rng(opt.seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<std::vector<float>> xs;
  for (std::size_t i = 0; i < s.inputs; ++i) xs.push_back(make_input(s, input_rng));
  SpanLog spans(opt.trace);

  // --- Set-up, repeated: generation, construction, prewarm, first
  // forward.  The last repetition's engine is the one measured.
  std::vector<double> setup_s, build_s, prewarm_s;
  double prewarm_rss_mb = 0.0;
  std::shared_ptr<const SparseDnn> dnn;
  std::optional<InferenceWorkspace> ws;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dnn.reset();
    ws.reset();
    const double t0 = now_s();
    radix::Rng rng(opt.seed);
    radix::gc::Network net = radix::gc::network(s.width, s.layers, &rng);
    const double t1 = now_s();
    auto built = std::make_shared<const SparseDnn>(std::move(net.layers),
                                                   net.bias, radix::gc::kClamp);
    ws.emplace();
    const double rss0 = read_proc().rss_mb;
    const double t2 = now_s();
    built->prewarm({s.batch, &*ws});
    const double t3 = now_s();
    const double rss1 = read_proc().rss_mb;
    built->forward(xs[0].data(), s.batch, *ws);
    const double t4 = now_s();
    setup_s.push_back(t4 - t0);
    build_s.push_back(t1 - t0);
    prewarm_s.push_back(t3 - t2);
    // Later repetitions reuse pages the allocator kept from the freed
    // engine, so only the first shows prewarm's fresh memory.
    if (rep == 0) prewarm_rss_mb = rss1 - rss0;
    spans.record("radixnet.gc_network", t0, t1);
    spans.record("infer.prewarm", t2, t3);
    spans.record("infer.first_forward", t3, t4);
    dnn = std::move(built);
  }

  // --- Reference, outside the timed window.
  std::vector<Expected> wants(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    Expected& want = wants[i];
    want.values = reference_forward(*dnn, xs[i], s.batch);
    want.nonzeros = count_nonzero(want.values);
    want.categories = SparseDnn::active_rows(want.values, s.batch, s.width);
  }
  const std::uint64_t edges_per_forward =
      static_cast<std::uint64_t>(s.batch) * dnn->total_nnz();

  // Per-layer engines for the traced chain: borrowed views of the
  // measured engine's layers, kept alive by it.
  std::vector<SparseDnn> chain;
  std::vector<InferenceWorkspace> chain_ws;
  if (opt.trace) {
    for (std::size_t k = 0; k < dnn->depth(); ++k) {
      chain.emplace_back(std::vector<radix::CsrFloatView>{dnn->layer_view(k)},
                         std::vector<float>{dnn->biases()[k]}, dnn->clamp(),
                         std::shared_ptr<const void>(dnn));
    }
    chain_ws.resize(chain.size());
    for (std::size_t k = 0; k < chain.size(); ++k) {
      chain[k].prewarm({s.batch, &chain_ws[k]});
    }
  }

  // --- Timed window.
  std::vector<double> forward_ms;
  std::vector<std::vector<double>> layer_ms(dnn->depth());
  std::vector<int> layer_gather(dnn->depth(), 0);
  std::vector<double> layer_density(dnn->depth(), 0.0);
  long long mismatches = 0;
  const ProcSample p0 = read_proc();
  const double w0 = now_s();
  while (now_s() - w0 < opt.seconds || forward_ms.empty()) {
    const std::size_t input = forward_ms.size() % xs.size();
    const std::vector<float>& x = xs[input];
    std::span<const float> y;
    const double t0 = now_s();
    const std::uint64_t request = forward_ms.size() + 1;
    const long parent = spans.record("infer.forward", t0, t0, request);
    if (!opt.trace) {
      y = dnn->forward(x.data(), s.batch, *ws);
    } else {
      const float* in = x.data();
      for (std::size_t k = 0; k < chain.size(); ++k) {
        const double a = now_s();
        y = chain[k].forward(in, s.batch, chain_ws[k]);
        const double b = now_s();
        spans.record("infer.layer_forward", a, b, request, parent);
        layer_ms[k].push_back((b - a) * 1e3);
        in = y.data();
      }
    }
    const double t1 = now_s();
    spans.finish(parent, t1);
    forward_ms.push_back((t1 - t0) * 1e3);
    if (!matches(wants[input], y, s.batch, s.width)) ++mismatches;
  }
  const double w1 = now_s();
  const ProcSample p1 = read_proc();

  // Dispatch of the last forward: the full engine's trace, or each
  // single-layer engine's one entry in the traced chain.
  int gather_layers = 0, scatter_layers = 0;
  double density_sum = 0.0;
  std::vector<std::string> arms;
  for (std::size_t k = 0; k < dnn->depth(); ++k) {
    const radix::infer::LayerDispatch d =
        opt.trace ? chain_ws[k].last_dispatch().front()
                  : ws->last_dispatch().at(k);
    gather_layers += d.chosen == Kernel::kGather;
    scatter_layers += d.chosen == Kernel::kScatter;
    layer_gather[k] = d.chosen == Kernel::kGather;
    layer_density[k] = d.input_density;
    density_sum += d.input_density;
    arms.push_back(json_string(arm_name(d.chosen)));
  }

  RunResult result;
  result.attempted = static_cast<long long>(forward_ms.size());
  result.failed = mismatches;
  result.mismatches = mismatches;
  const auto layers = static_cast<int>(dnn->depth());
  if (workload == "challenge-dense" && gather_layers != layers) {
    result.drift = "challenge-dense ran gather on " +
                   std::to_string(gather_layers) + " of " +
                   std::to_string(layers) + " layers, expected all";
  }
  if (workload == "challenge-sparse" && 3 * scatter_layers < 2 * layers) {
    result.drift = "challenge-sparse ran scatter on " +
                   std::to_string(scatter_layers) + " of " +
                   std::to_string(layers) + " layers, expected at least 2/3";
  }

  std::vector<std::string> layer_json;
  for (std::size_t k = 0; k < layer_ms.size() && opt.trace; ++k) {
    JsonObject l;
    l.nums("ms", layer_ms[k])
        .integer("gather", layer_gather[k])
        .num("input_density", layer_density[k])
        .integer("nnz", static_cast<long long>(dnn->layer_view(k).nnz()));
    layer_json.push_back(l.render());
  }

  std::vector<double> reference_nonzeros, reference_categories;
  for (const Expected& want : wants) {
    reference_nonzeros.push_back(static_cast<double>(want.nonzeros));
    reference_categories.push_back(static_cast<double>(want.categories.size()));
  }

  JsonObject out;
  out.str("workload", workload)
      .integer("width", s.width)
      .integer("layers", layers)
      .integer("batch", s.batch)
      .nums("setup_s", setup_s)
      .nums("build_s", build_s)
      .nums("prewarm_s", prewarm_s)
      .num("prewarm_rss_mb", prewarm_rss_mb)
      .nums("forward_ms", forward_ms)
      .num("window_s", w1 - w0)
      .integer("edges_per_forward", static_cast<long long>(edges_per_forward))
      .num("computed_mb_per_forward", computed_mb_per_forward(*dnn, s.batch))
      .integer("gather_layers", gather_layers)
      .integer("scatter_layers", scatter_layers)
      .num("mean_input_density", density_sum / layers)
      .raw("arms", json_list(arms))
      .raw("layer", json_list(layer_json))
      .nums("reference_nonzeros", reference_nonzeros)
      .nums("reference_categories", reference_categories)
      .num("cpu_s", p1.cpu_s - p0.cpu_s)
      .integer("invol_switches",
               static_cast<long long>(p1.invol_switches - p0.invol_switches))
      .num("rss_peak_mb", read_proc().hwm_mb)
      .raw("spans", spans.to_json());
  result.json = out.render();
  return result;
}

}  // namespace perfbench
