// Property tests for the fused, zero-allocation inference path: both
// adaptive-dispatch arms (scatter / gather), forced and automatic, must
// be bit-exact against a straight-line reference over randomized
// RadiX-Net stacks, batches, biases and clamp values -- and repeated
// forward calls through one InferenceWorkspace must perform zero heap
// allocations.
#include "infer/sparse_dnn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

// The replacement operator new below is malloc-backed, so pairing it
// with free() is correct; GCC cannot see that and warns at every
// allocator call site in this TU.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include "radixnet/builder.hpp"
#include "radixnet/graph_challenge.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "support/random.hpp"

// ---------------------------------------------------------------------------
// Global operator new/delete replacement counting allocations, so the
// steady-state zero-allocation contract of the workspace API is a test,
// not a comment.  Counting is off except inside the measured region.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};

void note_alloc() noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

void* operator new(std::size_t size) {
  note_alloc();
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  note_alloc();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size > 0 ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace radix {
namespace {

// Straight-line reference of the challenge rule.  Walks each output's
// inputs in ascending index order via the transposed layer -- the same
// accumulation order both fused arms use -- and mirrors the engine's
// uniform-weight detection ((sum x) * w rounds differently from
// sum(x * w), exactly as the specialized kernels do).
std::vector<float> straight_forward(const std::vector<Csr<float>>& layers,
                                    const std::vector<float>& biases,
                                    float clamp,
                                    const std::vector<float>& input,
                                    index_t batch) {
  std::vector<float> cur = input;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const Csr<float> wt = layers[l].transpose();
    const index_t m = layers[l].rows();
    const index_t n = layers[l].cols();
    const auto& vals = layers[l].values();
    const bool uniform =
        std::all_of(vals.begin(), vals.end(),
                    [&](float v) { return v == vals.front(); });
    const float scale = uniform && !vals.empty() ? vals.front() : 1.0f;
    std::vector<float> next(static_cast<std::size_t>(batch) * n);
    for (index_t b = 0; b < batch; ++b) {
      const float* xb = cur.data() + static_cast<std::size_t>(b) * m;
      for (index_t c = 0; c < n; ++c) {
        float acc = 0.0f;
        for (offset_t k = wt.rowptr()[c]; k < wt.rowptr()[c + 1]; ++k) {
          if (uniform) {
            acc += xb[wt.colind()[k]];
          } else {
            acc += xb[wt.colind()[k]] * wt.values()[k];
          }
        }
        float v = acc * scale + biases[l];
        if (v < 0.0f) v = 0.0f;
        if (clamp > 0.0f && v > clamp) v = clamp;
        next[static_cast<std::size_t>(b) * n + c] = v;
      }
    }
    cur = std::move(next);
  }
  return cur;
}

Csr<float> random_layer(index_t rows, index_t cols, double density,
                        Rng& rng) {
  Coo<float> coo(rows, cols);
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) {
      if (rng.bernoulli(density)) {
        coo.push(r, c, static_cast<float>(rng.uniform(-1.0, 1.0)));
      }
    }
  }
  return Csr<float>::from_coo(coo);
}

// Nonnegative input with a controlled zero fraction; some rows fully
// dead ("empty-ish batches" exercise the scatter arm's row skip).
std::vector<float> random_input(index_t batch, index_t width,
                                double nonzero_fraction, Rng& rng) {
  std::vector<float> x(static_cast<std::size_t>(batch) * width, 0.0f);
  for (index_t b = 0; b < batch; ++b) {
    if (b % 4 == 3) continue;  // every fourth row all-zero
    for (index_t c = 0; c < width; ++c) {
      if (rng.bernoulli(nonzero_fraction)) {
        x[static_cast<std::size_t>(b) * width + c] =
            static_cast<float>(rng.uniform(0.0, 2.0));
      }
    }
  }
  return x;
}

void expect_bit_exact(std::span<const float> got,
                      const std::vector<float>& want, const char* tag) {
  ASSERT_EQ(got.size(), want.size()) << tag;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << tag << " at " << i;
  }
}

// Run both forced arms and auto dispatch against the reference.
void check_all_arms(const std::vector<Csr<float>>& layers,
                    const std::vector<float>& biases, float clamp,
                    const std::vector<float>& x, index_t batch) {
  infer::SparseDnn dnn(layers, biases, clamp);
  const auto want = straight_forward(layers, biases, clamp, x, batch);
  infer::InferenceWorkspace ws;
  for (infer::Kernel arm : {infer::Kernel::kScatter, infer::Kernel::kGather,
                            infer::Kernel::kAuto}) {
    ws.force_kernel(arm);
    const auto got = dnn.forward(x.data(), batch, ws);
    const char* tag = arm == infer::Kernel::kScatter  ? "scatter"
                      : arm == infer::Kernel::kGather ? "gather"
                                                      : "auto";
    expect_bit_exact(got, want, tag);
    ASSERT_EQ(ws.last_dispatch().size(), layers.size());
    if (arm != infer::Kernel::kAuto) {
      for (const auto& d : ws.last_dispatch()) EXPECT_EQ(d.chosen, arm);
    }
  }
}

TEST(SparseDnnFused, RandomStacksBitExactAcrossArms) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    // Random chained widths, depth 2..4, mixed densities.
    const std::size_t depth = 2 + static_cast<std::size_t>(rng.uniform(3));
    std::vector<index_t> widths(depth + 1);
    for (auto& w : widths) w = 3 + static_cast<index_t>(rng.uniform(30));
    std::vector<Csr<float>> layers;
    std::vector<float> biases;
    for (std::size_t l = 0; l < depth; ++l) {
      layers.push_back(
          random_layer(widths[l], widths[l + 1], 0.35, rng));
      biases.push_back(static_cast<float>(rng.uniform(-0.5, 0.5)));
    }
    for (float clamp : {0.0f, 0.01f, 2.0f}) {
      for (index_t batch : {index_t{1}, index_t{9}, index_t{17}}) {
        const auto x = random_input(batch, widths[0], 0.5, rng);
        check_all_arms(layers, biases, clamp, x, batch);
      }
    }
  }
}

TEST(SparseDnnFused, RadixNetStacksBitExactAcrossArms) {
  // Real RadiX-Net topology, randomized (non-uniform) weights and
  // biases; batch 9 exercises the remainder tile (9 = 8 + 1).
  Rng rng(11);
  const Fnnt topo = gc::topology(1024, 4);
  std::vector<Csr<float>> layers;
  std::vector<float> biases;
  for (std::size_t l = 0; l < topo.depth(); ++l) {
    layers.push_back(topo.layer(l).map<float>(
        [&](pattern_t) { return static_cast<float>(rng.uniform(-0.2, 0.4)); }));
    biases.push_back(static_cast<float>(rng.uniform(-0.3, 0.1)));
  }
  Rng irng(5);
  const index_t batch = 9;
  const auto x = gc::synthetic_input(batch, 1024, 0.3, irng);
  for (float clamp : {0.0f, gc::kClamp}) {
    check_all_arms(layers, biases, clamp, x, batch);
  }
}

TEST(SparseDnnFused, UniformWeightNetworkBitExactAcrossArms) {
  // Challenge preset: every layer stores one repeated weight, so the
  // engine takes the uniform-specialized kernels; both arms and the
  // uniform-aware reference must still agree bitwise.
  Rng rng(4);
  const auto net = gc::network(1024, 4, &rng);
  std::vector<float> biases(net.layers.size(), net.bias);
  Rng irng(6);
  for (index_t batch : {index_t{1}, index_t{8}, index_t{13}}) {
    const auto x = gc::synthetic_input(batch, 1024, 0.4, irng);
    check_all_arms(net.layers, biases, gc::kClamp, x, batch);
  }
}

TEST(SparseDnnFused, SaturatingClampAndEmptyBatch) {
  Rng rng(7);
  std::vector<Csr<float>> layers = {random_layer(10, 12, 0.5, rng),
                                    random_layer(12, 8, 0.5, rng)};
  std::vector<float> biases = {5.0f, 5.0f};  // drive everything positive
  // clamp well below the bias: every active output saturates.
  check_all_arms(layers, biases, /*clamp=*/0.25f,
                 random_input(6, 10, 0.8, rng), 6);
  // Empty batch: all arms must return an empty span and record stats.
  infer::SparseDnn dnn(layers, biases, 0.25f);
  infer::InferenceWorkspace ws;
  infer::InferenceStats stats;
  const auto y = dnn.forward(nullptr, 0, ws, &stats);
  EXPECT_TRUE(y.empty());
  EXPECT_EQ(stats.edges_processed, 0u);
  EXPECT_EQ(stats.nonzero_outputs, 0u);
}

TEST(SparseDnnFused, RejectsInputAliasingWorkspacePanels) {
  // A span returned by forward aliases a panel; feeding it back while
  // the kernels rewrite (or reserve() reallocates) those panels would
  // corrupt the pass, so the engine must refuse it.
  Rng rng(31);
  std::vector<Csr<float>> layers = {random_layer(8, 8, 0.6, rng)};
  infer::SparseDnn dnn(layers, 0.1f);
  infer::InferenceWorkspace ws;
  const auto x = random_input(2, 8, 0.8, rng);
  const auto y = dnn.forward(x.data(), 2, ws);
  EXPECT_THROW((void)dnn.forward(y.data(), 2, ws), Error);
}

TEST(SparseDnnFused, VectorOverloadMatchesSpanOverload) {
  Rng rng(9);
  std::vector<Csr<float>> layers = {random_layer(14, 9, 0.4, rng)};
  infer::SparseDnn dnn(layers, std::vector<float>{-0.1f}, 2.0f);
  const auto x = random_input(5, 14, 0.6, rng);
  infer::InferenceWorkspace ws;
  const auto span_y = dnn.forward(x.data(), 5, ws);
  const auto vec_y = dnn.forward(x, 5);
  expect_bit_exact(span_y, vec_y, "vector-vs-span");
}

TEST(SparseDnnFused, AutoDispatchTracksActivationDensity) {
  Rng rng(13);
  std::vector<Csr<float>> layers = {random_layer(64, 64, 0.3, rng),
                                    random_layer(64, 64, 0.3, rng)};
  infer::SparseDnn dnn(layers, std::vector<float>{0.0f, 0.0f});
  infer::InferenceWorkspace ws;

  // All-zero input: density 0 -> the scatter arm's row skip wins.
  std::vector<float> zeros(64 * 4, 0.0f);
  (void)dnn.forward(zeros.data(), 4, ws);
  ASSERT_EQ(ws.last_dispatch().size(), 2u);
  EXPECT_EQ(ws.last_dispatch()[0].chosen, infer::Kernel::kScatter);
  EXPECT_DOUBLE_EQ(ws.last_dispatch()[0].input_density, 0.0);
  EXPECT_EQ(ws.last_dispatch()[0].nonzero_outputs, 0u);

  // Fully dense input: density 1 -> gather.
  std::vector<float> ones(64 * 4, 1.0f);
  (void)dnn.forward(ones.data(), 4, ws);
  EXPECT_EQ(ws.last_dispatch()[0].chosen, infer::Kernel::kGather);
  EXPECT_DOUBLE_EQ(ws.last_dispatch()[0].input_density, 1.0);
}

// Panel layout by layer position: layer 0 reads the caller's row-major
// batch, inner activations are tiled, the last layer writes row-major.
// Every batch 1..17 puts each partial-tile size 1..7 next to full tiles.
TEST(SparseDnnFused, TiledPanelsEveryBatchSizeDepthOneAndTwo) {
  Rng rng(41);
  const std::vector<Csr<float>> one = {random_layer(19, 23, 0.4, rng)};
  const std::vector<Csr<float>> two = {random_layer(19, 23, 0.4, rng),
                                       random_layer(23, 11, 0.4, rng)};
  for (index_t batch = 1; batch <= 17; ++batch) {
    const auto x = random_input(batch, 19, 0.5, rng);
    // Depth 1: row-major in and out.  Depth 2: row-major -> tiled ->
    // row-major.
    check_all_arms(one, {0.1f}, 1.5f, x, batch);
    check_all_arms(two, {0.1f, -0.05f}, 1.5f, x, batch);
  }
}

TEST(SparseDnnFused, TiledPanelsUniformDeepStackEveryBatchSize) {
  // Uniform-weight challenge layers (the specialized kernels), depth 4:
  // three tiled inner panels between row-major ends.
  Rng rng(43);
  const auto net = gc::network(1024, 4, &rng);
  const std::vector<float> biases(net.layers.size(), net.bias);
  Rng irng(44);
  for (index_t batch = 1; batch <= 17; ++batch) {
    const auto x = gc::synthetic_input(batch, 1024, 0.4, irng);
    check_all_arms(net.layers, biases, gc::kClamp, x, batch);
  }
}

// forward copies the input batch, tiled, into a workspace panel, so the
// panels must cover the input width as well as every layer output:
// inputs wider and narrower than every layer, general and uniform
// weights, every batch 1..17, all arms bit-exact against the reference;
// after prewarm for the largest batch, forwards of every size keep the
// same panels and allocate nothing.
TEST(SparseDnnFused, InputPanelWiderAndNarrowerThanEveryLayer) {
  Rng rng(47);
  const auto uniform = [](Csr<float> w) {
    return w.map<float>([](float) { return 0.25f; });
  };
  const std::vector<std::vector<Csr<float>>> stacks = {
      {random_layer(40, 12, 0.4, rng), random_layer(12, 9, 0.4, rng)},
      {uniform(random_layer(40, 12, 0.4, rng)),
       uniform(random_layer(12, 9, 0.4, rng))},
      {random_layer(6, 30, 0.5, rng), random_layer(30, 25, 0.4, rng)},
      {uniform(random_layer(6, 30, 0.5, rng)),
       uniform(random_layer(30, 25, 0.4, rng))}};
  const std::vector<float> biases = {-0.05f, 0.1f};
  for (const auto& layers : stacks) {
    const index_t in = layers.front().rows();
    for (index_t batch = 1; batch <= 17; ++batch) {
      check_all_arms(layers, biases, 1.5f,
                     random_input(batch, in, 0.6, rng), batch);
    }

    infer::SparseDnn dnn(layers, biases, 1.5f);
    EXPECT_EQ(dnn.max_width(), std::max({in, layers[0].cols(),
                                         layers[1].cols()}));
    infer::InferenceWorkspace ws;
    dnn.prewarm({.max_batch = 17, .workspace = &ws});
    const float* panel = ws.panel_data();
    const std::size_t cap = ws.capacity();
    EXPECT_EQ(cap, std::size_t{17} * dnn.max_width());
    std::vector<std::vector<float>> inputs;
    for (index_t batch = 1; batch <= 17; ++batch) {
      inputs.push_back(random_input(batch, in, 0.6, rng));
    }
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (index_t batch = 1; batch <= 17; ++batch) {
      (void)dnn.forward(inputs[batch - 1].data(), batch, ws);
    }
    g_count_allocs.store(false);
    EXPECT_EQ(g_alloc_count.load(), 0u);
    EXPECT_EQ(ws.panel_data(), panel);
    EXPECT_EQ(ws.capacity(), cap);
  }
}

// Implicit layers (sparse/radix_windows.hpp): the gather arm computes a
// layer's inputs from eq. (1) windows when its weights are uniform and
// every output reads exactly one window; any other layer keeps W^T.
std::vector<bool> implicit_layers(const infer::SparseDnn& dnn) {
  std::vector<bool> out;
  for (std::size_t k = 0; k < dnn.depth(); ++k) {
    out.push_back(dnn.layer_implicit(k));
  }
  return out;
}

TEST(SparseDnnFused, ImplicitLayersAreExactlyTheUniformWindowLayers) {
  // Challenge networks, shuffled or not: every layer implicit.
  for (const bool shuffled : {false, true}) {
    Rng rng(51);
    const auto net = gc::network(1024, 4, shuffled ? &rng : nullptr);
    const infer::SparseDnn dnn(net.layers, net.bias, gc::kClamp);
    EXPECT_EQ(implicit_layers(dnn), std::vector<bool>(4, true));
  }
  // The same topology with non-uniform weights: every layer explicit.
  Rng rng(52);
  const Fnnt topo = gc::topology(1024, 4);
  std::vector<Csr<float>> weighted;
  for (std::size_t l = 0; l < topo.depth(); ++l) {
    weighted.push_back(topo.layer(l).map<float>(
        [&](pattern_t) { return static_cast<float>(rng.uniform(0.1, 0.2)); }));
  }
  const infer::SparseDnn nonuniform(weighted, -0.1f);
  EXPECT_EQ(implicit_layers(nonuniform), std::vector<bool>(4, false));
  // A D > 1 Kronecker spec with uniform weights: layer 1 reads two
  // windows per output (one per dense block) and stays explicit; the
  // full-turn windows of layers 0 and 2 survive the Kronecker stage.
  const Fnnt kron = build_radix_net({{2, 3, 4}}, {1, 2, 2, 1});
  std::vector<Csr<float>> kron_layers;
  for (std::size_t l = 0; l < kron.depth(); ++l) {
    kron_layers.push_back(
        kron.layer(l).map<float>([](pattern_t) { return 0.25f; }));
  }
  const infer::SparseDnn kron_dnn(kron_layers, -0.05f);
  EXPECT_EQ(implicit_layers(kron_dnn),
            (std::vector<bool>{true, false, true}));
  // Random uniform-weight CSR: explicit.
  Coo<float> coo(30, 30);
  for (index_t r = 0; r < 30; ++r) {
    for (index_t c = 0; c < 30; ++c) {
      if (rng.bernoulli(0.2)) coo.push(r, c, 0.5f);
    }
  }
  const infer::SparseDnn random_dnn({Csr<float>::from_coo(coo)}, 0.0f);
  EXPECT_FALSE(random_dnn.layer_implicit(0));
}

TEST(SparseDnnFused, ImplicitForwardEveryBatchSizeBothLayouts) {
  // Depth 1 runs row-major in and out; depth 4 adds three tiled inner
  // panels.  Shuffled challenge layers, so windows wrap.
  Rng rng(53);
  const auto net = gc::network(1024, 4, &rng);
  const std::vector<float> biases(net.layers.size(), net.bias);
  const std::vector<Csr<float>> one = {net.layers[1]};
  ASSERT_EQ(implicit_layers(infer::SparseDnn(net.layers, biases, gc::kClamp)),
            std::vector<bool>(4, true));
  Rng irng(54);
  for (index_t batch = 1; batch <= 17; ++batch) {
    const auto x = gc::synthetic_input(batch, 1024, 0.4, irng);
    check_all_arms(one, {net.bias}, gc::kClamp, x, batch);
    check_all_arms(net.layers, biases, gc::kClamp, x, batch);
  }
  // The Kronecker stack mixes implicit and explicit layers in one pass.
  const Fnnt kron = build_radix_net({{2, 3, 4}}, {1, 2, 2, 1});
  std::vector<Csr<float>> kron_layers;
  for (std::size_t l = 0; l < kron.depth(); ++l) {
    kron_layers.push_back(
        kron.layer(l).map<float>([](pattern_t) { return 0.25f; }));
  }
  for (index_t batch = 1; batch <= 17; ++batch) {
    const auto x = random_input(batch, kron_layers[0].rows(), 0.6, irng);
    check_all_arms(kron_layers, {0.1f, -0.05f, 0.0f}, 3.0f, x, batch);
  }
}

TEST(SparseDnnFused, ImplicitForwardAtTheChallengeShapes) {
  // The two benchmark shapes: width 16384 x 12 layers at batch 32 and
  // width 4096 x 24 layers at batch 64, every input at density 0.4.
  struct Shape {
    index_t width;
    std::size_t layers;
    index_t batch;
  };
  for (const Shape s : {Shape{16384, 12, 32}, Shape{4096, 24, 64}}) {
    Rng rng(s.width);
    const auto net = gc::network(s.width, s.layers, &rng);
    const std::vector<float> biases(net.layers.size(), net.bias);
    ASSERT_EQ(
        implicit_layers(infer::SparseDnn(net.layers, biases, gc::kClamp)),
        std::vector<bool>(s.layers, true));
    Rng irng(s.width + 1);
    const auto x = gc::synthetic_input(s.batch, s.width, 0.4, irng);
    check_all_arms(net.layers, biases, gc::kClamp, x, s.batch);
  }
}

// A layer whose in-edges all land in the first `live_cols` columns, with
// nonnegative weights: over a dense nonnegative input its output is
// dense there and (with bias 0) zero elsewhere.
Csr<float> narrow_layer(index_t rows, index_t cols, index_t live_cols,
                        Rng& rng) {
  Coo<float> coo(rows, cols);
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < live_cols; ++c) {
      if (rng.bernoulli(0.5)) {
        coo.push(r, c, static_cast<float>(rng.uniform(0.1, 1.0)));
      }
    }
  }
  return Csr<float>::from_coo(coo);
}

TEST(SparseDnnFused, AutoDispatchMixesArmsWithinOneForward) {
  // Input density 0.1 -> scatter; a positive bias makes layer 0's output
  // dense -> gather; layer 1 feeds only 3 of 40 columns -> scatter on
  // tiled panels; layer 2's positive bias makes it dense again -> gather
  // into the row-major result.
  Rng rng(47);
  const std::vector<Csr<float>> layers = {
      random_layer(30, 40, 0.4, rng), narrow_layer(40, 40, 3, rng),
      random_layer(40, 36, 0.4, rng), random_layer(36, 20, 0.4, rng)};
  const std::vector<float> biases = {1.0f, 0.0f, 1.0f, 0.05f};
  const std::vector<infer::Kernel> want_arms = {
      infer::Kernel::kScatter, infer::Kernel::kGather,
      infer::Kernel::kScatter, infer::Kernel::kGather};
  infer::SparseDnn dnn(layers, biases, 4.0f);
  for (index_t batch = 1; batch <= 17; ++batch) {
    std::vector<float> x(static_cast<std::size_t>(batch) * 30, 0.0f);
    for (auto& v : x) {
      if (rng.bernoulli(0.1)) v = static_cast<float>(rng.uniform(0.0, 2.0));
    }
    check_all_arms(layers, biases, 4.0f, x, batch);
    infer::InferenceWorkspace ws;
    (void)dnn.forward(x.data(), batch, ws);
    ASSERT_EQ(ws.last_dispatch().size(), want_arms.size());
    for (std::size_t k = 0; k < want_arms.size(); ++k) {
      EXPECT_EQ(ws.last_dispatch()[k].chosen, want_arms[k])
          << "batch " << batch << " layer " << k << " density "
          << ws.last_dispatch()[k].input_density;
    }
  }
}

TEST(SparseDnnFused, WorkspaceReuseIsZeroAllocation) {
  Rng rng(21);
  const auto net = gc::network(1024, 4, &rng);
  infer::SparseDnn dnn(net.layers, net.bias, gc::kClamp);
  Rng irng(3);
  const index_t batch = 16;
  const auto x = gc::synthetic_input(batch, 1024, 0.4, irng);

  infer::InferenceWorkspace ws;
  infer::InferenceStats stats;
  // Warm-up sizes the panels and builds any lazy transposes.
  const auto y1 = dnn.forward(x.data(), batch, ws, &stats);
  const std::vector<float> first(y1.begin(), y1.end());
  const float* panel_before = ws.panel_data();
  const std::size_t cap_before = ws.capacity();
  EXPECT_EQ(cap_before, static_cast<std::size_t>(batch) * 1024);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  const auto y2 = dnn.forward(x.data(), batch, ws, &stats);
  g_count_allocs.store(false);
  const std::uint64_t allocs = g_alloc_count.load();

  EXPECT_EQ(allocs, 0u) << "steady-state forward must not allocate";
  EXPECT_EQ(ws.panel_data(), panel_before);
  EXPECT_EQ(ws.capacity(), cap_before);
  expect_bit_exact(y2, first, "steady-state reuse");
}

TEST(SparseDnnFused, PrewarmMakesFirstForwardZeroAllocation) {
  // Without prewarm, the first forward pays one-time costs: panel
  // sizing, the dispatch-trace reserve, and (on the gather arm) the
  // lazily built transposed layers.  prewarm(WorkspaceHint) pays all of
  // them up front, so even the *first* forward through the hinted
  // workspace is allocation-free -- the property the serving engine
  // relies on at model registration.
  Rng rng(25);
  const auto net = gc::network(1024, 4, &rng);
  infer::SparseDnn dnn(net.layers, net.bias, gc::kClamp);
  Rng irng(4);
  const index_t batch = 8;
  const auto x = gc::synthetic_input(batch, 1024, 0.4, irng);

  infer::InferenceWorkspace ws;
  // Force the gather arm: every layer must find its transpose already
  // cached (auto dispatch would also be covered, but this pins the
  // worst case).
  ws.force_kernel(infer::Kernel::kGather);
  dnn.prewarm({.max_batch = batch, .workspace = &ws});
  EXPECT_EQ(ws.capacity(), static_cast<std::size_t>(batch) * 1024);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  const auto y1 = dnn.forward(x.data(), batch, ws);
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "first forward after prewarm must not allocate";

  // Bit-exact against an un-prewarmed engine: prewarm changes when the
  // caches are built, never what the pass computes.
  infer::SparseDnn cold(net.layers, net.bias, gc::kClamp);
  infer::InferenceWorkspace cold_ws;
  cold_ws.force_kernel(infer::Kernel::kGather);
  const auto y2 = cold.forward(x.data(), batch, cold_ws);
  expect_bit_exact(y1, std::vector<float>(y2.begin(), y2.end()), "prewarm");

  // Idempotent, and a null-workspace hint (transposes only) is allowed.
  dnn.prewarm({.max_batch = batch, .workspace = &ws});
  dnn.prewarm();
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  (void)dnn.forward(x.data(), batch, ws);
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u);
}

TEST(SparseDnnFused, PrewarmRacingForwardsStaysBitExact) {
  // prewarm builds the gather entries outside the cache mutex (in
  // parallel at this size) and publishes only into empty slots, while
  // forwards fill slots lazily under the mutex.  Every forward must stay
  // bit-exact.  One non-uniform layer makes a transpose entry race too.
  Rng rng(3);
  auto net = gc::network(4096, 24, &rng);
  net.layers[2].values()[0] *= 2.0f;
  const auto x = gc::synthetic_input(8, 4096, 0.4, rng);
  const auto want =
      infer::SparseDnn(net.layers, net.bias, gc::kClamp).forward(x, 8);
  for (int round = 0; round < 3; ++round) {
    const infer::SparseDnn dnn(net.layers, net.bias, gc::kClamp);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&] {
        if (dnn.forward(x, 8) != want) ++mismatches;
      });
    }
    dnn.prewarm();
    for (auto& t : threads) t.join();
    EXPECT_EQ(mismatches.load(), 0) << "round " << round;
    EXPECT_FALSE(dnn.layer_implicit(2));
    EXPECT_TRUE(dnn.layer_implicit(3));
    EXPECT_EQ(dnn.forward(x, 8), want) << "round " << round;
  }
}

TEST(SparseDnnFused, WorkspaceGrowsMonotonically) {
  Rng rng(23);
  std::vector<Csr<float>> layers = {random_layer(8, 32, 0.5, rng)};
  infer::SparseDnn dnn(layers, 0.0f);
  infer::InferenceWorkspace ws;
  (void)dnn.forward(std::vector<float>(2 * 8, 1.0f).data(), 2, ws);
  EXPECT_EQ(ws.capacity(), 2u * 32u);
  (void)dnn.forward(std::vector<float>(6 * 8, 1.0f).data(), 6, ws);
  EXPECT_EQ(ws.capacity(), 6u * 32u);
  // Shrinking batch keeps the larger panels (no thrash).
  (void)dnn.forward(std::vector<float>(1 * 8, 1.0f).data(), 1, ws);
  EXPECT_EQ(ws.capacity(), 6u * 32u);
}

}  // namespace
}  // namespace radix
