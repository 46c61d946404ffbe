// Model artifact store: RADIXART save/load round trips must be
// bit-exact against the in-memory original for both full-CSR and
// spec-only artifacts, full-CSR loads must be zero-copy (views point
// into the mapping, no per-edge allocations), and corrupt / truncated /
// malformed files must be rejected with the typed errors of
// store/format.hpp.
#include "store/artifact.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <vector>

// The replacement operator new below is malloc-backed, so pairing it
// with free() is correct; GCC cannot see that and warns at every
// allocator call site in this TU.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include "infer/sparse_dnn.hpp"
#include "radixnet/graph_challenge.hpp"
#include "radixnet_reference.hpp"
#include "store/format.hpp"
#include "support/error.hpp"
#include "support/random.hpp"

// ---------------------------------------------------------------------------
// Global operator new/delete replacement counting allocated bytes, so
// "zero-copy" is a measured property: instantiating a full-CSR artifact
// must not allocate anything proportional to the edge count.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<bool> g_count_allocs{false};

void note_alloc(std::size_t size) noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}
}  // namespace

void* operator new(std::size_t size) {
  note_alloc(size);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  note_alloc(size);
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
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace radix;
using store::ArtifactReader;

class StoreArtifactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "radixnet_store_test_" + std::to_string(::getpid());
    std::string cmd = "rm -rf " + dir_ + " && mkdir -p " + dir_;
    ASSERT_EQ(0, std::system(cmd.c_str()));
  }
  void TearDown() override {
    std::string cmd = "rm -rf " + dir_;
    (void)std::system(cmd.c_str());
  }
  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  static std::vector<std::uint8_t> slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in.good());
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
  }
  static void spit(const std::string& p,
                   const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    EXPECT_TRUE(out.good());
  }

  // A small shuffled challenge network (shuffled so it is NOT spec
  // reproducible -- the full-CSR path must carry the edges).
  static infer::SparseDnn shuffled_dnn() {
    Rng rng(7);
    auto net = gc::network(1024, 4, &rng);
    return infer::SparseDnn(std::move(net.layers), net.bias, gc::kClamp);
  }

  static infer::SparseDnn plain_dnn() {
    auto net = gc::network(1024, 4, nullptr);
    return infer::SparseDnn(std::move(net.layers), net.bias, gc::kClamp);
  }

  static std::vector<float> batch() {
    Rng rng(99);
    return gc::synthetic_input(8, 1024, 0.3, rng);
  }

  std::string dir_;
};

TEST_F(StoreArtifactTest, FullCsrRoundTripIsBitExact) {
  auto dnn = shuffled_dnn();
  const std::string p = path("full.radixart");
  store::save_artifact(p, dnn, "challenge-1024");

  ArtifactReader reader(p);
  EXPECT_EQ(reader.name(), "challenge-1024");
  EXPECT_FALSE(reader.spec_only());
  EXPECT_EQ(reader.num_layers(), dnn.depth());
  EXPECT_EQ(reader.clamp(), dnn.clamp());

  auto loaded = reader.instantiate();
  ASSERT_EQ(loaded.depth(), dnn.depth());
  EXPECT_EQ(loaded.total_nnz(), dnn.total_nnz());

  const auto input = batch();
  const auto want = dnn.forward(input, 8);
  const auto got = loaded.forward(input, 8);
  ASSERT_EQ(want.size(), got.size());
  EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                           want.size() * sizeof(float)));
}

TEST_F(StoreArtifactTest, SpecOnlyRoundTripIsBitExact) {
  auto dnn = plain_dnn();
  std::vector<float> weights;
  for (std::size_t k = 0; k < dnn.depth(); ++k) {
    ASSERT_TRUE(dnn.layer_uniform(k));
    weights.push_back(dnn.uniform_weight(k));
  }
  const std::string p = path("spec.radixart");
  store::save_spec_artifact(p, gc::spec(1024, 4), weights, dnn.biases(),
                            dnn.clamp(), "challenge-1024-spec");

  ArtifactReader reader(p);
  EXPECT_TRUE(reader.spec_only());
  EXPECT_EQ(reader.num_layers(), dnn.depth());
  // Spec-only artifacts carry no edges: orders of magnitude smaller
  // than the nnz they regenerate.
  EXPECT_LT(reader.file_size(), 4096u);

  auto loaded = reader.instantiate();
  ASSERT_EQ(loaded.depth(), dnn.depth());
  EXPECT_EQ(loaded.total_nnz(), dnn.total_nnz());

  const auto input = batch();
  const auto want = dnn.forward(input, 8);
  const auto got = loaded.forward(input, 8);
  ASSERT_EQ(want.size(), got.size());
  EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                           want.size() * sizeof(float)));
}

TEST_F(StoreArtifactTest, SpecOnlyInstantiateMatchesFullCsrOfTheSameNetwork) {
  // The spec-only loader regenerates the layers; the full-CSR artifact
  // carries the stage-wise reference composition's edges.  Cases: D-blocks
  // with a partial last system and per-layer weights, and a challenge
  // spec with its in-degree weights.
  struct Case {
    RadixNetSpec spec;
    std::vector<float> weights;
  };
  const Case cases[] = {
      {RadixNetSpec({MixedRadix({4, 4}), MixedRadix({2, 2})},
                    {1, 2, 1, 3, 1}),
       {0.5f, 0.25f, 0.125f, 1.0f}},
      {gc::spec(4096, 6),
       {0.0625f, 0.0625f, 0.5f, 0.0625f, 0.0625f, 0.5f}},
  };
  for (const Case& c : cases) {
    const std::vector<float> biases(c.weights.size(), -0.25f);
    const std::string full_path = path("full.radixart");
    const std::string spec_path = path("spec.radixart");
    store::save_artifact(
        full_path,
        infer::SparseDnn(reference::weighted(c.spec, c.weights), biases,
                         gc::kClamp),
        "full");
    store::save_spec_artifact(spec_path, c.spec, c.weights, biases,
                              gc::kClamp, "spec");
    const auto full = ArtifactReader(full_path).instantiate();
    const auto regenerated = ArtifactReader(spec_path).instantiate();
    ASSERT_EQ(regenerated.depth(), full.depth());
    EXPECT_EQ(regenerated.biases(), full.biases());
    for (std::size_t k = 0; k < full.depth(); ++k) {
      reference::expect_same_csr(
          regenerated.layer_view(k), full.layer_view(k),
          c.spec.to_string() + " layer " + std::to_string(k));
    }
  }
}

TEST_F(StoreArtifactTest, FullCsrInstantiateIsZeroCopy) {
  auto dnn = shuffled_dnn();
  const std::string p = path("zerocopy.radixart");
  store::save_artifact(p, dnn, "m");

  ArtifactReader reader(p);
  const std::uint64_t edge_bytes =
      dnn.total_nnz() * (sizeof(index_t) + sizeof(float));

  g_alloc_bytes.store(0);
  g_count_allocs.store(true);
  auto loaded = reader.instantiate();
  g_count_allocs.store(false);

  // Instantiation allocates bookkeeping (vectors of views, biases,
  // uniform-weight flags) but never copies the edge arrays: the bytes
  // allocated must be far below the edge payload it would have copied.
  EXPECT_LT(g_alloc_bytes.load(), edge_bytes / 8)
      << "instantiate() copied per-edge data (" << g_alloc_bytes.load()
      << " bytes allocated for " << edge_bytes << " edge bytes)";

  // And the layer views must point into the mapping itself.
  const auto* base = reader.mapped_base();
  const auto* end = base + reader.mapped_size();
  for (std::size_t k = 0; k < loaded.depth(); ++k) {
    const auto v = loaded.layer_view(k);
    const auto* vals = reinterpret_cast<const std::uint8_t*>(v.values().data());
    const auto* cols = reinterpret_cast<const std::uint8_t*>(v.colind().data());
    EXPECT_TRUE(vals >= base && vals < end);
    EXPECT_TRUE(cols >= base && cols < end);
  }
}

TEST_F(StoreArtifactTest, MappingOutlivesReader) {
  auto dnn = plain_dnn();
  const std::string p = path("pin.radixart");
  store::save_artifact(p, dnn, "m");

  const auto input = batch();
  const auto want = dnn.forward(input, 8);

  std::vector<float> got;
  {
    // The reader dies before the model runs; the instantiated engine's
    // keep-alive must pin the mapping.
    auto loaded = [&] { return ArtifactReader(p).instantiate(); }();
    got = loaded.forward(input, 8);
  }
  EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                           want.size() * sizeof(float)));
}

TEST_F(StoreArtifactTest, CorruptPayloadThrowsChecksumError) {
  auto dnn = plain_dnn();
  const std::string p = path("bitflip.radixart");
  store::save_artifact(p, dnn, "m");

  auto bytes = slurp(p);
  bytes[bytes.size() - 5] ^= 0x40;  // flip one bit deep in a payload
  spit(path("bad.radixart"), bytes);
  EXPECT_THROW(ArtifactReader(path("bad.radixart")), store::ChecksumError);
}

TEST_F(StoreArtifactTest, CorruptSectionTableThrowsChecksumError) {
  auto dnn = plain_dnn();
  const std::string p = path("table.radixart");
  store::save_artifact(p, dnn, "m");

  auto bytes = slurp(p);
  bytes[64 + 8] ^= 0x01;  // first section entry, offset field
  spit(path("bad.radixart"), bytes);
  EXPECT_THROW(ArtifactReader(path("bad.radixart")), store::ChecksumError);
}

TEST_F(StoreArtifactTest, TruncatedFileThrowsTruncatedError) {
  auto dnn = plain_dnn();
  const std::string p = path("whole.radixart");
  store::save_artifact(p, dnn, "m");

  auto bytes = slurp(p);
  bytes.resize(bytes.size() - 64);
  spit(path("short.radixart"), bytes);
  EXPECT_THROW(ArtifactReader(path("short.radixart")), store::TruncatedError);

  std::vector<std::uint8_t> stub(bytes.begin(), bytes.begin() + 16);
  spit(path("stub.radixart"), stub);
  EXPECT_THROW(ArtifactReader(path("stub.radixart")), store::TruncatedError);
}

TEST_F(StoreArtifactTest, BadMagicAndVersionThrowFormatError) {
  auto dnn = plain_dnn();
  const std::string p = path("hdr.radixart");
  store::save_artifact(p, dnn, "m");

  auto bytes = slurp(p);
  auto magic = bytes;
  magic[0] = 'X';
  spit(path("magic.radixart"), magic);
  EXPECT_THROW(ArtifactReader(path("magic.radixart")), store::FormatError);

  auto version = bytes;
  version[8] = 0x7f;  // FileHeader.version low byte
  spit(path("version.radixart"), version);
  EXPECT_THROW(ArtifactReader(path("version.radixart")), store::FormatError);
}

TEST_F(StoreArtifactTest, TypedErrorsAreIoErrors) {
  auto dnn = plain_dnn();
  const std::string p = path("typed.radixart");
  store::save_artifact(p, dnn, "m");

  auto bytes = slurp(p);
  bytes.back() ^= 0xff;
  spit(path("bad.radixart"), bytes);
  try {
    ArtifactReader reader(path("bad.radixart"));
    FAIL() << "corrupt artifact must not construct";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST_F(StoreArtifactTest, MissingFileThrowsIoError) {
  EXPECT_THROW(ArtifactReader(path("nope.radixart")), IoError);
}

TEST_F(StoreArtifactTest, SaveOverwritesAtomically) {
  auto a = plain_dnn();
  const std::string p = path("same.radixart");
  store::save_artifact(p, a, "first");
  store::save_artifact(p, a, "second");
  ArtifactReader reader(p);
  EXPECT_EQ(reader.name(), "second");
}

}  // namespace
