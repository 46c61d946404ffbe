// Model artifact save/load on the RADIXART format (store/format.hpp).
//
// save_artifact serializes a SparseDnn's layer views, biases and clamp
// into a full-CSR artifact; save_spec_artifact writes the spec-only
// variant (mixed-radix spec text + per-layer uniform weights) that
// regenerates its topology through radixnet::builder on load.  Both
// commit via write-to-temp + fsync + atomic rename.
//
// ArtifactReader mmaps an artifact read-only and validates it eagerly
// (magic, version, header hash, truncation, per-section checksums, CSR
// invariants) -- the constructor throws the typed errors of
// store/format.hpp on anything suspect, so a reader that constructs is
// safe to instantiate from.  instantiate() of a full-CSR artifact is
// zero-copy: the returned SparseDnn's layers are CsrFloatViews directly
// into the mapping, which stays pinned by the engine's shared_ptr
// keep-alive for as long as any instantiated model lives.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "infer/sparse_dnn.hpp"
#include "radixnet/spec.hpp"
#include "store/format.hpp"

namespace radix::store {

/// Commit `bytes` as the file at `path`, crash-safely: write
/// `path`.tmp, fsync it, rename it over `path`, fsync the directory.  A
/// reader sees the old file or the new one, never a torn one.
void write_file_atomic(const std::string& path, std::string_view bytes);

/// Serialize `dnn` as a full-CSR artifact at `path` (temp + rename).
void save_artifact(const std::string& path, const infer::SparseDnn& dnn,
                   const std::string& name);

/// Serialize a spec-only artifact: `spec` regenerates the topology on
/// load; `layer_weights` carries each layer's uniform nonzero weight
/// (one per edge layer of the spec).  Column-shuffled networks cannot
/// round-trip through this variant -- the shuffle is not in the spec.
void save_spec_artifact(const std::string& path, const RadixNetSpec& spec,
                        std::span<const float> layer_weights,
                        std::span<const float> biases, float clamp,
                        const std::string& name);

class ArtifactReader {
 public:
  /// Maps and fully validates the artifact; throws FormatError /
  /// ChecksumError / TruncatedError (or plain IoError for open/map
  /// failures).
  explicit ArtifactReader(const std::string& path);

  const std::string& name() const noexcept { return name_; }
  bool spec_only() const noexcept;
  std::size_t num_layers() const noexcept { return layer_count_; }
  float clamp() const noexcept { return clamp_; }
  std::uint64_t file_size() const noexcept;

  /// Build the model.  Full-CSR artifacts are viewed zero-copy (the
  /// mapping is kept alive by the returned engine); spec-only artifacts
  /// rebuild the topology through radixnet::builder.
  infer::SparseDnn instantiate() const;

  /// The raw mapping, for tests asserting views point into it.
  const std::uint8_t* mapped_base() const noexcept;
  std::size_t mapped_size() const noexcept;

 private:
  class Mapping;

  const SectionEntry* find(SectionKind kind,
                           std::uint32_t layer = kNoLayer) const;
  const SectionEntry& require(SectionKind kind,
                              std::uint32_t layer = kNoLayer) const;
  const std::uint8_t* payload(const SectionEntry& s) const;

  std::string path_;
  std::shared_ptr<const Mapping> map_;
  FileHeader header_{};
  std::vector<SectionEntry> sections_;
  std::string name_;
  float clamp_ = 0.0f;
  std::uint32_t layer_count_ = 0;
};

}  // namespace radix::store
