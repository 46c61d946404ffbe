// The model-lifecycle log: the one record of a serving model set, in
// memory or backed by an event file in a store directory.
//
// Rows.  Row `id` is model id `id`: its SparseDnn handle, name, QoS,
// version count and retired flag.  Ids are never reused: a removed
// model and an id burned by a rolled-back registration both stay as a
// retired row (a tombstone, weights released), so every replica built
// from the rows -- a shard rebuilt by restart_shard, a daemon booted
// from its store -- has the same id space.
//
// Event file (store_dir/journal), one event per line:
//
//     radix-journal v1
//     add\t<model>\t<artifact-file>\t<priority>
//     swap\t<model>\t<artifact-file>\t<priority>
//     remove\t<model>
//     tombstone\t<model>
//
// Fold by id: the k-th `add` creates row k; `swap` bumps the version of
// the live row it names; `remove` (removed model) and `tombstone`
// (burned id) retire it.  Opening a log folds its events, then maps
// each live row's artifact once, so a warm restart has the ids, names,
// versions and tombstones it had before the crash.  A malformed event,
// or one naming no live row (a live one, for `add`), throws IoError.
//
// Commit order.  An add's or swap's artifact is written first, under a
// staging name and outside the caller's lock (stage()).  The mutation
// then checks the event against the rows, renames the staged file to
// model-<id>[.v<version>].radixart, commits the whole event list with
// write_file_atomic, and only then changes the rows; a failed commit
// throws and changes nothing.  burn() alone retires its row even if its
// commit throws (the caller already rolled back); the next commit then
// writes the event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "infer/sparse_dnn.hpp"
#include "serve/qos.hpp"

namespace radix::store {

enum class JournalOp : std::uint8_t {
  kAdd,
  kSwap,
  kRemove,
  kTombstone,
};

struct JournalEvent {
  JournalOp op;
  std::string model;
  std::string artifact;  // file name relative to the store dir ("" for
                         // remove/tombstone)
  std::uint8_t priority = 0;
};

struct ModelRow {
  std::shared_ptr<const infer::SparseDnn> dnn;  // null once retired
  std::string name;
  serve::QosPolicy qos;  // the event file keeps only qos.priority
  std::uint32_t version = 1;
  bool retired = false;
  std::string artifact;  // file of the current version ("" in memory)
};

/// Artifact bytes written ahead of a log mutation (stage()): the file is
/// unlinked when the handle dies, unless a mutation adopted it.
struct UnlinkStaged {
  void operator()(std::string* path) const noexcept;
};
using StagedArtifact = std::unique_ptr<std::string, UnlinkStaged>;

class RegistryJournal {
 public:
  /// An in-memory log: rows only, nothing written anywhere.
  RegistryJournal() = default;

  /// Opens the log in `store_dir` (created if missing), folds its events
  /// into rows and maps every live artifact.  Throws IoError
  /// (ChecksumError etc. for a damaged artifact) on anything malformed.
  explicit RegistryJournal(const std::string& store_dir);

  const std::vector<ModelRow>& rows() const noexcept { return rows_; }
  bool file_backed() const noexcept { return !dir_.empty(); }

  /// Id of the live row named `name`.
  std::optional<std::size_t> find(std::string_view name) const;

  /// Write the artifact of `dnn`'s next add or swap into the store: a
  /// copy of `source` when given (a spec-only artifact stays spec-only),
  /// else save_artifact.  Reads no row, so it runs outside the lock that
  /// guards the mutations.  Stages nothing for an in-memory log.
  StagedArtifact stage(const infer::SparseDnn& dnn, const std::string& name,
                       const std::string& source = "") const;

  /// Mutations (see the file comment).  swap, remove and burn take a
  /// live id, and swap keeps the widths; add and swap stage the artifact
  /// themselves when given none.
  std::size_t add(std::shared_ptr<const infer::SparseDnn> dnn,
                  std::string name, serve::QosPolicy qos,
                  StagedArtifact staged = {});
  void swap(std::size_t id, std::shared_ptr<const infer::SparseDnn> dnn,
            StagedArtifact staged = {});
  void remove(std::size_t id);
  void burn(std::size_t id);

  /// Record an event whose artifact is already in the store (a tool
  /// seeding a store it does not serve).  File-backed logs only.
  void append(const JournalEvent& ev);

 private:
  /// Check `ev` against the rows and apply it; IoError, with the rows
  /// untouched, if it names no live row (an already live one, for add).
  void fold(const JournalEvent& ev,
            std::shared_ptr<const infer::SparseDnn> dnn, serve::QosPolicy qos);
  void record(const JournalEvent& ev,
              std::shared_ptr<const infer::SparseDnn> dnn,
              serve::QosPolicy qos, StagedArtifact staged);
  std::shared_ptr<const infer::SparseDnn> map(
      const std::string& artifact) const;
  const ModelRow& live_row(std::size_t id) const;

  std::string dir_;
  std::string body_;  // the event file's contents
  std::vector<ModelRow> rows_;
};

}  // namespace radix::store
