#include "store/journal.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <utility>

#include "store/artifact.hpp"
#include "support/error.hpp"

namespace radix::store {

namespace {

constexpr const char* kJournalHeader = "radix-journal v1";
constexpr const char* kOpNames[] = {"add", "swap", "remove", "tombstone"};

bool carries_artifact(JournalOp op) {
  return op == JournalOp::kAdd || op == JournalOp::kSwap;
}

std::string format_event(const JournalEvent& ev) {
  std::string line =
      kOpNames[static_cast<std::size_t>(ev.op)] + ('\t' + ev.model);
  if (carries_artifact(ev.op)) {
    line += '\t' + ev.artifact + '\t' + std::to_string(ev.priority);
  }
  return line + '\n';
}

// Fields that cannot break the line format, and a known priority class.
void check_event(const JournalEvent& ev) {
  const auto bad = [](const std::string& f) {
    return f.empty() || f.find_first_of("\t\n") != std::string::npos;
  };
  if (bad(ev.model) || (carries_artifact(ev.op) && bad(ev.artifact))) {
    throw IoError("journal: empty field, or a tab or newline in one");
  }
  if (ev.priority >= serve::kNumPriorities) {
    throw IoError("journal: bad priority " + std::to_string(ev.priority));
  }
}

JournalEvent parse_event(const std::string& line) {
  std::vector<std::string> f(1);
  for (const char c : line) {
    if (c == '\t') f.emplace_back();
    else f.back() += c;
  }
  const auto op = std::find(std::begin(kOpNames), std::end(kOpNames), f[0]);
  if (op == std::end(kOpNames)) throw IoError("unknown op '" + f[0] + "'");
  JournalEvent ev{static_cast<JournalOp>(op - std::begin(kOpNames)), "", "",
                  0};
  const bool carries = carries_artifact(ev.op);
  if (f.size() != (carries ? 4u : 2u)) {
    throw IoError("wrong field count for '" + f[0] + "'");
  }
  ev.model = f[1];
  if (carries) {
    // One character; check_event rejects all but '0'..'2'.
    if (f[3].size() != 1) throw IoError("bad priority '" + f[3] + "'");
    ev.artifact = f[2];
    ev.priority = static_cast<std::uint8_t>(f[3][0] - '0');
  }
  check_event(ev);
  return ev;
}

// model-<id>.radixart, then model-<id>.v<version>.radixart per swap.
std::string artifact_file(std::size_t id, std::uint32_t version) {
  return "model-" + std::to_string(id) +
         (version > 1 ? ".v" + std::to_string(version) : "") + ".radixart";
}

}  // namespace

void RegistryJournal::fold(const JournalEvent& ev,
                           std::shared_ptr<const infer::SparseDnn> dnn,
                           serve::QosPolicy qos) {
  const auto live = find(ev.model);
  if (ev.op == JournalOp::kAdd) {
    if (live) throw IoError("journal: model '" + ev.model + "' is live");
    rows_.push_back({std::move(dnn), ev.model, qos, 1, false, ev.artifact});
    return;
  }
  if (!live) throw IoError("journal: no live model '" + ev.model + "'");
  ModelRow& row = rows_[*live];
  if (ev.op == JournalOp::kSwap) {
    row.dnn = std::move(dnn);
    row.artifact = ev.artifact;
    ++row.version;
  } else {
    row.dnn = nullptr;
    row.retired = true;
  }
}

std::optional<std::size_t> RegistryJournal::find(std::string_view name) const {
  for (std::size_t id = 0; id < rows_.size(); ++id) {
    if (!rows_[id].retired && rows_[id].name == name) return id;
  }
  return std::nullopt;
}

void UnlinkStaged::operator()(std::string* path) const noexcept {
  ::unlink(path->c_str());
  delete path;
}

RegistryJournal::RegistryJournal(const std::string& store_dir)
    : dir_(store_dir) {
  const std::string path = dir_ + "/journal";
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) throw IoError("journal: create " + dir_ + ": " + ec.message());
  body_ = std::string(kJournalHeader) + '\n';
  if (!std::filesystem::exists(path)) {
    write_file_atomic(path, body_);  // create an empty committed journal
    return;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("journal: cannot open " + path);
  std::string line;
  if (!std::getline(in, line) || line != kJournalHeader) {
    throw IoError("journal: " + path + ": missing '" +
                  std::string(kJournalHeader) + "' header");
  }
  for (int lineno = 2; std::getline(in, line); ++lineno) {
    if (line.empty()) continue;
    try {
      const JournalEvent ev = parse_event(line);
      fold(ev, nullptr, {.priority = serve::Priority{ev.priority}});
      body_ += format_event(ev);
    } catch (const IoError& e) {
      throw IoError("journal: " + path + ":" + std::to_string(lineno) +
                    ": " + e.what());
    }
  }
  // One mapping per live row, shared by every engine it is replayed on.
  for (ModelRow& row : rows_) {
    if (!row.retired) row.dnn = map(row.artifact);
  }
}

StagedArtifact RegistryJournal::stage(const infer::SparseDnn& dnn,
                                      const std::string& name,
                                      const std::string& source) const {
  if (!file_backed()) return nullptr;
  static std::atomic<std::uint64_t> next{0};
  StagedArtifact staged(new std::string(
      dir_ + "/stage-" + std::to_string(::getpid()) + "-" +
      std::to_string(next.fetch_add(1)) + ".tmp"));
  if (source.empty()) {
    save_artifact(*staged, dnn, name);
    return staged;
  }
  std::error_code ec;
  std::filesystem::copy_file(
      source, *staged, std::filesystem::copy_options::overwrite_existing, ec);
  if (ec) throw IoError("journal: copy " + source + ": " + ec.message());
  return staged;
}

std::size_t RegistryJournal::add(std::shared_ptr<const infer::SparseDnn> dnn,
                                 std::string name, serve::QosPolicy qos,
                                 StagedArtifact staged) {
  const std::size_t id = rows_.size();
  if (!staged) staged = stage(*dnn, name);
  record({JournalOp::kAdd, std::move(name),
          file_backed() ? artifact_file(id, 1) : "",
          static_cast<std::uint8_t>(qos.priority)},
         std::move(dnn), qos, std::move(staged));
  return id;
}

void RegistryJournal::swap(std::size_t id,
                           std::shared_ptr<const infer::SparseDnn> dnn,
                           StagedArtifact staged) {
  const ModelRow& row = live_row(id);
  // Requests already queued were validated against the current widths.
  RADIX_REQUIRE_DIM(dnn->input_width() == row.dnn->input_width() &&
                        dnn->output_width() == row.dnn->output_width(),
                    "journal: a swapped version must keep the widths");
  if (!staged) staged = stage(*dnn, row.name);
  record({JournalOp::kSwap, row.name,
          file_backed() ? artifact_file(id, row.version + 1) : "",
          static_cast<std::uint8_t>(row.qos.priority)},
         std::move(dnn), {}, std::move(staged));
}

void RegistryJournal::remove(std::size_t id) {
  record({JournalOp::kRemove, live_row(id).name, "", 0}, nullptr, {}, nullptr);
}

const ModelRow& RegistryJournal::live_row(std::size_t id) const {
  RADIX_REQUIRE(id < rows_.size() && !rows_[id].retired,
                "journal: no live model with id " + std::to_string(id));
  return rows_[id];
}

void RegistryJournal::burn(std::size_t id) {
  const JournalEvent ev{JournalOp::kTombstone, live_row(id).name, "", 0};
  fold(ev, nullptr, {});  // first: the caller has already rolled back
  if (!file_backed()) return;
  body_ += format_event(ev);  // a failed commit leaves it to the next one
  write_file_atomic(dir_ + "/journal", body_);
}

void RegistryJournal::append(const JournalEvent& ev) {
  RADIX_REQUIRE(file_backed(), "journal: append needs a store directory");
  record(ev, carries_artifact(ev.op) ? map(ev.artifact) : nullptr,
         {.priority = serve::Priority{ev.priority}}, nullptr);
}

void RegistryJournal::record(const JournalEvent& ev,
                             std::shared_ptr<const infer::SparseDnn> dnn,
                             serve::QosPolicy qos, StagedArtifact staged) {
  std::vector<ModelRow> before;  // restored if the commit fails
  if (file_backed()) before = rows_;
  fold(ev, std::move(dnn), qos);
  if (!file_backed()) return;
  const std::string line = format_event(ev);
  try {
    check_event(ev);
    if (staged) {
      const std::string final_path = dir_ + "/" + ev.artifact;
      std::error_code ec;
      std::filesystem::rename(*staged, final_path, ec);
      if (ec) throw IoError("journal: rename " + *staged + ": " + ec.message());
      *staged = final_path;  // still unlinked if the commit fails
    }
    write_file_atomic(dir_ + "/journal", body_ + line);
  } catch (...) {
    rows_ = std::move(before);
    throw;
  }
  delete staged.release();  // adopted by the committed event
  body_ += line;
}

std::shared_ptr<const infer::SparseDnn> RegistryJournal::map(
    const std::string& artifact) const {
  const ArtifactReader reader((std::filesystem::path(dir_) / artifact).string());
  return std::make_shared<const infer::SparseDnn>(reader.instantiate());
}

}  // namespace radix::store
