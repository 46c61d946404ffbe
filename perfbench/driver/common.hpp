// Shared pieces of the benchmark driver: the clock, /proc sampling of
// the process under test, the in-memory span log of traced runs, and a
// small JSON writer for the raw result file that perfbench/run.py reads.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock (arbitrary epoch, monotonic).
double now_s();

/// Resource counters of one process, read from /proc.
struct ProcSample {
  double cpu_s = 0.0;              ///< utime + stime, all threads
  std::uint64_t invol_switches = 0; ///< nonvoluntary_ctxt_switches, summed over threads
  double rss_mb = 0.0;             ///< VmRSS
  double hwm_mb = 0.0;             ///< VmHWM (peak resident set)
};

/// Sample /proc/<pid> (pid 0 = this process).  Throws on a missing
/// process.
ProcSample read_proc(pid_t pid = 0);

/// Spans recorded around each call the driver makes into a module.
/// Kept in memory (mutex-guarded: completion callbacks record from the
/// connection's reader thread) and written out when the run ends.  A
/// disabled log records nothing, so untraced runs pay one branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  /// Record a finished span named by a string literal (kept by
  /// pointer); `request` groups the spans of one request
  /// (0 = none), `parent` is the index of the causing span (-1 = none).
  /// Returns the span's index, or -1 when disabled.
  long record(const char* name, double start, double end,
              std::uint64_t request = 0, long parent = -1);

  /// Set the end of span `index` (a parent recorded before its
  /// children); no-op for -1.
  void finish(long index, double end);

  /// Spans as a JSON array of [name, start_s, end_s, request, parent].
  std::string to_json() const;

 private:
  struct Span {
    const char* name;
    double start, end;
    std::uint64_t request;
    long parent;
  };
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Minimal JSON object writer: key/value pairs appended in order.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v);
  JsonObject& integer(const std::string& key, long long v);
  JsonObject& str(const std::string& key, const std::string& v);
  /// Insert pre-rendered JSON (an array or nested object).
  JsonObject& raw(const std::string& key, const std::string& json);
  JsonObject& nums(const std::string& key, const std::vector<double>& v);
  std::string render() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

/// JSON rendering of one double (finite values only; NaN/inf become
/// null).
std::string json_number(double v);

/// "[a,b,...]" from already rendered JSON values.
std::string json_list(const std::vector<std::string>& items);

/// JSON string literal with escaping.
std::string json_string(const std::string& s);

/// Options every workload receives from main.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    ///< scratch directory of this run
  std::string served_bin;  ///< radix-served executable
};

/// Result of one workload run: the raw JSON object and the operation
/// accounting main turns into the exit code.
struct RunResult {
  std::string json;
  long long attempted = 0;
  long long failed = 0;
  long long mismatches = 0;
  /// Empty when the workload exercised the layer it exists for;
  /// otherwise why not (the run fails loudly instead of measuring
  /// something else).
  std::string drift;
};

RunResult run_challenge(const std::string& workload, const RunOptions& opt);
RunResult run_serving(const std::string& workload, const RunOptions& opt);

}  // namespace perfbench
