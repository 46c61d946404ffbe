// Wire protocol of the networked serving front-end.
//
// radix-served (src/net/server.hpp) and its clients -- RemoteBackend
// (src/net/remote_backend.hpp) and the radix-ctl admin CLI -- speak a
// length-prefixed binary protocol over one TCP stream:
//
//   frame := [u32 length][u8 type][u64 correlation][body]
//
// `length` counts everything after itself (type + correlation + body),
// little-endian like every integer on the wire.  `correlation` pairs a
// response with its request: the client picks it (monotonic per
// connection), the server echoes it, and multiple in-flight requests
// share one socket without ordering constraints -- a submit's kResult
// may even arrive BEFORE its kSubmitAck, because a request can be shed
// (completed) inside the submit call itself; clients must demux by
// correlation, not by arrival order.
//
// Frames are tiny state, not streams: the reader accumulates bytes
// until a full frame is buffered (partial reads are normal on a
// nonblocking socket), decodes it with bounds-checked readers, and
// every malformed frame is a protocol error that closes the connection
// -- never undefined behavior.
//
// Stability contract: MsgType values, enum encodings (Priority,
// ShardHealth, the error kinds below) and field order are wire-visible
// and FROZEN -- append new message types and trailing fields, never
// renumber or reorder.  The serve-layer enums already carry explicit
// stable values (serve/qos.hpp, serve/router.hpp); this header encodes
// them as their underlying integers.  Admission is not an enum: a
// kSubmit carries its admission budget (SubmitOptions::admission) as
// one i64 of microseconds, INT64_MAX meaning Admission::kBlock, and
// the server clamps it to [0, 250 ms].
//
// ServeStats crosses the wire with its raw Log2Histogram bucket grids
// (Log2Histogram::raw_counts / from_raw), so a snapshot fetched from a
// remote backend merges EXACTLY with locally collected ones -- the
// same cross-shard exactness contract ServeStats::merge documents,
// extended across the socket.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serve/qos.hpp"
#include "serve/stats.hpp"
#include "support/error.hpp"

namespace radix::net {

/// Frame type tags.  Values are wire-frozen; append, never renumber.
enum class MsgType : std::uint8_t {
  kPing = 1,
  kPong = 2,
  kSubmit = 3,             ///< client -> server: one inference request
  kSubmitAck = 4,          ///< admission verdict for a kSubmit
  kResult = 5,             ///< completion of an admitted kSubmit
  kStatsReq = 6,           ///< per-model ServeStats
  kStatsResp = 7,
  kPendingReq = 8,         ///< per-model queued-request count
  kPendingResp = 9,
  kFindModelReq = 10,      ///< model id by name
  kFindModelResp = 11,
  kListModelsReq = 12,     ///< registry listing (radix-ctl `models`)
  kListModelsResp = 13,
  kClassStatsReq = 14,     ///< per-priority-class ServeStats
  kClassStatsResp = 15,
  kMetricsReq = 16,        ///< Prometheus text exposition scrape
  kMetricsResp = 17,
  kShardCtlReq = 18,       ///< shard admin verb (health/drain/restart/kill)
  kShardCtlResp = 19,
  kShutdownReq = 20,       ///< ask the server process to stop serving
  kShutdownResp = 21,
  kError = 22,             ///< correlated failure of any request frame
  kNumModelsReq = 23,      ///< registered model count (ids are 0..n-1)
  kNumModelsResp = 24,
  kSaveModelReq = 25,      ///< persist one model as a RADIXART artifact
  kSaveModelResp = 26,
  kLoadModelReq = 27,      ///< register a model from a RADIXART artifact
  kLoadModelResp = 28,
};

/// Body of a kResult frame's error arm (and the retryability signal a
/// failover layer needs); wire-frozen values.
enum class WireErrorKind : std::uint8_t {
  kNone = 0,
  kGeneric = 1,   ///< deterministic serving failure; do not retry
  kAborted = 2,   ///< serve::AbortedError -- never executed, retry-safe
  kDeadline = 3,  ///< serve::DeadlineExceededError -- budget spent
};

/// Shard admin verbs carried by kShardCtlReq; wire-frozen values.
enum class ShardVerb : std::uint8_t {
  kHealth = 0,   ///< list every shard's ShardHealth
  kDrain = 1,
  kRestart = 2,
  kKill = 3,
};

/// Frames larger than this are a protocol error (a corrupt length
/// prefix must not make the reader allocate gigabytes).
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 26;  // 64 MiB

/// Decoded frame header + body view.
struct Frame {
  MsgType type = MsgType::kPing;
  std::uint64_t correlation = 0;
  std::vector<std::uint8_t> body;
};

// --- Primitive encoders ----------------------------------------------------
//
// All integers little-endian, floats/doubles as their IEEE-754 bit
// patterns in little-endian byte order.  WireWriter appends to a byte
// vector; WireReader consumes a span with bounds checks (truncated or
// trailing bytes throw IoError -- the caller treats that as a protocol
// violation and drops the connection).

class WireWriter {
 public:
  explicit WireWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { le(v); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void i64(std::int64_t v) { le(static_cast<std::uint64_t>(v)); }
  void f32(float v);
  void f64(double v);
  /// u32 length + raw bytes.
  void str(std::string_view s);
  /// u32 count + raw IEEE floats.
  void floats(std::span<const float> v);

 private:
  template <typename T>
  void le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<std::uint8_t>& out_;
};

class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> in) : in_(in) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  float f32();
  double f64();
  std::string str();
  std::vector<float> floats();

  std::size_t remaining() const noexcept { return in_.size() - pos_; }
  /// Throws IoError unless the whole body was consumed (a longer-than-
  /// expected body is as much a protocol violation as a truncated one
  /// for the CURRENT protocol version; readers of future frames with
  /// appended fields simply skip this check).
  void expect_end() const;

 private:
  std::span<const std::uint8_t> need(std::size_t n);
  std::span<const std::uint8_t> in_;
  std::size_t pos_ = 0;
};

// --- Frame assembly --------------------------------------------------------

/// Serialize a complete frame (length prefix included) ready to write.
std::vector<std::uint8_t> encode_frame(MsgType type, std::uint64_t correlation,
                                       std::span<const std::uint8_t> body);

/// Incremental frame parser over a receive buffer: returns the next
/// complete frame and erases its bytes from `buffer`, or nullopt when
/// the buffer holds only a partial frame.  Throws IoError on a corrupt
/// length prefix (> kMaxFrameBytes or shorter than a header).
std::optional<Frame> try_parse_frame(std::vector<std::uint8_t>& buffer);

// --- Serving-type codecs ---------------------------------------------------

void encode_histogram(WireWriter& w, const serve::Log2Histogram& h);
serve::Log2Histogram decode_histogram(WireReader& r);

/// Counters + the three raw histograms; decode_stats() finalizes, so
/// the derived fields (percentiles, rates) match a local snapshot.
void encode_stats(WireWriter& w, const serve::ServeStats& s);
serve::ServeStats decode_stats(WireReader& r);

/// One row of a kListModelsResp (the radix-ctl `models` table and the
/// client-side width lookup behind submit validation).
struct WireModelInfo {
  std::uint64_t id = 0;
  std::string name;
  std::uint32_t input_width = 0;
  std::uint32_t output_width = 0;
  serve::Priority priority = serve::Priority::kBatch;
  bool retired = false;
  std::uint32_t version = 1;
  std::uint64_t pending = 0;
};

void encode_model_info(WireWriter& w, const WireModelInfo& m);
WireModelInfo decode_model_info(WireReader& r);

/// Map a completion exception onto the wire (kind, message); kNone for
/// success.  The inverse rebuilds the matching serve:: exception type
/// so RemoteBackend callers catch exactly what in-process callers do.
struct WireError {
  WireErrorKind kind = WireErrorKind::kNone;
  std::string message;
};

WireError classify_error(std::exception_ptr error);
[[noreturn]] void throw_wire_error(const WireError& e);

}  // namespace radix::net
