// Seeded mutation fuzzing of the wire protocol: byte flips,
// truncations, bad length prefixes, retyped frames, trailing garbage
// and edge-value fields applied to valid client frames -- the kSubmit
// body's admission budget above all (INT64_MIN, -1, 0, INT64_MAX).
//
//   * Parsing: the mutated bytes must yield frames, wait for more bytes
//     or throw IoError -- and yield the same frames whether they arrive
//     at once or in random chunks.
//   * Serving: sent over a raw socket to a live Server, every parsed
//     frame ends in a correlated answer (a kSubmit in its ack or an
//     error frame) or a closed connection, within a bounded time, so a
//     mutated kSubmit never parks a submit-pool thread -- also when the
//     backend is saturated and every wait runs into the server's clamp.
//     After each seed a fresh RemoteBackend must still ping the server.
//   * Accounting: once the server has stopped, every kSubmit frame it
//     parsed ended in exactly one counted way -- acked, rejected or
//     orphaned (Server::submit_outcomes) -- and it parsed at least every
//     kSubmit the test saw answered.
#include <gtest/gtest.h>
#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/remote_backend.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "radixnet/graph_challenge.hpp"
#include "serve/engine.hpp"
#include "serve/fault.hpp"
#include "support/error.hpp"
#include "support/random.hpp"

namespace radix::net {
namespace {

using namespace std::chrono_literals;
using Bytes = std::vector<std::uint8_t>;

constexpr index_t kWidth = 1024;
constexpr std::int64_t kEdges[] = {std::numeric_limits<std::int64_t>::min(),
                                   -1, 0,
                                   std::numeric_limits<std::int64_t>::max()};
// Frame layout: [u32 length][u8 type][u64 correlation][body]; a kSubmit
// body starts [u64 model][u32 rows][i64 wait][i64 deadline].
constexpr std::size_t kTypeAt = 4;
constexpr std::size_t kBodyAt = 13;
constexpr std::size_t kWaitAt = kBodyAt + 12;
constexpr std::size_t kDeadlineAt = kWaitAt + 8;

std::int64_t edge_or_random(Rng& rng) {
  return rng.bernoulli(0.75) ? kEdges[rng.uniform(std::size(kEdges))]
                             : static_cast<std::int64_t>(rng());
}

/// A well-formed client frame of a verb the server answers.
Bytes valid_frame(Rng& rng, std::uint64_t correlation) {
  Bytes body;
  WireWriter w(body);
  MsgType type = MsgType::kSubmit;
  switch (rng.uniform(6)) {
    case 0:
      type = MsgType::kPing;
      w.u64(rng());
      break;
    case 1:
      type = MsgType::kStatsReq;
      w.u64(rng.uniform(3));
      break;
    case 2:
      type = MsgType::kFindModelReq;
      w.str(rng.bernoulli(0.5) ? "fuzz" : "missing");
      break;
    default: {
      const index_t rows = 1 + static_cast<index_t>(rng.uniform(2));
      w.u64(rng.uniform(2));                             // model
      w.u32(rows);                                       // rows
      w.i64(edge_or_random(rng));                        // admission wait
      w.i64(rng.bernoulli(0.5) ? 0 : edge_or_random(rng));  // deadline
      w.u64(rng.bernoulli(0.5) ? 0 : rng());             // trace id
      w.floats(std::vector<float>(std::size_t{rows} * kWidth, 0.5f));
      break;
    }
  }
  return encode_frame(type, correlation, body);
}

void put_u32(Bytes& b, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4 && at + i < b.size(); ++i) {
    b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void put_i64(Bytes& b, std::size_t at, std::int64_t v) {
  for (std::size_t i = 0; i < 8 && at + i < b.size(); ++i) {
    b[at + i] = static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >>
                                          (8 * i));
  }
}

Bytes mutate(Bytes b, Rng& rng) {
  if (b.empty()) return b;
  switch (rng.uniform(7)) {
    case 0:  // flip bytes
      for (std::uint64_t i = 0, n = 1 + rng.uniform(4); i < n; ++i) {
        b[rng.uniform(b.size())] = static_cast<std::uint8_t>(rng());
      }
      break;
    case 1:  // truncate
      b.resize(rng.uniform(b.size() + 1));
      break;
    case 2: {  // bad length prefix
      const std::uint32_t declared = static_cast<std::uint32_t>(b.size() - 4);
      const std::uint32_t lengths[] = {0,
                                       1,
                                       8,
                                       9,
                                       declared - 1,
                                       declared + 1,
                                       kMaxFrameBytes,
                                       kMaxFrameBytes + 1,
                                       0xffffffffu,
                                       static_cast<std::uint32_t>(rng())};
      put_u32(b, 0, lengths[rng.uniform(std::size(lengths))]);
      break;
    }
    case 3:  // retype
      if (b.size() > kTypeAt) b[kTypeAt] = static_cast<std::uint8_t>(rng());
      break;
    case 4: {  // trailing garbage, inside the frame half the time
      for (std::uint64_t i = 0, n = 1 + rng.uniform(16); i < n; ++i) {
        b.push_back(static_cast<std::uint8_t>(rng()));
      }
      if (rng.bernoulli(0.5)) {
        put_u32(b, 0, static_cast<std::uint32_t>(b.size() - 4));
      }
      break;
    }
    case 5:  // an edge value into a kSubmit's wait or deadline
      put_i64(b, rng.bernoulli(0.5) ? kWaitAt : kDeadlineAt,
              kEdges[rng.uniform(std::size(kEdges))]);
      break;
    default:  // an edge value anywhere
      put_i64(b, rng.uniform(b.size()),
              kEdges[rng.uniform(std::size(kEdges))]);
      break;
  }
  return b;
}

/// Every frame the server would parse out of `bytes` (in order), and
/// whether framing broke (IoError) before the buffer ran out.
struct Parsed {
  std::vector<Frame> frames;
  bool corrupt = false;
};

Parsed parse_all(Bytes buffer) {
  Parsed out;
  try {
    while (auto frame = try_parse_frame(buffer)) {
      out.frames.push_back(std::move(*frame));
    }
  } catch (const IoError&) {
    out.corrupt = true;
  }
  return out;
}

/// The same bytes delivered in random chunks, parsed after each chunk
/// as a nonblocking reader would.
Parsed parse_chunked(const Bytes& bytes, Rng& rng) {
  Parsed out;
  Bytes buffer;
  std::size_t at = 0;
  try {
    while (at < bytes.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.uniform(64), bytes.size() - at);
      buffer.insert(buffer.end(), bytes.begin() + at, bytes.begin() + at + n);
      at += n;
      while (auto frame = try_parse_frame(buffer)) {
        out.frames.push_back(std::move(*frame));
      }
    }
  } catch (const IoError&) {
    out.corrupt = true;
  }
  return out;
}

bool same_frames(const Parsed& a, const Parsed& b) {
  if (a.frames.size() != b.frames.size()) return false;
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    if (a.frames[i].type != b.frames[i].type ||
        a.frames[i].correlation != b.frames[i].correlation ||
        a.frames[i].body != b.frames[i].body) {
      return false;
    }
  }
  return true;
}

enum class Outcome { kAnswered, kClosed, kSilent };

/// Read until the server answers `sent` (for a kSubmit: its ack or an
/// error frame; kResult frames may come first) or closes; kSilent when
/// neither happens within `budget`.
Outcome await_answer(const Fd& fd, const Frame& sent,
                     std::chrono::milliseconds budget) {
  const auto give_up = std::chrono::steady_clock::now() + budget;
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        give_up - std::chrono::steady_clock::now());
    pollfd p{fd.get(), POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&p, 1, static_cast<int>(left.count())) == 0) {
      return Outcome::kSilent;
    }
    std::optional<Frame> got;
    try {
      got = recv_frame(fd);
    } catch (const IoError&) {
      return Outcome::kClosed;  // reset or cut mid-frame
    }
    if (!got) return Outcome::kClosed;
    if (got->correlation != sent.correlation) continue;
    if (sent.type == MsgType::kSubmit && got->type == MsgType::kResult) {
      continue;
    }
    if (sent.type == MsgType::kSubmit) {
      EXPECT_TRUE(got->type == MsgType::kSubmitAck ||
                  got->type == MsgType::kError)
          << "kSubmit answered with type " << static_cast<int>(got->type);
    }
    return Outcome::kAnswered;
  }
}

// Even seeds serve from an idle engine.  Odd seeds saturate it: the lone
// worker holds a plug in an hour-long injected wait and a filler takes
// the one queue slot, so every positive wait runs into the clamp.
class WireFuzz : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    Rng rng(5);
    const auto net = gc::network(kWidth, 2, &rng);
    dnn_ = std::make_shared<infer::SparseDnn>(net.layers, net.bias,
                                              gc::kClamp);
    const bool saturated = GetParam() % 2 == 1;
    engine_ = std::make_unique<serve::Engine>(serve::EngineOptions{
        .workers = 1,
        .max_batch_rows = 1,  // the plug's batch is full: no coalescing
        .queue_capacity = saturated ? 1u : 64u,
        .fault = saturated ? &hold_ : nullptr});
    engine_->add_model(dnn_, "fuzz");
    if (saturated) {
      const std::vector<float> x(kWidth, 1.0f);
      (void)engine_->submit(serve::InferenceRequest::owned(0, x, 1));
      (void)engine_->submit(serve::InferenceRequest::owned(0, x, 1));
      ASSERT_EQ(engine_->pending(0), 1u);
    }
    server_ = std::make_unique<Server>(*engine_);
  }

  void TearDown() override {
    hold_.cancel();  // first: a wedged pool thread must not block stop()
    if (server_) server_->stop();
    engine_->shutdown();
  }

  serve::FaultInjector hold_{{.added_latency = 1h}};
  std::shared_ptr<infer::SparseDnn> dnn_;
  std::unique_ptr<serve::Engine> engine_;
  std::unique_ptr<Server> server_;
};

TEST_P(WireFuzz, ParsesOrThrowsAndEveryFrameIsAnswered) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 23);
  int answered = 0;
  int closed = 0;
  std::uint64_t answered_submits = 0;
  for (int round = 0; round < 40; ++round) {
    const std::uint64_t correlation = rng();
    Bytes bytes = valid_frame(rng, correlation);
    // Round 0 is unmutated: the fuzzing starts from a success.
    for (std::uint64_t m = 0, n = round == 0 ? 0 : 1 + rng.uniform(3); m < n;
         ++m) {
      bytes = mutate(std::move(bytes), rng);
    }
    SCOPED_TRACE("round " + std::to_string(round) + ", " +
                 std::to_string(bytes.size()) + " bytes");

    Parsed parsed;
    try {
      parsed = parse_all(bytes);
      EXPECT_TRUE(same_frames(parsed, parse_chunked(bytes, rng)))
          << "chunked delivery parsed differently";
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped parse error: " << e.what();
      continue;
    }
    if (round == 0) {
      ASSERT_EQ(parsed.frames.size(), 1u);
    }
    // A shutdown verb legitimately stops the server: not sent.
    if (std::any_of(parsed.frames.begin(), parsed.frames.end(),
                    [](const Frame& f) {
                      return f.type == MsgType::kShutdownReq;
                    })) {
      continue;
    }

    Fd fd = connect_tcp(server_->port());
    try {
      write_all(fd, bytes);
    } catch (const IoError&) {
      ++closed;  // the server dropped the peer mid-write
      continue;
    }
    if (parsed.frames.empty() && !parsed.corrupt) continue;  // partial
    // Corrupt framing before any frame: only a close can end it.
    Frame unanswerable;
    unanswerable.correlation = ~correlation;
    const Outcome outcome = await_answer(
        fd, parsed.frames.empty() ? unanswerable : parsed.frames.front(), 10s);
    // A silent server most likely has a wedged pool thread: stop here
    // rather than wait out every later round too.
    ASSERT_NE(outcome, Outcome::kSilent)
        << (parsed.frames.empty()
                ? std::string("corrupt framing kept open")
                : "frame type " +
                      std::to_string(static_cast<int>(parsed.frames[0].type)) +
                      " left unanswered");
    answered += outcome == Outcome::kAnswered;
    closed += outcome == Outcome::kClosed;
    if (outcome == Outcome::kAnswered && !parsed.frames.empty() &&
        parsed.frames.front().type == MsgType::kSubmit) {
      ++answered_submits;
    }
  }
  RecordProperty("answered", answered);
  RecordProperty("closed", closed);

  {
    RemoteBackend fresh(server_->port());
    EXPECT_NO_THROW(fresh.ping());
  }

  // Settle: stop() runs every parsed frame's verb before it returns.
  hold_.cancel();
  server_->stop();
  const Server::SubmitOutcomes c = server_->submit_outcomes();
  EXPECT_EQ(c.parsed, c.acked + c.rejected + c.orphaned)
      << "parsed " << c.parsed << ", acked " << c.acked << ", rejected "
      << c.rejected << ", orphaned " << c.orphaned;
  EXPECT_GE(c.parsed, answered_submits);
  RecordProperty("submits_parsed", static_cast<int>(c.parsed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz, ::testing::Range(0, 16));

}  // namespace
}  // namespace radix::net
