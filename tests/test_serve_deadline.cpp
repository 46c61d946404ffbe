// Deterministic tests of the overload machinery on the injectable
// clock: end-to-end deadline expiry at claim time (a request expiring
// EXACTLY at its deadline is shed, not dispatched), priority-aware
// pressure shedding (background before batch before interactive,
// newest victim first), the per-class shed/expired counters, and the
// engine-level guarantee that an expired request never reaches a
// worker's forward pass.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "radixnet/graph_challenge.hpp"
#include "serve/batcher.hpp"
#include "serve/engine.hpp"
#include "serve/fault.hpp"
#include "support/random.hpp"
#include "support/thread.hpp"

namespace radix::serve {
namespace {

using namespace std::chrono_literals;

const float* tag(std::uint64_t seq) {
  return reinterpret_cast<const float*>(static_cast<std::uintptr_t>(seq));
}

std::uint64_t seq_of(const Request& r) {
  return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(r.input));
}

Request make_request(index_t rows, std::uint64_t seq = 0) {
  Request r;
  r.rows = rows;
  r.input = tag(seq);
  return r;
}

// Real-time bounded spin for cross-thread rendezvous that virtual time
// cannot order (e.g. "the worker has parked in the fault wait").
template <typename Pred>
bool eventually(Pred&& pred, std::chrono::milliseconds budget = 5000ms) {
  const auto give_up = std::chrono::steady_clock::now() + budget;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(200us);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Batcher-level expiry at claim time.

TEST(BatcherDeadline, ExactDeadlineIsShedNotDispatched) {
  FakeClock clock;
  MicroBatcher b({.max_delay = 0us, .clock = &clock});
  const auto m = b.add_model({.priority = Priority::kInteractive});

  Request r = make_request(1, 7);
  r.deadline = clock.now() + 100us;
  ASSERT_TRUE(b.submit(m, std::move(r), Admission::kBlock));

  // The boundary case the issue pins down: now == deadline at claim
  // time means shed.  "Expiring exactly at the deadline" must not
  // dispatch -- the SLO is "completed BEFORE the deadline".
  clock.advance(100us);
  MicroBatcher::Batch out;
  ASSERT_TRUE(b.next(out));
  EXPECT_EQ(out.model, m);
  EXPECT_TRUE(out.requests.empty());
  EXPECT_EQ(out.rows, 0);
  ASSERT_EQ(out.expired.size(), 1u);
  EXPECT_EQ(seq_of(out.expired[0]), 7u);
  b.batch_complete(out.model);

  // One tick earlier the same request is live work.
  Request r2 = make_request(1, 8);
  r2.deadline = clock.now() + 100us;
  ASSERT_TRUE(b.submit(m, std::move(r2), Admission::kBlock));
  clock.advance(99us);
  ASSERT_TRUE(b.next(out));
  ASSERT_EQ(out.requests.size(), 1u);
  EXPECT_EQ(seq_of(out.requests[0]), 8u);
  EXPECT_TRUE(out.expired.empty());
  b.batch_complete(out.model);
  b.close();
}

TEST(BatcherDeadline, ExpiredAndLiveSplitWithinOneClaim) {
  FakeClock clock;
  MicroBatcher b({.max_batch_rows = 64, .max_delay = 0us, .clock = &clock});
  const auto m = b.add_model({});

  Request dead = make_request(2, 1);
  dead.deadline = clock.now() + 50us;
  Request live = make_request(3, 2);
  live.deadline = clock.now() + 10ms;
  ASSERT_TRUE(b.submit(m, std::move(dead), Admission::kBlock));
  ASSERT_TRUE(b.submit(m, std::move(live), Admission::kBlock));

  clock.advance(1ms);  // past dead's deadline, inside live's
  MicroBatcher::Batch out;
  ASSERT_TRUE(b.next(out));
  ASSERT_EQ(out.requests.size(), 1u);
  EXPECT_EQ(seq_of(out.requests[0]), 2u);
  EXPECT_EQ(out.rows, 3);  // expired rows are NOT part of the batch
  ASSERT_EQ(out.expired.size(), 1u);
  EXPECT_EQ(seq_of(out.expired[0]), 1u);
  b.batch_complete(out.model);
  b.close();
}

TEST(BatcherDeadline, RequestsExpiringDuringCoalescingWaitAreSwept) {
  FakeClock clock;
  MicroBatcher b({.max_batch_rows = 64, .max_delay = 500us, .clock = &clock});
  const auto m = b.add_model({});

  Request r = make_request(1, 3);
  r.deadline = clock.now() + 200us;  // inside the 500us coalescing window
  ASSERT_TRUE(b.submit(m, std::move(r), Admission::kBlock));

  MicroBatcher::Batch out;
  std::thread consumer([&] { ASSERT_TRUE(b.next(out)); });
  // The consumer claims the request live, then parks out the coalescing
  // window; the deadline passes mid-wait.  The post-wait sweep must
  // move it to `expired` rather than dispatch it late.
  ASSERT_TRUE(eventually([&] { return clock.parked() >= 1; }));
  clock.advance(500us);
  consumer.join();
  EXPECT_TRUE(out.requests.empty());
  EXPECT_EQ(out.rows, 0);
  ASSERT_EQ(out.expired.size(), 1u);
  EXPECT_EQ(seq_of(out.expired[0]), 3u);
  b.batch_complete(out.model);
  b.close();
}

// ---------------------------------------------------------------------------
// Batcher-level pressure shedding.

TEST(BatcherShed, DropsNewestOfLowestBackloggedClassFirst) {
  FakeClock clock;
  MicroBatcher b({.queue_capacity = 16,
                  .max_delay = 0us,
                  .shed_capacity = 4,
                  .clock = &clock});
  const auto bg = b.add_model({.priority = Priority::kBackground});
  const auto ba = b.add_model({.priority = Priority::kBatch});
  const auto ia = b.add_model({.priority = Priority::kInteractive});

  MicroBatcher::ShedList shed;
  // Distinct enqueue stamps so "newest" is well defined.
  ASSERT_TRUE(b.submit(bg, make_request(1, 101), Admission::kBlock, &shed));
  clock.advance(1us);
  ASSERT_TRUE(b.submit(bg, make_request(1, 102), Admission::kBlock, &shed));
  clock.advance(1us);
  ASSERT_TRUE(b.submit(ba, make_request(1, 201), Admission::kBlock, &shed));
  clock.advance(1us);
  ASSERT_TRUE(b.submit(ba, make_request(1, 202), Admission::kBlock, &shed));
  clock.advance(1us);
  EXPECT_TRUE(shed.empty());  // at capacity, nothing over it yet

  // Interactive arrivals shed background first (newest first), then
  // batch -- never interactive.
  ASSERT_TRUE(b.submit(ia, make_request(1, 301), Admission::kBlock, &shed));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].first, bg);
  EXPECT_EQ(seq_of(shed[0].second), 102u);
  shed.clear();

  ASSERT_TRUE(b.submit(ia, make_request(1, 302), Admission::kBlock, &shed));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].first, bg);
  EXPECT_EQ(seq_of(shed[0].second), 101u);
  shed.clear();

  ASSERT_TRUE(b.submit(ia, make_request(1, 303), Admission::kBlock, &shed));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].first, ba);
  EXPECT_EQ(seq_of(shed[0].second), 202u);
  shed.clear();

  ASSERT_TRUE(b.submit(ia, make_request(1, 304), Admission::kBlock, &shed));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].first, ba);
  EXPECT_EQ(seq_of(shed[0].second), 201u);
  shed.clear();

  // Only interactive is backlogged now: an incoming interactive has no
  // strictly lower class to shed, so it sheds ITSELF (still admitted --
  // the caller completes it with DeadlineExceededError).
  ASSERT_TRUE(b.submit(ia, make_request(1, 305), Admission::kBlock, &shed));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].first, ia);
  EXPECT_EQ(seq_of(shed[0].second), 305u);
  shed.clear();

  // Same for an incoming background request: nothing sits below it.
  ASSERT_TRUE(b.submit(bg, make_request(1, 106), Admission::kFailFast, &shed));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].first, bg);
  EXPECT_EQ(seq_of(shed[0].second), 106u);
  shed.clear();

  // The survivors -- and ONLY the survivors -- are dispatched: the four
  // interactive requests that displaced the lower classes, in FIFO
  // order.  No shed victim ever reaches a consumer.
  std::vector<std::uint64_t> served;
  MicroBatcher::Batch out;
  while (served.size() < 4) {
    ASSERT_TRUE(b.next(out));
    EXPECT_EQ(out.model, ia);
    EXPECT_TRUE(out.expired.empty());
    for (const Request& r : out.requests) served.push_back(seq_of(r));
    b.batch_complete(out.model);
  }
  EXPECT_EQ(served, (std::vector<std::uint64_t>{301, 302, 303, 304}));
  EXPECT_EQ(b.pending(bg), 0u);
  EXPECT_EQ(b.pending(ba), 0u);
  EXPECT_EQ(b.pending(ia), 0u);
  b.close();
}

TEST(BatcherShed, ShedCapacityRequiresAShedList) {
  MicroBatcher b({.shed_capacity = 2});
  const auto m = b.add_model({});
  EXPECT_THROW((void)b.submit(m, make_request(1, 1), Admission::kBlock), Error);
  b.close();
}

// ---------------------------------------------------------------------------
// Engine-level: expiry, shed counters, and "never reaches a worker".

struct TestModel {
  std::shared_ptr<infer::SparseDnn> dnn;
  index_t width = 0;
};

TestModel make_model(index_t neurons, std::size_t layers,
                     std::uint64_t seed) {
  Rng rng(seed);
  const auto net = gc::network(neurons, layers, &rng);
  TestModel m;
  m.dnn = std::make_shared<infer::SparseDnn>(net.layers, net.bias, gc::kClamp);
  m.width = neurons;
  return m;
}

// Per-class completion ledger: each submitted request must land in
// exactly one bucket.
struct Ledger {
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> deadline{0};
  std::atomic<std::uint64_t> other{0};

  DoneFn done() {
    return [this](std::span<const float>, const RequestTiming&,
                  std::exception_ptr err) {
      if (!err) {
        ok.fetch_add(1);
        return;
      }
      try {
        std::rethrow_exception(err);
      } catch (const DeadlineExceededError&) {
        deadline.fetch_add(1);
      } catch (...) {
        other.fetch_add(1);
      }
    };
  }

  std::uint64_t total() const {
    return ok.load() + deadline.load() + other.load();
  }
};

TEST(EngineDeadline, ExpiredRequestNeverReachesAWorker) {
  const auto m = make_model(1024, 2, 1);
  const std::vector<float> x(static_cast<std::size_t>(m.width), 1.0f);

  FakeClock clock;
  FaultInjector fault({.added_latency = 1ms});
  Engine engine({.workers = 1,
                 .max_batch_rows = 1,
                 .max_delay = 0us,
                 .clock = &clock,
                 .fault = &fault});
  const auto id =
      engine.add_model(m.dnn, "gc", {.priority = Priority::kInteractive});

  Ledger plug, doomed;
  // The plug occupies the lone worker: claimed immediately, then parked
  // in the injector's 1ms virtual latency wait.
  ASSERT_TRUE(engine
                  .submit(InferenceRequest::borrowed(id, x, 1),
                          {.done = plug.done()})
                  .admitted());
  ASSERT_TRUE(eventually(
      [&] { return engine.pending(id) == 0 && clock.parked() >= 1; }));

  // Queued behind the busy worker with a 500us end-to-end deadline.
  SubmitOptions opts;
  opts.deadline = 500us;
  opts.done = doomed.done();
  ASSERT_TRUE(engine.submit(InferenceRequest::borrowed(id, x, 1), opts)
                  .admitted());

  // Virtual time jumps past both the injected latency and the deadline:
  // the plug finishes, the doomed request is claimed already expired.
  clock.advance(1ms);
  ASSERT_TRUE(eventually([&] { return plug.total() + doomed.total() == 2; }));
  engine.shutdown();

  EXPECT_EQ(plug.ok.load(), 1u);
  EXPECT_EQ(doomed.deadline.load(), 1u);
  EXPECT_EQ(doomed.ok.load(), 0u);

  const auto s = engine.stats(id);
  EXPECT_EQ(s.requests, 2u);
  EXPECT_EQ(s.errors, 1u);
  EXPECT_EQ(s.expired, 1u);
  EXPECT_EQ(s.shed, 0u);
  // THE proof it never became forward work: exactly one batch (the
  // plug) ever ran, and it carried one row.
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.rows, 1u);
  const auto cls = engine.class_stats(Priority::kInteractive);
  EXPECT_EQ(cls.expired, 1u);
  EXPECT_EQ(cls.batches, 1u);
}

TEST(EngineShed, PressureShedDropsBackgroundBeforeInteractive) {
  const auto m0 = make_model(1024, 2, 2);
  const auto m1 = make_model(1024, 2, 3);
  const std::vector<float> x(static_cast<std::size_t>(m0.width), 1.0f);

  FakeClock clock;
  FaultInjector fault({.added_latency = 1ms});
  Engine engine({.workers = 1,
                 .max_batch_rows = 1,
                 .max_delay = 0us,
                 .queue_capacity = 64,
                 .clock = &clock,
                 .shed_capacity = 4,
                 .fault = &fault});
  const auto chat = engine.add_model(
      m0.dnn, "chat", {.priority = Priority::kInteractive});
  const auto bulk = engine.add_model(
      m1.dnn, "bulk", {.priority = Priority::kBackground});

  Ledger chat_led, bulk_led;
  // Plug the worker so everything below stays queued deterministically.
  ASSERT_TRUE(engine
                  .submit(InferenceRequest::borrowed(bulk, x, 1),
                          {.done = bulk_led.done()})
                  .admitted());
  ASSERT_TRUE(eventually(
      [&] { return engine.pending(bulk) == 0 && clock.parked() >= 1; }));

  // Fill to shed_capacity with background work...
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine
                    .submit(InferenceRequest::borrowed(bulk, x, 1),
                            {.done = bulk_led.done()})
                    .admitted());
  }
  EXPECT_EQ(bulk_led.deadline.load(), 0u);
  // ... then two interactive arrivals displace the two newest
  // background requests.  Shed completions run synchronously on the
  // submitting thread, so the counts are visible immediately.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(engine
                    .submit(InferenceRequest::borrowed(chat, x, 1),
                            {.done = chat_led.done()})
                    .admitted());
  }
  EXPECT_EQ(bulk_led.deadline.load(), 2u);
  EXPECT_EQ(chat_led.deadline.load(), 0u);
  EXPECT_EQ(engine.class_stats(Priority::kBackground).shed, 2u);
  EXPECT_EQ(engine.class_stats(Priority::kInteractive).shed, 0u);

  // Drain: plug + 2 surviving bulk + 2 chat, each a 1ms injected wait.
  const std::uint64_t expected = 7;
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  while (chat_led.total() + bulk_led.total() < expected &&
         std::chrono::steady_clock::now() < give_up) {
    clock.advance(1ms);
    std::this_thread::sleep_for(500us);
  }
  ASSERT_EQ(chat_led.total() + bulk_led.total(), expected);
  engine.shutdown();

  // Exactly-once accounting per class: nothing lost, nothing doubled.
  EXPECT_EQ(chat_led.ok.load(), 2u);
  EXPECT_EQ(chat_led.deadline.load(), 0u);
  EXPECT_EQ(bulk_led.ok.load(), 3u);
  EXPECT_EQ(bulk_led.deadline.load(), 2u);
  EXPECT_EQ(bulk_led.other.load(), 0u);

  const auto bg = engine.class_stats(Priority::kBackground);
  EXPECT_EQ(bg.requests, 5u);
  EXPECT_EQ(bg.shed, 2u);
  EXPECT_EQ(bg.expired, 0u);
  EXPECT_EQ(bg.errors, 2u);
  const auto ia = engine.class_stats(Priority::kInteractive);
  EXPECT_EQ(ia.requests, 2u);
  EXPECT_EQ(ia.shed, 0u);
  EXPECT_EQ(ia.errors, 0u);
  EXPECT_EQ(fault.delayed_batches(), 5u);
}

// ---------------------------------------------------------------------------
// A finite admission budget composes with the end-to-end deadline.

TEST(EngineBoundedWait, AdmissionWaitIsCappedAtRemainingDeadline) {
  const auto m = make_model(1024, 2, 4);
  const std::vector<float> x(static_cast<std::size_t>(m.width), 1.0f);

  FakeClock clock;
  FaultInjector fault({.added_latency = 10ms});
  Engine engine({.workers = 1,
                 .max_batch_rows = 1,
                 .max_delay = 0us,
                 .queue_capacity = 1,
                 .clock = &clock,
                 .fault = &fault});
  const auto id =
      engine.add_model(m.dnn, "gc", {.priority = Priority::kInteractive});

  Ledger plug, filler, doomed;
  // The plug occupies the lone worker (parked in the injector's 10ms
  // wait); the filler occupies the single queue slot.
  ASSERT_TRUE(engine
                  .submit(InferenceRequest::borrowed(id, x, 1),
                          {.done = plug.done()})
                  .admitted());
  ASSERT_TRUE(eventually(
      [&] { return engine.pending(id) == 0 && clock.parked() >= 1; }));
  ASSERT_TRUE(engine
                  .submit(InferenceRequest::borrowed(id, x, 1),
                          {.done = filler.done()})
                  .admitted());

  // Bounded-wait submit with a 10ms admission budget but only 1ms of
  // deadline left.  Waiting past the deadline could only admit a
  // request that is already dead, so the wait must give up at 1ms.
  std::atomic<int> verdict{-1};
  std::thread submitter([&] {
    SubmitOptions opts;
    opts.admission = 10ms;
    opts.deadline = 1ms;
    opts.done = doomed.done();
    verdict.store(
        engine.submit(InferenceRequest::borrowed(id, x, 1), opts).admitted()
            ? 1
            : 0);
  });
  // Both the worker (fault wait) and the submitter (admission wait) are
  // parked in virtual time.
  ASSERT_TRUE(eventually([&] { return clock.parked() >= 2; }));

  // Advance exactly the remaining deadline -- far short of the 10ms
  // admission budget.  The worker's 10ms fault wait is still pending,
  // so no queue space appeared: only the deadline cap can unblock the
  // submitter, and it must report rejection.
  clock.advance(1ms);
  submitter.join();
  EXPECT_EQ(verdict.load(), 0);
  EXPECT_EQ(doomed.total(), 0u);  // never admitted => never completed

  // A pre-expired deadline degrades to fail fast: with the queue still
  // full it rejects immediately instead of parking for its budget (a
  // wrongly parked wait would hang this test -- virtual time only
  // advances below).
  {
    SubmitOptions opts;
    opts.admission = 10ms;
    opts.deadline = -1us;
    opts.done = doomed.done();
    EXPECT_FALSE(
        engine.submit(InferenceRequest::borrowed(id, x, 1), opts).admitted());
  }

  // Drain the plug and the filler (10ms injected latency each).
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  while (plug.total() + filler.total() < 2 &&
         std::chrono::steady_clock::now() < give_up) {
    clock.advance(10ms);
    std::this_thread::sleep_for(500us);
  }
  ASSERT_EQ(plug.total() + filler.total(), 2u);

  // With queue space available a pre-expired deadline is still ADMITTED
  // (then shed at claim with DeadlineExceededError) -- the wire-pinned
  // contract for relays carrying a spent budget.
  Ledger relay;
  {
    SubmitOptions opts;
    opts.admission = 10ms;
    opts.deadline = -1us;
    opts.done = relay.done();
    EXPECT_TRUE(
        engine.submit(InferenceRequest::borrowed(id, x, 1), opts).admitted());
  }
  ASSERT_TRUE(eventually([&] { return relay.total() == 1; }));
  engine.shutdown();

  EXPECT_EQ(plug.ok.load(), 1u);
  EXPECT_EQ(filler.ok.load(), 1u);
  EXPECT_EQ(relay.deadline.load(), 1u);
  EXPECT_EQ(doomed.total(), 0u);
}

}  // namespace
}  // namespace radix::serve
