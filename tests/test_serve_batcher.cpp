// Deterministic tests of the micro-batcher's scheduling policy on the
// injectable clock (support/thread.hpp).
//
// Everything time-dependent here runs on a FakeClock: the coalescing
// deadline, bounded-wait admission and the QoS claim policy (strict
// priority between classes, weighted-deficit round-robin within a
// class, starvation bound) are asserted exactly, with no sleeps and no
// tolerance bands.  A few cross-thread handoff tests (backpressure,
// close) keep the real steady clock -- they assert ordering, not time.
#include "serve/batcher.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <thread>
#include <vector>

#include "support/error.hpp"
#include "support/random.hpp"
#include "support/thread.hpp"

namespace radix::serve {
namespace {

using namespace std::chrono_literals;

// Requests are tagged through their (never dereferenced) input pointer
// so claim order can be matched against submit order.
const float* tag(std::uint64_t seq) {
  return reinterpret_cast<const float*>(static_cast<std::uintptr_t>(seq));
}

Request make_request(index_t rows, std::uint64_t seq = 0) {
  Request r;
  r.rows = rows;
  r.input = tag(seq);
  return r;
}

// ---------------------------------------------------------------------------
// FakeClock semantics.

TEST(FakeClock, AdvancesOnlyManually) {
  FakeClock clock;
  const auto t0 = clock.now();
  EXPECT_EQ(clock.now(), t0);
  clock.advance(250us);
  EXPECT_EQ(clock.now(), t0 + 250us);
}

TEST(FakeClock, WaitUntilPastDeadlineTimesOutWithoutBlocking) {
  FakeClock clock;
  Monitor m;
  std::unique_lock lock(m.mutex);
  EXPECT_EQ(clock.wait_until(m, lock, clock.now()), std::cv_status::timeout);
  EXPECT_EQ(clock.wait_until(m, lock, clock.now() - 1us),
            std::cv_status::timeout);
  clock.forget(m);
}

TEST(FakeClock, AdvanceWakesParkedWaiter) {
  FakeClock clock;
  Monitor m;
  const auto deadline = clock.now() + 1ms;
  std::atomic<bool> timed_out{false};
  std::thread waiter([&] {
    std::unique_lock lock(m.mutex);
    while (clock.wait_until(m, lock, deadline) != std::cv_status::timeout) {
    }
    timed_out.store(true);
  });
  clock.advance(500us);  // not enough: waiter must stay parked
  std::this_thread::sleep_for(10ms);
  EXPECT_FALSE(timed_out.load());
  clock.advance(600us);  // past the deadline
  waiter.join();
  EXPECT_TRUE(timed_out.load());
  clock.forget(m);
}

// ---------------------------------------------------------------------------
// Coalescing policy (ported to the FakeClock where time matters).

TEST(MicroBatcher, CoalescesUpToRowBudget) {
  MicroBatcher b({.queue_capacity = 64, .max_batch_rows = 8,
                  .max_delay = 0us});
  const std::size_t m = b.add_model();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(b.submit(m, make_request(2), Admission::kFailFast));
  }

  MicroBatcher::Batch batch;
  // 5 x 2 rows against a budget of 8: first claim takes 4 requests.
  ASSERT_TRUE(b.next(batch));
  EXPECT_EQ(batch.model, m);
  EXPECT_EQ(batch.priority, Priority::kBatch);
  EXPECT_EQ(batch.rows, 8u);
  EXPECT_EQ(batch.requests.size(), 4u);
  // The leftover request ships in the second claim.
  ASSERT_TRUE(b.next(batch));
  EXPECT_EQ(batch.rows, 2u);
  EXPECT_EQ(batch.requests.size(), 1u);
}

TEST(MicroBatcher, FifoNeverReordersPastANonFittingRequest) {
  MicroBatcher b({.queue_capacity = 64, .max_batch_rows = 8,
                  .max_delay = 0us});
  const std::size_t m = b.add_model();
  ASSERT_TRUE(b.submit(m, make_request(3), Admission::kFailFast));
  // does not fit after 3
  ASSERT_TRUE(b.submit(m, make_request(6), Admission::kFailFast));
  // would fit, must NOT jump
  ASSERT_TRUE(b.submit(m, make_request(1), Admission::kFailFast));

  MicroBatcher::Batch batch;
  ASSERT_TRUE(b.next(batch));
  EXPECT_EQ(batch.rows, 3u) << "stop at first non-fitting request";
  ASSERT_TRUE(b.next(batch));
  EXPECT_EQ(batch.rows, 7u) << "6-row then 1-row request coalesce next";
  EXPECT_EQ(batch.requests.size(), 2u);
}

TEST(MicroBatcher, OversizeRequestShipsAlone) {
  MicroBatcher b({.queue_capacity = 64, .max_batch_rows = 8,
                  .max_delay = 0us});
  const std::size_t m = b.add_model();
  ASSERT_TRUE(b.submit(m, make_request(100), Admission::kFailFast));
  ASSERT_TRUE(b.submit(m, make_request(1), Admission::kFailFast));

  MicroBatcher::Batch batch;
  ASSERT_TRUE(b.next(batch));
  EXPECT_EQ(batch.rows, 100u);
  EXPECT_EQ(batch.requests.size(), 1u);
}

TEST(MicroBatcher, EnqueueTimeIsStampedByTheInjectedClock) {
  FakeClock clock;
  MicroBatcher b({.queue_capacity = 8, .max_batch_rows = 4,
                  .max_delay = 0us, .clock = &clock});
  const std::size_t m = b.add_model();
  const auto t0 = clock.now();
  ASSERT_TRUE(b.submit(m, make_request(1), Admission::kFailFast));
  clock.advance(5ms);
  ASSERT_TRUE(b.submit(m, make_request(1), Admission::kFailFast));

  MicroBatcher::Batch batch;
  ASSERT_TRUE(b.next(batch));
  ASSERT_EQ(batch.requests.size(), 2u);
  EXPECT_EQ(batch.requests[0].enqueued, t0);
  EXPECT_EQ(batch.requests[1].enqueued, t0 + 5ms);
}

TEST(MicroBatcher, CoalescingWindowHonorsMaxDelayExactly) {
  FakeClock clock;
  MicroBatcher b({.queue_capacity = 64, .max_batch_rows = 4,
                  .max_delay = 100000us, .clock = &clock});  // 100ms
  const std::size_t m = b.add_model();
  ASSERT_TRUE(b.submit(m, make_request(1), Admission::kFailFast));

  std::atomic<bool> shipped{false};
  MicroBatcher::Batch batch;
  std::thread consumer([&] {
    EXPECT_TRUE(b.next(batch));
    shipped.store(true);
  });

  // Walk virtual time to just inside the window: shipping is impossible
  // (the batch is below budget and the deadline has not passed), so the
  // flag check cannot flake, whatever the thread interleaving.
  clock.advance(99ms);
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(shipped.load()) << "batch shipped before its deadline";

  // A request arriving inside the window joins the open batch.
  ASSERT_TRUE(b.submit(m, make_request(1), Admission::kFailFast));
  // Crossing the deadline ships it: enqueue + 100ms, measured on the
  // fake clock, bounds the added latency exactly.
  clock.advance(2ms);
  consumer.join();
  EXPECT_TRUE(shipped.load());
  EXPECT_EQ(batch.rows, 2u);
  EXPECT_EQ(batch.requests.size(), 2u);
}

TEST(MicroBatcher, RequestOlderThanMaxDelayShipsWithoutWaiting) {
  FakeClock clock;
  MicroBatcher b({.queue_capacity = 8, .max_batch_rows = 64,
                  .max_delay = 1000us, .clock = &clock});
  const std::size_t m = b.add_model();
  ASSERT_TRUE(b.submit(m, make_request(2), Admission::kFailFast));
  clock.advance(2ms);  // the queued request is now past its deadline
  // next() runs on this thread: if the batcher tried to wait out a
  // fresh window nobody would advance the clock and the test would
  // hang; returning proves an over-age request ships immediately.
  MicroBatcher::Batch batch;
  ASSERT_TRUE(b.next(batch));
  EXPECT_EQ(batch.rows, 2u);
}

TEST(MicroBatcher, LateArrivalsJoinTheOpenBatchUntilFull) {
  FakeClock clock;
  MicroBatcher b({.queue_capacity = 64, .max_batch_rows = 4,
                  .max_delay = 1000000us, .clock = &clock});  // 1s window
  const std::size_t m = b.add_model();
  ASSERT_TRUE(b.submit(m, make_request(1), Admission::kFailFast));

  MicroBatcher::Batch batch;
  std::thread consumer([&] { EXPECT_TRUE(b.next(batch)); });
  // Three more requests fill the 4-row budget; the consumer must ship
  // without any clock advance (the window never expires in this test).
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(b.submit(m, make_request(1), Admission::kFailFast));
  }
  consumer.join();
  EXPECT_EQ(batch.rows, 4u);
  EXPECT_EQ(batch.requests.size(), 4u);
}

TEST(MicroBatcher, CloseDrainsQueuedRequestsThenStops) {
  MicroBatcher b({.queue_capacity = 64, .max_batch_rows = 64,
                  .max_delay = 0us});
  const std::size_t m = b.add_model();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(b.submit(m, make_request(1), Admission::kFailFast));
  }
  b.close();
  EXPECT_FALSE(b.submit(m, make_request(1), Admission::kBlock))
      << "submit after close";
  EXPECT_FALSE(b.submit(m, make_request(1), Admission::kFailFast));

  MicroBatcher::Batch batch;
  index_t drained = 0;
  while (b.next(batch)) drained += batch.rows;
  EXPECT_EQ(drained, 3u);
}

TEST(MicroBatcher, NextUnblocksOnClose) {
  MicroBatcher b({.queue_capacity = 64});
  (void)b.add_model();
  std::thread closer([&] {
    std::this_thread::sleep_for(10ms);
    b.close();
  });
  MicroBatcher::Batch batch;
  EXPECT_FALSE(b.next(batch))
      << "a consumer blocked on an empty batcher must exit on close";
  closer.join();
}

TEST(MicroBatcher, SubmitBackpressureBlocksUntilSpace) {
  MicroBatcher b({.queue_capacity = 2, .max_batch_rows = 1,
                  .max_delay = 0us});
  const std::size_t m = b.add_model();
  ASSERT_TRUE(b.submit(m, make_request(1), Admission::kBlock));
  ASSERT_TRUE(b.submit(m, make_request(1), Admission::kBlock));
  EXPECT_FALSE(b.submit(m, make_request(1), Admission::kFailFast))
      << "queue full";

  std::thread producer([&] {
    // blocks until a claim
    EXPECT_TRUE(b.submit(m, make_request(1), Admission::kBlock));
  });
  std::this_thread::sleep_for(5ms);
  MicroBatcher::Batch batch;
  ASSERT_TRUE(b.next(batch));
  producer.join();
  EXPECT_EQ(b.pending(m), 2u);
}

TEST(MicroBatcher, BlockedProducerIsWokenDuringCoalescingWindow) {
  // Regression: with queue_capacity < max_rows, the requests that fill
  // a batch come from a producer blocked on the full queue.  The
  // consumer's pops during the coalescing window must wake it
  // immediately -- without that wake both sides sleep out the whole
  // max_delay and the batch ships partial.
  MicroBatcher b({.queue_capacity = 1, .max_batch_rows = 3,
                  .max_delay = 5000000us});  // 5s: a stall would be seen
  const std::size_t m = b.add_model();
  ASSERT_TRUE(b.submit(m, make_request(1), Admission::kBlock));

  std::thread producer([&] {
    for (int i = 0; i < 2; ++i) {
      EXPECT_TRUE(b.submit(m, make_request(1), Admission::kBlock));
    }
  });
  MicroBatcher::Batch batch;
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(b.next(batch));
  const auto waited = std::chrono::steady_clock::now() - t0;
  producer.join();
  EXPECT_EQ(batch.rows, 3u) << "batch must fill from the blocked producer";
  EXPECT_LT(waited, 2s) << "must not sleep out the max_delay window";
}

// ---------------------------------------------------------------------------
// Bounded-wait admission.

TEST(MicroBatcher, SubmitForTimesOutDeterministicallyOnAFullQueue) {
  FakeClock clock;
  MicroBatcher b({.queue_capacity = 1, .max_batch_rows = 1,
                  .max_delay = 0us, .clock = &clock});
  const std::size_t m = b.add_model();
  // queue now full
  ASSERT_TRUE(b.submit(m, make_request(1), Admission::kFailFast));

  EXPECT_FALSE(b.submit(m, make_request(1), Admission::kFailFast))
      << "non-blocking: full";
  EXPECT_FALSE(b.submit(m, make_request(1), 0us)) << "0 wait = try";
  EXPECT_FALSE(b.submit(m, make_request(1), -1us)) << "negative wait = try";
  EXPECT_FALSE(b.submit(m, make_request(1), std::chrono::microseconds::min()))
      << "most negative wait = try";
  EXPECT_EQ(clock.parked(), 0) << "a wait <= 0 never parks on the clock";

  std::atomic<int> outcome{-1};
  std::thread submitter([&] {
    outcome.store(b.submit(m, make_request(1), 10000us) ? 1 : 0);
  });
  // Rendezvous: once the submitter is parked its deadline (computed
  // from now() before parking) is fixed, so the advances below measure
  // against the right zero point.
  while (clock.parked() == 0) std::this_thread::yield();
  // No consumer runs: space never appears, and the submitter can only
  // give up once virtual time passes its deadline.
  clock.advance(9ms);
  std::this_thread::sleep_for(10ms);
  EXPECT_EQ(outcome.load(), -1) << "gave up before the deadline";
  clock.advance(2ms);
  submitter.join();
  EXPECT_EQ(outcome.load(), 0) << "admission must fail at the deadline";
  EXPECT_EQ(b.pending(m), 1u) << "rejected request must not be enqueued";

  // kBlock has no deadline: it waits on the monitor, not on the clock,
  // so no clock advance gives up for it -- only space (or close) ends
  // the wait.
  outcome.store(-1);
  std::thread blocker([&] {
    outcome.store(b.submit(m, make_request(1), Admission::kBlock) ? 1 : 0);
  });
  std::this_thread::sleep_for(10ms);
  EXPECT_EQ(clock.parked(), 0) << "kBlock must not park on the clock";
  clock.advance(24h);
  std::this_thread::sleep_for(10ms);
  EXPECT_EQ(outcome.load(), -1) << "kBlock gave up on a clock advance";
  MicroBatcher::Batch batch;
  ASSERT_TRUE(b.next(batch));  // frees the slot; the blocker admits
  blocker.join();
  EXPECT_EQ(outcome.load(), 1);
  EXPECT_EQ(b.pending(m), 1u);
}

TEST(MicroBatcher, SubmitForAdmitsWhenAClaimFreesSpaceInTime) {
  FakeClock clock;
  MicroBatcher b({.queue_capacity = 1, .max_batch_rows = 1,
                  .max_delay = 0us, .clock = &clock});
  const std::size_t m = b.add_model();
  ASSERT_TRUE(b.submit(m, make_request(1), Admission::kFailFast));

  std::atomic<int> outcome{-1};
  std::thread submitter([&] {
    outcome.store(b.submit(m, make_request(1), 10000us) ? 1 : 0);
  });
  // A claim frees the single slot; the parked submitter must admit
  // without any clock movement.
  MicroBatcher::Batch batch;
  ASSERT_TRUE(b.next(batch));
  submitter.join();
  EXPECT_EQ(outcome.load(), 1);
  EXPECT_EQ(b.pending(m), 1u);
}

TEST(MicroBatcher, BackpressureWaitCountsTowardSubmittedTimestamp) {
  // `submitted` anchors the latency stats at submit entry while
  // `enqueued` anchors the coalescing deadline at admission: a request
  // that sat out backpressure must report the wait but still get a
  // full max_delay window.
  FakeClock clock;
  MicroBatcher b({.queue_capacity = 1, .max_batch_rows = 1,
                  .max_delay = 0us, .clock = &clock});
  const std::size_t m = b.add_model();
  const auto t0 = clock.now();
  // queue full
  ASSERT_TRUE(b.submit(m, make_request(1), Admission::kFailFast));

  std::thread submitter([&] {
    EXPECT_TRUE(b.submit(m, make_request(1), 60000us));
  });
  while (clock.parked() == 0) std::this_thread::yield();
  clock.advance(3ms);  // virtual backpressure wait
  MicroBatcher::Batch batch;
  ASSERT_TRUE(b.next(batch));  // frees the slot; submitter admits
  submitter.join();

  ASSERT_TRUE(b.next(batch));
  ASSERT_EQ(batch.requests.size(), 1u);
  EXPECT_EQ(batch.requests[0].submitted, t0)
      << "stats anchor is submit entry, before the backpressure wait";
  EXPECT_EQ(batch.requests[0].enqueued, t0 + 3ms)
      << "deadline anchor is admission, after the wait";
}

TEST(MicroBatcher, SubmitForRefusesAfterClose) {
  MicroBatcher b({.queue_capacity = 4});
  const std::size_t m = b.add_model();
  b.close();
  EXPECT_FALSE(b.submit(m, make_request(1), 1000us));
  EXPECT_FALSE(b.submit(m, make_request(1), Admission::kFailFast));
}

// ---------------------------------------------------------------------------
// QoS claim policy.

TEST(MicroBatcherQos, RejectsInvalidPriorityAndWeight) {
  // Priority is a uint8 enum class: any raw value converts legally, and
  // it indexes per-class scheduler state -- add_model must gate it.
  MicroBatcher b({.queue_capacity = 4});
  EXPECT_THROW((void)b.add_model({.priority = static_cast<Priority>(3)}),
               Error);
  EXPECT_THROW((void)b.add_model({.weight = 0}), Error);
}

TEST(MicroBatcherQos, PolicyResolvesInheritedFields) {
  MicroBatcher b({.queue_capacity = 16, .max_batch_rows = 32,
                  .max_delay = 700us});
  const auto a = b.add_model();  // defaults
  const auto c = b.add_model({.priority = Priority::kInteractive,
                              .weight = 5,
                              .max_delay = 50us,
                              .max_batch_rows = 4});
  EXPECT_EQ(b.policy(a).priority, Priority::kBatch);
  EXPECT_EQ(b.policy(a).weight, 1u);
  EXPECT_EQ(b.policy(a).max_delay, 700us);
  EXPECT_EQ(b.policy(a).max_batch_rows, 32u);
  EXPECT_EQ(b.policy(c).priority, Priority::kInteractive);
  EXPECT_EQ(b.policy(c).weight, 5u);
  EXPECT_EQ(b.policy(c).max_delay, 50us);
  EXPECT_EQ(b.policy(c).max_batch_rows, 4u);
}

TEST(MicroBatcherQos, PerModelRowBudgetOverrideApplies) {
  MicroBatcher b({.queue_capacity = 64, .max_batch_rows = 8,
                  .max_delay = 0us});
  const auto small = b.add_model({.max_batch_rows = 2});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(b.submit(small, make_request(1), Admission::kFailFast));
  }
  MicroBatcher::Batch batch;
  ASSERT_TRUE(b.next(batch));
  EXPECT_EQ(batch.rows, 2u) << "model override, not the batcher default";
}

TEST(MicroBatcherQos, StrictPriorityBetweenClasses) {
  MicroBatcher b({.queue_capacity = 64, .max_batch_rows = 1,
                  .max_delay = 0us});
  const auto inter = b.add_model({.priority = Priority::kInteractive});
  const auto batchm = b.add_model({.priority = Priority::kBatch});
  const auto bg = b.add_model({.priority = Priority::kBackground});

  // Enqueue in anti-priority order: claims must still come out strictly
  // interactive, batch, background.
  ASSERT_TRUE(b.submit(bg, make_request(1), Admission::kFailFast));
  ASSERT_TRUE(b.submit(batchm, make_request(1), Admission::kFailFast));
  ASSERT_TRUE(b.submit(inter, make_request(1), Admission::kFailFast));

  MicroBatcher::Batch batch;
  ASSERT_TRUE(b.next(batch));
  EXPECT_EQ(batch.model, inter);
  EXPECT_EQ(batch.priority, Priority::kInteractive);
  ASSERT_TRUE(b.next(batch));
  EXPECT_EQ(batch.model, batchm);
  ASSERT_TRUE(b.next(batch));
  EXPECT_EQ(batch.model, bg);
  EXPECT_EQ(batch.priority, Priority::kBackground);
}

TEST(MicroBatcherQos, StarvationBoundServesBackloggedLowerClass) {
  MicroBatcher b({.queue_capacity = 64, .max_batch_rows = 1,
                  .max_delay = 0us, .starvation_bound = 4});
  const auto inter = b.add_model({.priority = Priority::kInteractive});
  const auto bg = b.add_model({.priority = Priority::kBackground});
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(b.submit(inter, make_request(1), Admission::kFailFast));
    ASSERT_TRUE(b.submit(bg, make_request(1), Admission::kFailFast));
  }

  // With both classes backlogged, background is served exactly every
  // fifth claim (passed over starvation_bound = 4 times, then boosted).
  std::vector<std::size_t> order;
  MicroBatcher::Batch batch;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(b.next(batch));
    order.push_back(batch.model);
  }
  const std::vector<std::size_t> want = {inter, inter, inter, inter, bg,
                                         inter, inter, inter, inter, bg};
  EXPECT_EQ(order, want);
}

TEST(MicroBatcherQos, WeightedDeficitShareWithinClass) {
  MicroBatcher b({.queue_capacity = 256, .max_batch_rows = 1,
                  .max_delay = 0us});
  const auto heavy = b.add_model({.weight = 3});
  const auto light = b.add_model({.weight = 1});
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(b.submit(heavy, make_request(1), Admission::kFailFast));
    ASSERT_TRUE(b.submit(light, make_request(1), Admission::kFailFast));
  }

  int heavy_claims = 0, light_claims = 0;
  MicroBatcher::Batch batch;
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(b.next(batch));
    (batch.model == heavy ? heavy_claims : light_claims)++;
  }
  // 3:1 weights over a backlogged interval: 60/20 of 80 single-row
  // claims, give or take the replenish transient.
  EXPECT_NEAR(heavy_claims, 60, 3);
  EXPECT_NEAR(light_claims, 20, 3);
}

TEST(MicroBatcherQos, DeficitAccountsRowsNotClaims) {
  // Equal weights but 4-row vs 1-row requests: fair share is measured
  // in rows, so the 1-row model gets ~4x the claims.
  MicroBatcher b({.queue_capacity = 512, .max_batch_rows = 4,
                  .max_delay = 0us});
  const auto big = b.add_model();    // 4-row requests
  const auto small = b.add_model();  // 1-row requests
  // A claim of `small` coalesces 4 of its 1-row requests, so it burns
  // backlog 4x as fast: feed both deep enough to stay backlogged for
  // the whole 100 measured claims.
  for (int i = 0; i < 250; ++i) {
    ASSERT_TRUE(b.submit(big, make_request(4), Admission::kFailFast));
    ASSERT_TRUE(b.submit(small, make_request(1), Admission::kFailFast));
  }

  std::int64_t big_rows = 0, small_rows = 0;
  MicroBatcher::Batch batch;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(b.next(batch));
    (batch.model == big ? big_rows : small_rows) +=
        static_cast<std::int64_t>(batch.rows);
  }
  EXPECT_LE(std::abs(big_rows - small_rows), 8)
      << "row shares must track weights, not claim counts: big "
      << big_rows << " vs small " << small_rows;
}

// ---------------------------------------------------------------------------
// Randomized property test: FIFO claiming, the row-budget rule, and the
// deadline bound, over random request streams on the fake clock.

TEST(MicroBatcherProperty, RandomizedStreamsKeepFifoBudgetAndDeadline) {
  Rng rng(20260730);
  for (int trial = 0; trial < 25; ++trial) {
    FakeClock clock;
    BatcherOptions opts;
    opts.queue_capacity = 4096;
    opts.max_batch_rows = static_cast<index_t>(1 + rng.uniform(16));
    opts.max_delay = std::chrono::microseconds(rng.uniform(3) * 500);
    opts.starvation_bound = 1 + rng.uniform(8);
    opts.clock = &clock;
    MicroBatcher b(opts);

    const std::size_t num_models = 1 + rng.uniform(4);
    std::chrono::microseconds max_any_delay = opts.max_delay;
    for (std::size_t m = 0; m < num_models; ++m) {
      QosPolicy q;
      q.priority = static_cast<Priority>(rng.uniform(kNumPriorities));
      q.weight = static_cast<unsigned>(1 + rng.uniform(4));
      if (rng.bernoulli(0.5)) {
        q.max_delay = std::chrono::microseconds(rng.uniform(4) * 250);
      }
      if (rng.bernoulli(0.5)) {
        q.max_batch_rows = static_cast<index_t>(1 + rng.uniform(24));
      }
      (void)b.add_model(q);
      max_any_delay = std::max(max_any_delay, b.policy(m).max_delay);
    }

    // Expected FIFO order per model, tagged through the input pointer.
    std::vector<std::deque<std::uint64_t>> fifo(num_models);
    std::uint64_t seq = 1;
    std::size_t pending = 0;

    MicroBatcher::Batch batch;
    for (int round = 0; round < 12; ++round) {
      const std::size_t n = rng.uniform(20);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t m = rng.uniform(num_models);
        const index_t rows = static_cast<index_t>(
            1 + rng.uniform(2 * opts.max_batch_rows));  // some oversize
        ASSERT_TRUE(b.submit(m, make_request(rows, seq), Admission::kFailFast));
        fifo[m].push_back(seq++);
        ++pending;
      }
      // Push every queued request past its deadline: the single drain
      // thread below never advances the clock, so next() returning at
      // all (instead of parking in a coalescing window forever) IS the
      // "never held beyond max_delay from enqueue" guarantee.
      clock.advance(max_any_delay + 1us);

      while (pending > 0) {
        ASSERT_TRUE(b.next(batch));
        const QosPolicy pol = b.policy(batch.model);
        EXPECT_EQ(batch.priority, pol.priority);
        ASSERT_FALSE(batch.requests.empty());

        // Row-budget rule: multi-request batches fit the budget; an
        // oversize request ships strictly alone.
        index_t total = 0;
        for (const Request& r : batch.requests) total += r.rows;
        EXPECT_EQ(total, batch.rows);
        if (batch.requests.size() > 1) {
          EXPECT_LE(batch.rows, pol.max_batch_rows);
        }
        if (batch.requests.front().rows > pol.max_batch_rows) {
          EXPECT_EQ(batch.requests.size(), 1u)
              << "oversize first request must ship alone";
        }

        // FIFO claiming per model: requests surface in submit order.
        auto& expect = fifo[batch.model];
        for (const Request& r : batch.requests) {
          ASSERT_FALSE(expect.empty());
          EXPECT_EQ(reinterpret_cast<std::uintptr_t>(r.input),
                    static_cast<std::uintptr_t>(expect.front()))
              << "model " << batch.model << " claimed out of order";
          expect.pop_front();
          --pending;
        }
      }
    }
    b.close();
    EXPECT_FALSE(b.next(batch)) << "drained batcher must stop after close";
    for (std::size_t m = 0; m < num_models; ++m) {
      EXPECT_TRUE(fifo[m].empty()) << "model " << m << " lost requests";
    }
  }
}

}  // namespace
}  // namespace radix::serve
