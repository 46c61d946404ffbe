// The overload acceptance scenario (ISSUE 7): 2x saturating open-loop
// IPPP load driven through a 2-shard router with one slow shard
// (fault-injected latency), entirely on a FakeClock.
//
// The scenario: a "chat" interactive model with a 200ms end-to-end
// deadline sharing the fleet with a "bulk" background model, offered
// ~2x the fleet's virtual service capacity.  The robustness contract
// under that load:
//
//   * ZERO interactive requests shed or expired -- the pressure policy
//     sheds strictly lower classes first, and background is always
//     backlogged here;
//   * background shed rate nonzero (the queues are bounded; the excess
//     has to go somewhere, visibly);
//   * interactive p99 stays within its SLO bound -- overload is paid by
//     background, not by interactive latency;
//   * every submitted request completes EXACTLY once (a result or
//     DeadlineExceededError -- none lost, none doubled);
//   * per-class shed counters merge exactly across shards.
//
// A second scenario pins the failover budget fix: a request's
// end-to-end deadline survives a shard kill -- the relay carries the
// REMAINING budget, not a fresh copy of the original.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "radixnet/graph_challenge.hpp"
#include "serve/fault.hpp"
#include "serve/loadgen.hpp"
#include "serve/router.hpp"
#include "serve/trace.hpp"
#include "support/random.hpp"
#include "support/thread.hpp"

namespace radix::serve {
namespace {

using namespace std::chrono_literals;

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

struct Ledger {
  std::atomic<std::uint64_t> submitted{0};
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

  std::uint64_t completed() const {
    return ok.load() + deadline.load() + other.load();
  }
};

template <typename Pred>
bool eventually(Pred&& pred, std::chrono::milliseconds budget = 10000ms) {
  const auto give_up = std::chrono::steady_clock::now() + budget;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(200us);
  }
  return true;
}

// A FakeClock that also reports its waiters' deadlines.  FakeClock's
// parked() still counts a waiter whose deadline an advance() has just
// passed until that thread actually runs again; `overdue` names those
// waiters, so a driver can tell "parked until the next advance" from
// "woken, not yet running".
class WaiterClock final : public ClockSource {
 public:
  struct Waiters {
    int parked = 0;   // inside wait_until()
    int overdue = 0;  // of those, deadline already reached
  };

  time_point now() const noexcept override { return fake_.now(); }

  std::cv_status wait_until(Monitor& m, std::unique_lock<std::mutex>& lock,
                            time_point deadline) override {
    {
      std::scoped_lock guard(mutex_);
      deadlines_.insert(deadline);
    }
    const auto status = fake_.wait_until(m, lock, deadline);
    {
      std::scoped_lock guard(mutex_);
      deadlines_.erase(deadlines_.find(deadline));
    }
    return status;
  }

  void forget(Monitor& m) override { fake_.forget(m); }

  void advance(duration d) { fake_.advance(d); }
  void advance_to(time_point tp) { fake_.advance_to(tp); }

  Waiters waiters() const {
    std::scoped_lock guard(mutex_);
    const auto t = fake_.now();
    Waiters w;
    for (const auto d : deadlines_) {
      ++w.parked;
      if (d <= t) ++w.overdue;
    }
    return w;
  }

 private:
  FakeClock fake_;
  mutable std::mutex mutex_;
  std::multiset<time_point> deadlines_;
};

TEST(ServeOverload, TwoTimesSaturatingLoadShedsBackgroundOnly) {
  const auto chat_model = make_model(1024, 2, 1);
  const auto bulk_model = make_model(1024, 2, 2);
  const std::vector<float> x(static_cast<std::size_t>(chat_model.width),
                             1.0f);

  WaiterClock clock;
  // Virtual service model: every request is one batch (max_batch_rows
  // 1) and every batch pays the shard's injected latency.  Shard 0
  // serves 1000 req/s of virtual time, the slow shard 1 only 200 req/s:
  // fleet capacity ~1200 req/s.
  FaultInjector fast({.added_latency = 1ms});
  FaultInjector slow({.added_latency = 5ms});
  ShardRouterOptions opts;
  opts.shards = 2;
  opts.engine.workers = 1;
  opts.engine.max_batch_rows = 1;
  opts.engine.max_delay = 0us;
  opts.engine.queue_capacity = 1024;
  opts.engine.clock = &clock;
  opts.engine.shed_capacity = 32;
  opts.seed = 7;
  opts.tune_shard = [&](std::size_t shard, EngineOptions& eo) {
    eo.fault = shard == 1 ? &slow : &fast;
  };
  ShardRouter router(opts);
  const auto chat = router.add_model(chat_model.dnn, "chat",
                                     {.priority = Priority::kInteractive});
  const auto bulk = router.add_model(bulk_model.dnn, "bulk",
                                     {.priority = Priority::kBackground});

  // Offered load ~2x capacity: interactive diurnal 200..400 req/s
  // (~300 avg), background a flat 2100 req/s.  Both schedules are
  // IPPP draws -- deterministic for these seeds.
  ArrivalProcess chat_arrivals({.rate = diurnal_rate(200.0, 400.0, 0.5),
                                .peak_rate = 400.0,
                                .seed = 11});
  ArrivalProcess bulk_arrivals({.rate = constant_rate(2100.0),
                                .peak_rate = 2100.0,
                                .seed = 12});

  Ledger chat_led, bulk_led;
  const auto t0 = clock.now();
  const double horizon = 0.5;  // seconds of virtual traffic

  const auto submit_one = [&](bool interactive) {
    SubmitOptions so;
    if (interactive) {
      so.deadline = 200ms;
      so.done = chat_led.done();
      chat_led.submitted.fetch_add(1);
    } else {
      so.done = bulk_led.done();
      bulk_led.submitted.fetch_add(1);
    }
    ASSERT_TRUE(router
                    .submit(InferenceRequest::borrowed(
                                interactive ? chat : bulk, x, 1),
                            std::move(so))
                    .admitted());
  };

  // Workers claim, stamp and finish in real time while virtual time is
  // frozen, so time may only move once the fleet has settled: every
  // worker parked in its injected wait until a later instant, or idle
  // with nothing queued on its shard.  An advance before that would
  // stamp work that is still running with the next instant.  Settled is
  // read from counters that move one way while the clock is frozen, in
  // an order that makes a transition racing the reads look unsettled:
  //   * no waiter is overdue, so every parked worker stays parked;
  //   * busy == parked: every worker inside a claimed batch is parked;
  //   * held == parked: every admitted request that is neither queued
  //     nor completed sits with a parked worker (one worker per shard,
  //     one row per batch), so no claim is between its pop and its
  //     stamp;
  //   * a shard with queued work has its worker busy.
  const auto settled = [&] {
    const WaiterClock::Waiters w = clock.waiters();
    if (w.overdue != 0) return false;
    const std::uint64_t submitted =
        chat_led.submitted.load() + bulk_led.submitted.load();
    const std::uint64_t done = chat_led.completed() + bulk_led.completed();
    std::uint64_t queued = 0;
    std::size_t queued_on[2] = {0, 0};
    for (std::size_t s = 0; s < 2; ++s) {
      queued_on[s] =
          router.shard(s).pending(chat) + router.shard(s).pending(bulk);
      queued += queued_on[s];
    }
    std::uint64_t busy = 0;
    for (std::size_t s = 0; s < 2; ++s) {
      const unsigned b = router.shard(s).busy_workers();
      if (queued_on[s] > 0 && b == 0) return false;  // a claim is due
      busy += b;
    }
    const auto parked = static_cast<std::uint64_t>(w.parked);
    return busy == parked && submitted - done - queued == parked;
  };
  const auto settle = [&] {
    const auto give_up = std::chrono::steady_clock::now() + 10s;
    while (!settled()) {
      if (std::chrono::steady_clock::now() > give_up) return false;
      std::this_thread::yield();
    }
    return true;
  };

  // Merge the two schedules in time order, advancing virtual time to
  // each arrival -- the open-loop drive: arrivals do not care how far
  // behind the fleet is.
  double next_chat = chat_arrivals.next();
  double next_bulk = bulk_arrivals.next();
  while (next_chat < horizon || next_bulk < horizon) {
    const bool interactive = next_chat <= next_bulk;
    const double t = interactive ? next_chat : next_bulk;
    ASSERT_TRUE(settle()) << "fleet never settled";
    clock.advance_to(t0 + std::chrono::duration_cast<FakeClock::duration>(
                              std::chrono::duration<double>(t)));
    submit_one(interactive);
    if (interactive) {
      next_chat = chat_arrivals.next();
    } else {
      next_bulk = bulk_arrivals.next();
    }
  }

  const std::uint64_t total_submitted =
      chat_led.submitted.load() + bulk_led.submitted.load();
  ASSERT_GT(chat_led.submitted.load(), 100u);   // ~150 expected
  ASSERT_GT(bulk_led.submitted.load(), 800u);   // ~1050 expected

  // Flush: walk virtual time forward until every admitted request has
  // completed one way or the other.
  const auto give_up = std::chrono::steady_clock::now() + 60s;
  while (chat_led.completed() + bulk_led.completed() < total_submitted &&
         std::chrono::steady_clock::now() < give_up) {
    ASSERT_TRUE(settle()) << "fleet never settled";
    clock.advance(5ms);
  }
  ASSERT_EQ(chat_led.completed() + bulk_led.completed(), total_submitted);
  router.shutdown();

  // Exactly-once per class: nothing lost, nothing doubled.
  EXPECT_EQ(chat_led.completed(), chat_led.submitted.load());
  EXPECT_EQ(bulk_led.completed(), bulk_led.submitted.load());
  EXPECT_EQ(chat_led.other.load(), 0u);
  EXPECT_EQ(bulk_led.other.load(), 0u);

  const auto ia = router.class_stats(Priority::kInteractive);
  const auto bg = router.class_stats(Priority::kBackground);

  // The headline contract: interactive never shed, never expired --
  // every drop under 2x overload came out of background.
  EXPECT_EQ(ia.shed, 0u);
  EXPECT_EQ(ia.expired, 0u);
  EXPECT_EQ(chat_led.deadline.load(), 0u);
  EXPECT_GT(bg.shed, 0u);
  EXPECT_EQ(bulk_led.deadline.load(), bg.shed + bg.expired);

  // Interactive latency is bounded by the slow shard's service time
  // plus a short queue, not by the overload: p99 well under the 50ms
  // SLO bound (and nowhere near the 200ms deadline).
  EXPECT_GT(ia.e2e_p99, 0.0);
  EXPECT_LT(ia.e2e_p99, 0.050);

  // Per-class counters merge EXACTLY across shards.
  const auto ia0 = router.shard(0).class_stats(Priority::kInteractive);
  const auto ia1 = router.shard(1).class_stats(Priority::kInteractive);
  const auto bg0 = router.shard(0).class_stats(Priority::kBackground);
  const auto bg1 = router.shard(1).class_stats(Priority::kBackground);
  EXPECT_EQ(ia.requests, ia0.requests + ia1.requests);
  EXPECT_EQ(ia.shed, ia0.shed + ia1.shed);
  EXPECT_EQ(ia.expired, ia0.expired + ia1.expired);
  EXPECT_EQ(bg.requests, bg0.requests + bg1.requests);
  EXPECT_EQ(bg.shed, bg0.shed + bg1.shed);
  EXPECT_EQ(bg.expired, bg0.expired + bg1.expired);
  EXPECT_EQ(bg.errors, bg0.errors + bg1.errors);

  // Accounting closes: class requests == everything the fleet admitted.
  EXPECT_EQ(ia.requests, chat_led.submitted.load());
  EXPECT_EQ(bg.requests, bulk_led.submitted.load());
}

TEST(ServeOverload, FailoverCarriesRemainingDeadlineNotAFreshBudget) {
  const auto m = make_model(1024, 2, 3);
  const std::vector<float> x(static_cast<std::size_t>(m.width), 1.0f);

  FakeClock clock;
  // Both workers park 20ms (virtual) per batch: plenty of room to kill
  // a shard while the victim request is still queued.
  FaultInjector hold0({.added_latency = 20ms});
  FaultInjector hold1({.added_latency = 20ms});
  // The trace records which shard admitted the victim.
  Tracer tracer({.clock = &clock});
  ShardRouterOptions opts;
  opts.shards = 2;
  opts.engine.workers = 1;
  opts.engine.max_batch_rows = 64;
  opts.engine.max_delay = 0us;
  opts.engine.clock = &clock;
  opts.engine.tracer = &tracer;
  opts.tune_shard = [&](std::size_t shard, EngineOptions& eo) {
    eo.fault = shard == 1 ? &hold1 : &hold0;
  };
  ShardRouter router(opts);
  const auto id = router.add_model(m.dnn, "gc",
                                   {.priority = Priority::kInteractive});

  // Occupy BOTH workers (each parks in its 20ms injected wait).  The
  // power-of-two pick is depth-aware, so keep plugging until both
  // shards have a claimed batch in flight.
  Ledger plugs;
  int plugged = 0;
  while (clock.parked() < 2 && plugged < 8) {
    ASSERT_TRUE(router
                    .submit(InferenceRequest::borrowed(id, x, 1),
                            {.done = plugs.done()})
                    .admitted());
    ++plugged;
    ASSERT_TRUE(eventually([&] {
      return clock.parked() >= 2 ||
             router.shard(0).pending(id) + router.shard(1).pending(id) <
                 static_cast<std::size_t>(plugged);
    }));
  }
  ASSERT_TRUE(eventually([&] { return clock.parked() >= 2; }));

  // The victim: 10ms end-to-end deadline, queued behind a busy worker.
  Ledger victim;
  SubmitOptions so;
  so.deadline = 10ms;
  so.done = victim.done();
  const SubmitResult placed =
      router.submit(InferenceRequest::borrowed(id, x, 1), std::move(so));
  ASSERT_TRUE(placed.admitted());
  // Placement is read, not inferred: the admitting shard recorded the
  // victim's kAdmitted event before submit returned.
  std::size_t victim_shard = opts.shards;
  for (const TraceEvent& e : tracer.drain()) {
    if (e.id == placed.request_id() && e.kind == TraceEventKind::kAdmitted) {
      victim_shard = e.shard;
    }
  }
  ASSERT_LT(victim_shard, opts.shards) << "victim's kAdmitted not traced";

  // Let the deadline pass (workers still parked), THEN kill the shard
  // holding the victim.  The abort orphans it; the relay resubmits it
  // on the healthy shard with the REMAINING budget -- which is already
  // negative.  The pre-fix behavior copied the full 10ms into the
  // resubmission, which would serve the request fresh.
  clock.advance(11ms);
  // Watched through the engine itself: the kill publishes a new fleet,
  // which must not race a fleet read on this thread.
  const Engine& dying = router.shard(victim_shard);
  std::thread killer([&] { router.kill_shard(victim_shard); });
  // The abort takes the victim off the dead shard's queue in the same
  // step that closes it.  Advancing virtual time past the injected wait
  // before that step would let the shard's own worker claim (and
  // expire) the victim, so wait for the close first.
  ASSERT_TRUE(eventually([&] { return !dying.accepting(); }));
  // kill_shard joins the dead shard's worker, which is parked in its
  // injected wait: walk virtual time forward until the join returns.
  ASSERT_TRUE(eventually([&] {
    clock.advance(5ms);
    return router.shard_health(victim_shard) == ShardHealth::kDown &&
           victim.completed() + plugs.completed() > 0;
  }));

  // Drain everything (relocated plugs included).
  const std::uint64_t expected =
      static_cast<std::uint64_t>(plugged) + 1;
  const auto give_up = std::chrono::steady_clock::now() + 30s;
  while (victim.completed() + plugs.completed() < expected &&
         std::chrono::steady_clock::now() < give_up) {
    clock.advance(5ms);
    std::this_thread::sleep_for(300us);
  }
  killer.join();
  ASSERT_EQ(victim.completed() + plugs.completed(), expected);
  router.shutdown();

  // The victim completed exactly once, with DeadlineExceededError: its
  // budget was spent before the kill, and failover did not refill it.
  EXPECT_EQ(victim.completed(), 1u);
  EXPECT_EQ(victim.deadline.load(), 1u);
  EXPECT_EQ(victim.ok.load(), 0u);
  // It failed over (not delivered as AbortedError) -- the healthy shard
  // recorded the expiry.
  EXPECT_GE(router.failovers(), 1u);
  EXPECT_EQ(victim.other.load(), 0u);
  const auto s = router.stats(id);
  EXPECT_EQ(s.expired, 1u);
}

}  // namespace
}  // namespace radix::serve
