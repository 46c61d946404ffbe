// Chaos test: a sharded fleet under bursty inhomogeneous-Poisson load
// (thinned IPPP, the workload model of Hohmann 2019) while shards are
// killed, restarted, and drained mid-stream and one model is hot-
// swapped.  The contract under all of that churn is absolute:
//
//   * zero lost responses  -- every admitted future becomes ready and
//     never surfaces an error;
//   * zero wrong responses -- every payload is bit-exact against a
//     direct fused forward of the version that could have served it
//     (pre-swap submissions may see either version, post-swap
//     submissions must see only the new one);
//   * orphaned work moves  -- requests queued on a killed shard are
//     failed over, not dropped.
//
// Time is a FakeClock driven by the single test thread, which makes
// the kills deterministic: the two shards that get killed pay an
// injected latency per batch, so with the clock frozen each of their
// workers takes at most one batch more before it parks.  A burst that
// queues more than that on a shard therefore leaves work for the kill
// to orphan, however the worker threads are scheduled.
// The suite carries the `serve` CTest label and runs under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "radixnet/graph_challenge.hpp"
#include "serve/fault.hpp"
#include "serve/router.hpp"
#include "support/random.hpp"
#include "support/thread.hpp"

namespace radix::serve {
namespace {

using namespace std::chrono_literals;

std::shared_ptr<infer::SparseDnn> make_dnn(index_t neurons,
                                           std::size_t layers,
                                           std::uint64_t seed) {
  Rng rng(seed);
  const auto net = gc::network(neurons, layers, &rng);
  return std::make_shared<infer::SparseDnn>(net.layers, net.bias, gc::kClamp);
}

std::vector<float> direct_forward(const infer::SparseDnn& dnn,
                                  const std::vector<float>& input,
                                  index_t rows) {
  infer::InferenceWorkspace ws;
  const auto y = dnn.forward(input.data(), rows, ws);
  return {y.begin(), y.end()};
}

TEST(ServeChaos, ShardChurnUnderBurstyLoadLosesNothing) {
  const auto d_a = make_dnn(1024, 2, 200);
  const auto d_b1 = make_dnn(1024, 2, 201);
  const auto d_b2 = make_dnn(1024, 2, 202);

  constexpr unsigned kWorkers = 2;
  constexpr index_t kMaxRows = 64;
  constexpr auto kHold = 100us;
  FakeClock clock;
  // Shards 0 and 2 are the ones killed.  Every batch they run first
  // waits kHold of virtual time, so while the clock is frozen each of
  // their workers can take at most kMaxRows more rows off the queue
  // before it parks.  Shard 1 runs unheld: it is drained at a frozen
  // instant, which a held batch would never finish.
  FaultInjector hold0({.added_latency = kHold});
  FaultInjector hold2({.added_latency = kHold});
  ShardRouter router({.shards = 3,
                      .engine = {.workers = kWorkers,
                                 .max_batch_rows = kMaxRows,
                                 .max_delay = 200us,
                                 .queue_capacity = 4096,
                                 .clock = &clock},
                      .tune_shard = [&](std::size_t shard, EngineOptions& eo) {
                        eo.fault = shard == 0   ? &hold0
                                   : shard == 2 ? &hold2
                                                : nullptr;
                      }});
  const auto a = router.add_model(
      d_a, "chat", {.priority = Priority::kInteractive, .weight = 4});
  const auto b = router.add_model(
      d_b1, "embed", {.priority = Priority::kBatch, .weight = 1});

  Rng irng(203);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  const auto want_a = direct_forward(*d_a, x, 1);
  const auto want_b1 = direct_forward(*d_b1, x, 1);
  const auto want_b2 = direct_forward(*d_b2, x, 1);
  ASSERT_NE(want_b1, want_b2) << "swap would be unobservable";

  struct Sent {
    std::future<std::vector<float>> future;
    ModelId model;
    bool post_swap;
  };
  std::vector<Sent> sent;
  bool swapped = false;

  std::mt19937_64 gen(7);  // fixed seed: the whole run is a replay
  std::exponential_distribution<double> gap_at_peak(1.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  double t_us = 0.0;  // virtual time, microseconds since start
  std::int64_t advanced_us = 0;
  std::uint64_t failovers_expected = 0;

  const auto submit_one = [&] {
    const ModelId id = unit(gen) < 0.6 ? a : b;
    auto result = router.submit(InferenceRequest::borrowed(id, x, 1));
    ASSERT_TRUE(result.admitted());
    sent.push_back({result.take_future(), id, swapped && id == b});
  };

  const auto queued_on = [&](std::size_t shard) {
    return router.shard(shard).pending(a) + router.shard(shard).pending(b);
  };
  // Every request a kill takes off the queue lands on the dead shard's
  // ledger as an error (nothing else fails in this run).
  const auto errors_on = [&](std::size_t shard) {
    return router.shard(shard).stats(a).errors +
           router.shard(shard).stats(b).errors;
  };

  // Kill a held shard under a burst.  Submit without advancing the
  // clock until the shard queues more than its workers can still take,
  // so the kill provably orphans work.  The kill joins workers parked in
  // their injected wait, so virtual time must move for it to return --
  // but only once the abort has taken the queue; released earlier, the
  // workers would claim what the kill is meant to orphan.
  const auto kill_under_burst = [&](std::size_t shard) {
    constexpr std::size_t kAbsorbable = kWorkers * kMaxRows;
    for (int extra = 0; queued_on(shard) <= kAbsorbable && extra < 8192;
         ++extra) {
      submit_one();
    }
    ASSERT_GT(queued_on(shard), kAbsorbable)
        << "burst never queued enough work on shard " << shard;
    const auto errors_before = errors_on(shard);
    const auto failovers_before = router.failovers();
    // Watched through the engine itself: the kill publishes a new fleet,
    // which must not race a fleet read on this thread.
    const Engine& dying = router.shard(shard);
    std::atomic<bool> killed{false};
    std::thread killer([&] {
      router.kill_shard(shard);
      killed.store(true);
    });
    while (dying.accepting()) std::this_thread::yield();
    while (!killed.load()) {
      clock.advance(kHold);
      advanced_us += kHold.count();
      t_us += static_cast<double>(kHold.count());
      std::this_thread::sleep_for(100us);
    }
    killer.join();
    const auto orphans = errors_on(shard) - errors_before;
    EXPECT_GT(orphans, 0u) << "kill of shard " << shard << " orphaned nothing";
    EXPECT_EQ(router.failovers() - failovers_before, orphans)
        << "kill must fail over exactly the orphaned requests";
    failovers_expected += orphans;
  };

  // Inhomogeneous Poisson arrivals by thinning: candidates at the peak
  // rate (one per ~50us), accepted with probability lambda(t)/lambda_max
  // following a 3ms sinusoid -- alternating busy and quiet stretches.
  constexpr int kArrivals = 360;
  int accepted = 0;
  while (accepted < kArrivals) {
    t_us += 50.0 * gap_at_peak(gen);
    if (const auto target = static_cast<std::int64_t>(t_us);
        target > advanced_us) {
      clock.advance(std::chrono::microseconds(target - advanced_us));
      advanced_us = target;
    }
    const double intensity =
        0.5 * (1.0 + std::sin(t_us * (2.0 * 3.14159265358979 / 3000.0)));
    if (unit(gen) >= intensity) continue;  // thinned out: a quiet moment
    ++accepted;
    submit_one();

    switch (accepted) {
      case 60:
        kill_under_burst(0);
        EXPECT_TRUE(router.accepting());
        break;
      case 100:
        router.restart_shard(0);
        EXPECT_EQ(router.shard_health(0), ShardHealth::kUp);
        break;
      case 140:
        // drain_shard quiesces, and quiesce waits out claimed batches.
        // A worker parked in its coalescing window only wakes when the
        // clock passes its deadline -- and this thread IS the clock, so
        // expire every possible deadline before blocking on the drain.
        clock.advance(1ms);
        advanced_us += 1000;
        t_us += 1000.0;
        router.drain_shard(1);
        EXPECT_TRUE(router.accepting());
        break;
      case 180:
        router.swap_model(b, d_b2);
        swapped = true;
        break;
      case 220:
        router.restart_shard(1);  // back from maintenance
        break;
      case 260:
        kill_under_burst(2);
        break;
      case 300:
        router.restart_shard(2);
        break;
      default:
        break;
    }
  }

  EXPECT_GT(failovers_expected, 0u) << "chaos run exercised no failover";
  EXPECT_EQ(router.failovers(), failovers_expected);

  // Flush: stop holding batches, advance past every coalescing
  // deadline, then drain the fleet.  After this, every admitted future
  // must be ready.
  hold0.cancel();
  hold2.cancel();
  clock.advance(10s);
  router.shutdown();

  std::size_t wrong = 0, lost = 0, pre_swap_b = 0, post_swap_b = 0;
  for (auto& s : sent) {
    std::vector<float> y;
    try {
      y = s.future.get();
    } catch (const std::exception&) {
      ++lost;
      continue;
    }
    if (s.model == a) {
      if (y != want_a) ++wrong;
    } else if (s.post_swap) {
      ++post_swap_b;
      if (y != want_b2) ++wrong;  // new version only, no stale serves
    } else {
      ++pre_swap_b;
      if (y != want_b1 && y != want_b2) ++wrong;
    }
  }
  EXPECT_EQ(lost, 0u) << "responses were lost in the churn";
  EXPECT_EQ(wrong, 0u) << "responses were served with wrong payloads";
  EXPECT_GT(pre_swap_b, 0u);
  EXPECT_GT(post_swap_b, 0u) << "swap happened after the last B request";

  // The registry survived two kills and a maintenance cycle intact.
  for (std::size_t shard = 0; shard < router.num_shards(); ++shard) {
    EXPECT_EQ(router.shard(shard).model_version(b), 2u);
    EXPECT_EQ(router.shard(shard).model_version(a), 1u);
  }
  EXPECT_GE(router.stats(a).requests + router.stats(b).requests, sent.size());
}

}  // namespace
}  // namespace radix::serve
