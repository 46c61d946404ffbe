// End-to-end tests of the networked serving front-end: an in-process
// net::Server fronting an Engine or ShardRouter, driven through
// net::RemoteBackend over a loopback socket.  The load-bearing claims:
// remote submission is bit-exact with a direct fused forward, stats
// fetched over the wire match the in-process snapshot EXACTLY (raw
// histogram grids included), admin verbs round-trip, and a client that
// disconnects mid-request orphans its responses (dropped and counted,
// never written to a dead socket).
#include "net/server.hpp"

#include <gtest/gtest.h>
#include <linux/sockios.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "net/remote_backend.hpp"
#include "net/socket.hpp"
#include "radixnet/graph_challenge.hpp"
#include "serve/engine.hpp"
#include "serve/fault.hpp"
#include "serve/router.hpp"
#include "support/random.hpp"
#include "support/thread.hpp"

namespace radix::net {
namespace {

using namespace std::chrono_literals;

std::shared_ptr<infer::SparseDnn> make_dnn(index_t neurons,
                                           std::size_t layers,
                                           std::uint64_t seed) {
  Rng rng(seed);
  const auto net = gc::network(neurons, layers, &rng);
  return std::make_shared<infer::SparseDnn>(net.layers, net.bias, gc::kClamp);
}

template <typename Pred>
bool eventually(Pred&& pred) {
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(200us);
  }
  return true;
}

std::vector<float> direct_forward(const infer::SparseDnn& dnn,
                                  const std::vector<float>& input,
                                  index_t rows) {
  infer::InferenceWorkspace ws;
  const auto y = dnn.forward(input.data(), rows, ws);
  return {y.begin(), y.end()};
}

/// In-process served stack: backend + server, torn down in reverse.
struct Served {
  std::shared_ptr<infer::SparseDnn> dnn;
  std::unique_ptr<serve::Engine> engine;
  std::unique_ptr<serve::ShardRouter> router;
  serve::Backend* backend = nullptr;
  std::unique_ptr<Server> server;

  serve::Backend& local() { return *backend; }

  Served() = default;
  Served(Served&& other) noexcept
      : dnn(std::move(other.dnn)),
        engine(std::move(other.engine)),
        router(std::move(other.router)),
        backend(std::exchange(other.backend, nullptr)),
        server(std::move(other.server)) {}
  Served& operator=(Served&&) = delete;

  ~Served() {
    if (server) server->stop();
    if (backend) backend->shutdown();
  }
};

Served engine_served(serve::EngineOptions engine_options = {.workers = 1},
                     std::size_t layers = 4) {
  Served s;
  s.dnn = make_dnn(1024, layers, 71);
  s.engine = std::make_unique<serve::Engine>(engine_options);
  s.backend = s.engine.get();
  s.engine->add_model(s.dnn, "alpha",
                      {.priority = serve::Priority::kInteractive});
  s.engine->add_model(s.dnn, "beta", {.priority = serve::Priority::kBatch});
  ServerOptions options;
  options.hooks = make_admin_hooks(*s.engine);
  s.server = std::make_unique<Server>(*s.backend, options);
  return s;
}

Served router_served(std::size_t shards = 2) {
  Served s;
  s.dnn = make_dnn(1024, 4, 72);
  s.router = std::make_unique<serve::ShardRouter>(
      serve::ShardRouterOptions{.shards = shards, .engine = {.workers = 1}});
  s.backend = s.router.get();
  s.router->add_model(s.dnn, "alpha",
                      {.priority = serve::Priority::kInteractive});
  ServerOptions options;
  options.hooks = make_admin_hooks(*s.router);
  s.server = std::make_unique<Server>(*s.backend, options);
  return s;
}

TEST(ServeNet, SubmitFutureBitExactAndStatsMatchInProcess) {
  Served s = engine_served();
  RemoteBackend remote(s.server->port());
  EXPECT_TRUE(remote.accepting());

  constexpr index_t kRequests = 24;
  Rng irng(73);
  std::vector<std::vector<float>> inputs;
  std::vector<std::vector<float>> want;
  for (index_t i = 0; i < kRequests; ++i) {
    const index_t rows = 1 + i % 3;
    inputs.push_back(gc::synthetic_input(rows, 1024, 0.4, irng));
    want.push_back(direct_forward(*s.dnn, inputs[i], rows));
  }

  std::vector<std::future<std::vector<float>>> futures;
  for (index_t i = 0; i < kRequests; ++i) {
    auto result = remote.submit(
        serve::InferenceRequest::borrowed(0, inputs[i], 1 + i % 3));
    ASSERT_TRUE(result.admitted());
    EXPECT_NE(result.request_id(), 0u)
        << "the server-assigned RequestId must cross the wire";
    futures.push_back(result.take_future());
  }
  for (index_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(futures[i].get(), want[i])
        << "remote request " << i << " must be bit-exact";
  }

  // The wire stats ARE the in-process stats: identical counters and
  // identical raw histogram grids, not approximations.
  const serve::ServeStats local = s.local().stats(0);
  const serve::ServeStats wire = remote.stats(0);
  EXPECT_EQ(wire.requests, kRequests);
  EXPECT_EQ(wire.requests, local.requests);
  EXPECT_EQ(wire.rows, local.rows);
  EXPECT_EQ(wire.errors, local.errors);
  EXPECT_EQ(wire.e2e_p99, local.e2e_p99);
  EXPECT_EQ(wire.e2e_hist.raw_counts(), local.e2e_hist.raw_counts());
  EXPECT_EQ(wire.queue_wait_hist.raw_counts(),
            local.queue_wait_hist.raw_counts());
  EXPECT_EQ(wire.batch_rows_hist.raw_counts(),
            local.batch_rows_hist.raw_counts());

  EXPECT_EQ(remote.num_models(), s.local().num_models());
  EXPECT_EQ(remote.pending(0), 0u);
  EXPECT_EQ(remote.find_model("beta"), s.local().find_model("beta"));
  EXPECT_EQ(remote.find_model("nope"), std::nullopt);
}

TEST(ServeNet, SubmitCallbackDeliversOutputAndTiming) {
  Served s = engine_served();
  RemoteBackend remote(s.server->port());

  Rng irng(74);
  const auto input = gc::synthetic_input(2, 1024, 0.4, irng);
  const auto want = direct_forward(*s.dnn, input, 2);

  std::promise<std::vector<float>> delivered;
  serve::RequestTiming timing;
  serve::SubmitOptions opts;
  opts.done = [&](std::span<const float> output,
                  const serve::RequestTiming& t, std::exception_ptr error) {
    timing = t;
    if (error) {
      delivered.set_exception(error);
    } else {
      delivered.set_value({output.begin(), output.end()});
    }
  };
  auto result =
      remote.submit(serve::InferenceRequest::owned(0, input, 2), opts);
  ASSERT_TRUE(result.admitted());
  EXPECT_FALSE(result.has_future()) << "callback submissions carry no future";

  auto future = delivered.get_future();
  ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
  EXPECT_EQ(future.get(), want);
  EXPECT_EQ(timing.request_id, result.request_id());
  EXPECT_GT(timing.total_seconds, 0.0);
  EXPECT_EQ(timing.batch_rows, 2);
}

TEST(ServeNet, ConcurrentCallersShareOneConnection) {
  Served s = router_served(2);
  RemoteBackend remote(s.server->port());

  constexpr std::size_t kThreads = 4;
  constexpr index_t kPerThread = 8;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      for (index_t i = 0; i < kPerThread; ++i) {
        const index_t rows = 1 + i % 2;
        const auto input = gc::synthetic_input(rows, 1024, 0.4, rng);
        const auto want = direct_forward(*s.dnn, input, rows);
        auto result = remote.submit(
            serve::InferenceRequest::owned(0, input, rows));
        if (!result.admitted() || result.take_future().get() != want) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(remote.stats(0).requests, kThreads * kPerThread);
}

TEST(ServeNet, ShutDownBackendRejectsRemoteSubmits) {
  Served s = engine_served();
  RemoteBackend remote(s.server->port());

  // Engine-backed shard_ctl: kDrain quiesces (waits for the backlog,
  // admission stays open), so health stays kUp...
  auto health = remote.shard_ctl(ShardVerb::kDrain, 0);
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0], serve::ShardHealth::kUp);
  // ...and restart/kill need a sharded backend: kError, not a crash.
  EXPECT_THROW(remote.shard_ctl(ShardVerb::kRestart, 0), Error);
  remote.ping();  // the connection survived the failed verb

  // Shutting the backend down closes admission; the remote caller gets
  // the rejection as a VALUE, exactly like an in-process caller.
  s.engine->shutdown();
  EXPECT_EQ(remote.shard_ctl(ShardVerb::kHealth)[0],
            serve::ShardHealth::kDown);
  Rng irng(75);
  const auto input = gc::synthetic_input(1, 1024, 0.4, irng);
  const auto result =
      remote.submit(serve::InferenceRequest::owned(0, input, 1));
  EXPECT_FALSE(result.admitted())
      << "a shut-down backend must reject, not hang, remote submits";
}

TEST(ServeNet, ExpiredDeadlineCompletesWithDeadlineExceeded) {
  Served s = engine_served();
  RemoteBackend remote(s.server->port());

  Rng irng(76);
  const auto input = gc::synthetic_input(1, 1024, 0.4, irng);
  serve::SubmitOptions opts;
  opts.deadline = -1us;  // spent budget: admitted, shed at claim
  auto result =
      remote.submit(serve::InferenceRequest::owned(0, input, 1), opts);
  ASSERT_TRUE(result.admitted());
  EXPECT_THROW(result.get(), serve::DeadlineExceededError);

  const serve::ServeStats wire = remote.stats(0);
  EXPECT_EQ(wire.errors, 1u);
  EXPECT_EQ(wire.expired, 1u);
  EXPECT_EQ(wire.errors, s.local().stats(0).errors);
}

TEST(ServeNet, OutOfRangeDeadlinesAreClampedNotWrapped) {
  // Deadlines past the clock's range from the wire: the largest is served
  // as a far deadline, the smallest as a spent one -- neither may wrap
  // around in the backend's clock arithmetic.
  Served s = engine_served();
  RemoteBackend remote(s.server->port());

  Rng irng(79);
  const auto input = gc::synthetic_input(1, 1024, 0.4, irng);
  auto far = remote.submit(serve::InferenceRequest::borrowed(0, input, 1),
                           {.deadline = std::chrono::microseconds::max()});
  ASSERT_TRUE(far.admitted());
  EXPECT_EQ(far.get(), direct_forward(*s.dnn, input, 1));

  auto spent = remote.submit(serve::InferenceRequest::borrowed(0, input, 1),
                             {.deadline = std::chrono::microseconds::min()});
  ASSERT_TRUE(spent.admitted());
  EXPECT_THROW(spent.get(), serve::DeadlineExceededError);
}

TEST(ServeNet, ThrowingCallbackOnResultAndConnectionLoss) {
  // The DoneFn contract over the wire: an exception escaping a callback
  // is swallowed by the connection's reader, on a result frame and on
  // connection loss alike, and every request still completes once.
  Rng irng(83);
  const auto input = gc::synthetic_input(1, 1024, 0.4, irng);
  std::atomic<int> results{0};
  std::atomic<int> losses{0};
  const serve::DoneFn throwing = [&](std::span<const float>,
                                     const serve::RequestTiming&,
                                     std::exception_ptr error) {
    (error ? losses : results).fetch_add(1);
    throw std::runtime_error("client bug");
  };
  {
    Served s = engine_served();
    RemoteBackend remote(s.server->port());
    for (int i = 1; i <= 2; ++i) {
      ASSERT_TRUE(remote
                      .submit(serve::InferenceRequest::borrowed(0, input, 1),
                              {.done = throwing})
                      .admitted());
      ASSERT_TRUE(eventually([&] { return results.load() == i; }));
    }
    EXPECT_EQ(remote.submit(serve::InferenceRequest::borrowed(0, input, 1))
                  .get(),
              direct_forward(*s.dnn, input, 1))
        << "the reader survived the throwing callbacks";
    EXPECT_EQ(remote.stats(0).requests, 3u);
  }

  // Connection loss: the worker holds the first request in an injected
  // wait and the second queues behind it; then the server goes away.
  FakeClock clock;
  serve::FaultInjector hold({.added_latency = 1h});
  Served s = engine_served(
      {.workers = 1, .max_delay = 0us, .clock = &clock, .fault = &hold});
  struct Release {
    serve::FaultInjector& hold;
    ~Release() { hold.cancel(); }  // lets the worker drain on teardown
  } release{hold};
  RemoteBackend remote(s.server->port());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(remote
                    .submit(serve::InferenceRequest::borrowed(0, input, 1),
                            {.done = throwing})
                    .admitted());
  }
  s.server->stop();
  ASSERT_TRUE(eventually([&] { return losses.load() == 2; }));
  hold.cancel();
  s.engine->quiesce();
  EXPECT_EQ(s.engine->stats(0).requests, 2u);
  EXPECT_EQ(losses.load(), 2);
  EXPECT_EQ(results.load(), 2);
  EXPECT_FALSE(remote.accepting());
}

TEST(ServeNet, UnknownModelFailsTheSubmitCall) {
  Served s = engine_served();
  RemoteBackend remote(s.server->port());
  Rng irng(77);
  const auto input = gc::synthetic_input(1, 1024, 0.4, irng);
  EXPECT_THROW(remote.submit(serve::InferenceRequest::owned(99, input, 1)),
               Error);
}

TEST(ServeNet, FailFastRejectsUnderBacklog) {
  // One worker, tiny queue, deep model.  The worker holds its first
  // batch in an hour-long injected wait on a fake clock and two more
  // fill the queue behind it, so the backlog cannot drain and a
  // fail-fast submit provably meets a full queue.
  FakeClock clock;
  serve::FaultInjector hold({.added_latency = 1h});
  Served s = engine_served({.workers = 1,
                            .max_delay = 0us,
                            .queue_capacity = 2,
                            .clock = &clock,
                            .fault = &hold},
                           12);
  struct Release {
    serve::FaultInjector& hold;
    ~Release() { hold.cancel(); }  // lets the worker drain on teardown
  } release{hold};
  RemoteBackend remote(s.server->port());

  Rng irng(78);
  const auto big = gc::synthetic_input(64, 1024, 0.4, irng);
  std::vector<std::future<std::vector<float>>> admitted;
  const auto submit_big = [&] {
    auto result = remote.submit(serve::InferenceRequest::borrowed(0, big, 64));
    ASSERT_TRUE(result.admitted());
    admitted.push_back(result.take_future());
  };
  submit_big();
  ASSERT_TRUE(eventually(
      [&] { return s.engine->pending(0) == 0 && clock.parked() == 1; }));
  submit_big();
  submit_big();
  ASSERT_EQ(s.engine->pending(0), 2u);

  const auto one = gc::synthetic_input(1, 1024, 0.4, irng);
  serve::SubmitOptions opts;
  opts.admission = serve::Admission::kFailFast;
  EXPECT_FALSE(remote.submit(serve::InferenceRequest::borrowed(0, one, 1), opts)
                   .admitted())
      << "kFailFast against a saturated remote queue must reject";
  EXPECT_EQ(s.engine->pending(0), 2u) << "a rejection must not enqueue";

  hold.cancel();
  const auto want = direct_forward(*s.dnn, big, 64);
  for (auto& f : admitted) EXPECT_EQ(f.get(), want);
}

TEST(ServeNet, AdmissionBudgetOverTheWireIsClampedNeverAHang) {
  // A saturated backend on a fake clock: the lone worker holds a plug
  // in an hour-long injected wait and a filler takes the one queue
  // slot.  Over the wire a negative budget fails fast, and kBlock is
  // clamped to the server's 250 ms cap, so it ends in a rejection.
  FakeClock clock;
  serve::FaultInjector hold({.added_latency = 1h});
  Served s = engine_served({.workers = 1,
                            .max_delay = 0us,
                            .queue_capacity = 1,
                            .clock = &clock,
                            .fault = &hold});
  struct Release {
    serve::FaultInjector& hold;
    ~Release() { hold.cancel(); }  // lets the worker drain on teardown
  } release{hold};

  Rng irng(83);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  const auto submit_local = [&] {
    return s.engine->submit(serve::InferenceRequest::borrowed(0, x, 1))
        .take_future();
  };
  auto plug = submit_local();
  ASSERT_TRUE(eventually(
      [&] { return s.engine->pending(0) == 0 && clock.parked() == 1; }));
  auto filler = submit_local();
  ASSERT_EQ(s.engine->pending(0), 1u);

  RemoteBackend remote(s.server->port());
  // Virtual time never moves here: a budget that waited would hang.
  for (const auto wait : {-1us, std::chrono::microseconds::min()}) {
    EXPECT_FALSE(remote
                     .submit(serve::InferenceRequest::borrowed(0, x, 1),
                             {.admission = wait})
                     .admitted())
        << "budget " << wait.count();
  }
  EXPECT_EQ(clock.parked(), 1) << "a negative budget must not wait";

  std::atomic<int> verdict{-1};
  std::thread blocked([&] {
    const auto result =
        remote.submit(serve::InferenceRequest::borrowed(0, x, 1),
                      {.admission = serve::Admission::kBlock});
    verdict.store(result.admitted() ? 1 : 0);
  });
  // The submit-pool thread waits out its clamped budget on the clock.
  ASSERT_TRUE(eventually([&] { return clock.parked() == 2; }));
  clock.advance(249ms);
  std::this_thread::sleep_for(10ms);
  EXPECT_EQ(verdict.load(), -1) << "the clamped wait gave up early";
  clock.advance(1ms);
  blocked.join();
  EXPECT_EQ(verdict.load(), 0) << "kBlock over the wire must be rejected";
  EXPECT_EQ(s.engine->pending(0), 1u) << "a rejection must not enqueue";

  hold.cancel();
  const auto want = direct_forward(*s.dnn, x, 1);
  EXPECT_EQ(plug.get(), want);
  EXPECT_EQ(filler.get(), want);
}

TEST(ServeNet, AdminVerbsAgainstRouter) {
  Served s = router_served(2);
  RemoteBackend remote(s.server->port());

  remote.ping();

  const auto models = remote.list_models();
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0].id, 0u);
  EXPECT_EQ(models[0].name, "alpha");
  EXPECT_EQ(models[0].input_width, 1024u);
  EXPECT_EQ(models[0].output_width, 1024u);
  EXPECT_EQ(models[0].priority, serve::Priority::kInteractive);
  EXPECT_FALSE(models[0].retired);
  EXPECT_EQ(models[0].version, 1u);

  // Serve a little traffic so class stats have content, then compare
  // the wire view against the router's own merged snapshot.
  Rng irng(79);
  for (int i = 0; i < 6; ++i) {
    const auto input = gc::synthetic_input(1, 1024, 0.4, irng);
    (void)remote.submit(serve::InferenceRequest::owned(0, input, 1)).get();
  }
  const auto local = s.router->class_stats(serve::Priority::kInteractive);
  const auto wire = remote.class_stats(serve::Priority::kInteractive);
  EXPECT_EQ(wire.requests, 6u);
  EXPECT_EQ(wire.requests, local.requests);
  EXPECT_EQ(wire.e2e_hist.raw_counts(), local.e2e_hist.raw_counts());

  const auto metrics = remote.metrics_text();
  EXPECT_NE(metrics.find("# HELP"), std::string::npos);
  EXPECT_NE(metrics.find("radix_serve_shard_health"), std::string::npos);

  // Lifecycle round-trip: drain -> restart -> kill -> restart.
  auto health = remote.shard_ctl(ShardVerb::kHealth);
  ASSERT_EQ(health.size(), 2u);
  EXPECT_EQ(health[0], serve::ShardHealth::kUp);
  health = remote.shard_ctl(ShardVerb::kDrain, 0);
  EXPECT_NE(health[0], serve::ShardHealth::kUp);
  health = remote.shard_ctl(ShardVerb::kRestart, 0);
  EXPECT_EQ(health[0], serve::ShardHealth::kUp);
  health = remote.shard_ctl(ShardVerb::kKill, 1);
  EXPECT_EQ(health[1], serve::ShardHealth::kDown);
  health = remote.shard_ctl(ShardVerb::kRestart, 1);
  EXPECT_EQ(health[1], serve::ShardHealth::kUp);
}

// `models` lists every id, tombstones included: after removing id 0
// of two, the listing is row 0 (retired) and row 1 (live), not row 0
// alone.
void expect_retired_then_live(const std::vector<WireModelInfo>& models) {
  ASSERT_EQ(models.size(), 2u);
  EXPECT_EQ(models[0].id, 0u);
  EXPECT_TRUE(models[0].retired);
  EXPECT_EQ(models[1].id, 1u);
  EXPECT_FALSE(models[1].retired);
  EXPECT_EQ(models[1].name, "beta");
  EXPECT_EQ(models[1].input_width, 1024u);
}

TEST(ServeNet, ListModelsKeepsLiveIdsAfterRemoveRouter) {
  Served s = router_served(2);
  s.router->add_model(s.dnn, "beta");
  s.router->remove_model(0);
  RemoteBackend remote(s.server->port());
  expect_retired_then_live(remote.list_models());
}

TEST(ServeNet, ListModelsKeepsLiveIdsAfterRemoveEngine) {
  Served s = engine_served();
  s.engine->remove_model(0);
  RemoteBackend remote(s.server->port());
  expect_retired_then_live(remote.list_models());
}

TEST(ServeNet, ClientDisconnectOrphansLateResponses) {
  // A deep model and one worker: queue several slow requests from a raw
  // socket, then vanish.  The server must notice the EOF, complete the
  // backend requests anyway (it cannot un-submit them), and DROP the
  // responses -- counted as orphaned, never written to a dead fd.  The
  // worker holds its first batch in an injected wait on a fake clock
  // until the server has seen the disconnect, so no response can beat
  // it.
  FakeClock clock;
  serve::FaultInjector hold({.added_latency = 1h});
  Served s = engine_served(
      {.workers = 1, .max_delay = 0us, .clock = &clock, .fault = &hold}, 12);
  struct Release {
    serve::FaultInjector& hold;
    ~Release() { hold.cancel(); }  // lets the worker drain on teardown
  } release{hold};

  Rng irng(80);
  const auto input = gc::synthetic_input(64, 1024, 0.4, irng);
  {
    Fd fd = connect_tcp(s.server->port());
    for (int i = 0; i < 8; ++i) {
      std::vector<std::uint8_t> body;
      WireWriter w(body);
      w.u64(0);                                  // model
      w.u32(64);                                 // rows
      w.i64(serve::Admission::kBlock.count());  // admission budget
      w.i64(0);                                  // deadline
      w.u64(0);                                  // trace id
      w.floats(input);
      send_frame(fd, MsgType::kSubmit, static_cast<std::uint64_t>(i), body);
    }
    // Every request is in the backend (one held, seven queued) before
    // the client goes.
    ASSERT_TRUE(eventually(
        [&] { return s.engine->pending(0) == 7 && clock.parked() == 1; }));
  }  // fd closes here: disconnect with 8 requests in flight

  // A later client's round trip: the server handles the first
  // connection's hang-up, which was readable before this client even
  // connected, no later than it answers this ping.
  RemoteBackend remote(s.server->port());
  remote.ping();
  hold.cancel();

  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (s.server->orphaned_responses() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_GT(s.server->orphaned_responses(), 0u);

  // The server is still healthy for other clients afterwards.
  remote.ping();
  const auto small = gc::synthetic_input(1, 1024, 0.4, irng);
  EXPECT_EQ(remote.submit(serve::InferenceRequest::owned(0, small, 1)).get(),
            direct_forward(*s.dnn, small, 1));
}

TEST(ServeNet, HalfCloseStillRunsEveryBufferedSubmit) {
  // A client that writes, half-closes and closes without reading: every
  // kSubmit that reached the server before the EOF must still be run
  // and counted -- the EOF (or the hang-up it turns into) must not drop
  // frames already buffered on the connection.
  Served s = engine_served();
  constexpr std::uint64_t kSubmits = 32;
  Rng irng(82);
  const auto input = gc::synthetic_input(1, 1024, 0.4, irng);
  {
    Fd fd = connect_tcp(s.server->port());
    for (std::uint64_t i = 0; i < kSubmits; ++i) {
      std::vector<std::uint8_t> body;
      WireWriter w(body);
      w.u64(0);                                  // model
      w.u32(1);                                  // rows
      w.i64(serve::Admission::kBlock.count());  // admission budget
      w.i64(0);                                  // deadline
      w.u64(0);                                  // trace id
      w.floats(input);
      send_frame(fd, MsgType::kSubmit, i, body);
    }
    ASSERT_EQ(::shutdown(fd.get(), SHUT_WR), 0);
    // Close only once the server's kernel has acknowledged every byte
    // and the FIN.  Closing with unread responses resets the connection,
    // and a reset discards what the client's send buffer still holds:
    // frames that never reached the server.
    ASSERT_TRUE(eventually([&] {
      int unacked = 0;
      return ::ioctl(fd.get(), SIOCOUTQ, &unacked) == 0 && unacked == 0;
    }));
  }  // and close

  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (s.engine->stats(0).requests < kSubmits &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(s.engine->stats(0).requests, kSubmits)
      << "submits sent before the close were dropped";
}

TEST(ServeNet, HalfClosedClientReadsEveryResponse) {
  // A client that writes its submits, half-closes and only then reads:
  // the EOF must not cost it one response, and the server closes the
  // connection once the last one is written.
  Served s = engine_served();
  constexpr std::uint64_t kSubmits = 32;
  Rng irng(83);
  std::vector<std::vector<float>> inputs;
  Fd fd = connect_tcp(s.server->port());
  for (std::uint64_t i = 0; i < kSubmits; ++i) {
    inputs.push_back(gc::synthetic_input(1, 1024, 0.4, irng));
    std::vector<std::uint8_t> body;
    WireWriter w(body);
    w.u64(0);                                  // model
    w.u32(1);                                  // rows
    w.i64(serve::Admission::kBlock.count());  // admission budget
    w.i64(0);                                  // deadline
    w.u64(0);                                  // trace id
    w.floats(inputs.back());
    send_frame(fd, MsgType::kSubmit, i, body);
  }
  ASSERT_EQ(::shutdown(fd.get(), SHUT_WR), 0);
  // A server that never closes fails the read below instead of hanging.
  const timeval timeout{.tv_sec = 10, .tv_usec = 0};
  ASSERT_EQ(::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);

  std::uint64_t acks = 0;
  std::vector<int> results(kSubmits, 0);
  for (;;) {
    std::optional<Frame> frame;
    ASSERT_NO_THROW(frame = recv_frame(fd)) << "server neither answered "
                                               "nor closed";
    if (!frame) break;  // the server closed after the last response
    ASSERT_LT(frame->correlation, kSubmits);
    WireReader r(frame->body);
    if (frame->type == MsgType::kSubmitAck) {
      EXPECT_EQ(r.u8(), 1) << "submit " << frame->correlation
                           << " not admitted";
      ++acks;
      continue;
    }
    ASSERT_EQ(frame->type, MsgType::kResult);
    EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(WireErrorKind::kNone));
    (void)r.str();  // error message
    (void)r.f64();  // queue seconds
    (void)r.f64();  // total seconds
    (void)r.u32();  // batch rows
    (void)r.u64();  // request id
    EXPECT_EQ(r.floats(), direct_forward(*s.dnn, inputs[frame->correlation], 1))
        << "submit " << frame->correlation;
    ++results[frame->correlation];
  }
  EXPECT_EQ(acks, kSubmits);
  EXPECT_EQ(results, std::vector<int>(kSubmits, 1));

  s.server->stop();  // joins the submit pool: every outcome is counted
  const Server::SubmitOutcomes c = s.server->submit_outcomes();
  EXPECT_EQ(c.parsed, kSubmits);
  EXPECT_EQ(c.acked, kSubmits);
  EXPECT_EQ(c.rejected, 0u);
  EXPECT_EQ(c.orphaned, 0u);
  EXPECT_EQ(s.server->orphaned_responses(), 0u);
}

TEST(ServeNet, LocalShutdownDrainsAndStopsAdmitting) {
  Served s = engine_served();
  auto remote = std::make_unique<RemoteBackend>(s.server->port());

  Rng irng(81);
  const auto input = gc::synthetic_input(1, 1024, 0.4, irng);
  auto future =
      remote->submit(serve::InferenceRequest::owned(0, input, 1))
          .take_future();
  remote->shutdown();  // waits for the in-flight completion
  EXPECT_FALSE(remote->accepting());
  EXPECT_EQ(future.get(), direct_forward(*s.dnn, input, 1))
      << "local shutdown must drain, not drop, in-flight requests";
  EXPECT_FALSE(
      remote->submit(serve::InferenceRequest::owned(0, input, 1)).admitted());
  remote->shutdown();  // idempotent
  remote.reset();

  // The server never noticed anything but a clean disconnect.
  EXPECT_FALSE(s.server->stopped());
  EXPECT_EQ(s.server->orphaned_responses(), 0u);
}

TEST(ServeNet, ShutdownVerbStopsTheServer) {
  Served s = engine_served();
  RemoteBackend remote(s.server->port());
  EXPECT_FALSE(s.server->stopped());
  remote.server_shutdown();
  s.server->wait();
  EXPECT_TRUE(s.server->stopped());
  EXPECT_GE(s.server->connections_accepted(), 1u);
}

}  // namespace
}  // namespace radix::net
