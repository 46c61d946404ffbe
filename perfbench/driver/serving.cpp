// The serving workloads: open-loop Poisson traffic against a radix-served
// daemon over one RemoteBackend connection.
//
//   serve-remote  three fixed rate steps (low, mid, high).  Each sends a
//                 seeded mix of 1-row interactive requests to model-0
//                 (with a deadline) and 4-row batch requests to model-1.
//   serve-churn   the mid step only, while a second connection runs a
//                 seeded schedule of admin operations: save_model (a
//                 store write), load_model of the saved artifact (store
//                 read, registration and prewarm on every shard) and a
//                 shard kill followed by restart (failover and registry
//                 replay).
//
// Both end with a closed-loop saturation step, "max": the same request
// mix with kSaturationInFlight requests kept in flight, so the daemon,
// not the schedule, sets how many rows it answers per second and what
// they cost it in CPU time.  On serve-churn it starts once the admin
// schedule has finished.
//
// The models come from the seed: the driver generates the challenge
// network, writes both artifacts and the registry journal into a fresh
// store directory, and boots the daemon warm from it.  Set-up (daemon
// spawn to first correct response) is repeated kSetupReps times; the last
// daemon serves the timed window.  Every response is compared with a
// local forward of the same artifact, computed before the window from a
// seeded pool of inputs.
//
// Threads: the generator sends from the calling thread; each
// RemoteBackend adds its reader thread; serve-churn adds one admin
// thread with its own connection.  At most 4 threads and 2 connections.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "infer/sparse_dnn.hpp"
#include "net/remote_backend.hpp"
#include "radixnet/graph_challenge.hpp"
#include "serve/loadgen.hpp"
#include "store/artifact.hpp"
#include "store/journal.hpp"
#include "support/random.hpp"

extern char** environ;

namespace perfbench {
namespace {

using radix::index_t;
namespace serve = radix::serve;
namespace store = radix::store;

constexpr int kSetupReps = 11;
constexpr index_t kNeurons = 1024;
constexpr std::size_t kLayers = 12;
constexpr index_t kBatchRows = 4;
constexpr double kInteractiveShare = 0.5;
constexpr double kInputDensity = 0.4;
constexpr std::size_t kPoolSize = 32;
// End-to-end deadline of interactive requests.  Far above the latency
// SLO (perfbench/run.py), so a shed request means the daemon stalled.
constexpr std::chrono::milliseconds kInteractiveDeadline{1000};
// Offered rates (requests/s) of the steps; set so that on a 4-core host
// every step meets the SLO with room to spare and no request fails.
constexpr double kLowRate = 200.0, kMidRate = 500.0, kHighRate = 1000.0;
// The saturation step: the last 40 % of the window, with this many
// requests in flight (far below the daemon's per-model queue capacity,
// so none is rejected).
constexpr double kSaturationShare = 0.4;
constexpr long long kSaturationInFlight = 16;
// serve-churn: admin cycles (save, load, kill, restart) per run, and the
// batch requests sent just before each kill so the killed shard holds
// admitted-but-unclaimed work that must fail over.
constexpr int kChurnCycles = 6;
constexpr int kKillBurst = 24;

enum Outcome : int {
  kOk = 0,
  kRejected = 1,
  kErrored = 2,
  kDeadline = 3,  // shed or expired (DeadlineExceededError)
  kWrong = 4,
  kLost = 5,      // admitted but never completed
};

struct Step {
  const char* name;
  double rate;        // requests/s; 0 for the closed-loop saturation step
  double start, end;  // seconds from the window start
};

struct Request {
  double due = 0.0;  // seconds from the window start
  int step = 0;
  int cls = 0;       // 0 interactive (model-0), 1 batch (model-1)
  int pool = 0;
  // Filled in while running, all on the window-relative clock.
  double send = 0.0, ack = 0.0, done = 0.0;
  int outcome = kLost;
};

struct Pool {
  std::vector<std::vector<float>> input[2];
  std::vector<std::vector<float>> expected[2];
};

// --- Daemon process -------------------------------------------------------

class Daemon {
 public:
  Daemon(const std::string& bin, const std::string& store_dir,
         const std::string& log) {
    std::vector<std::string> args = {
        bin, "--port", "0", "--shards", "2", "--workers", "1", "--models",
        "2", "--neurons", std::to_string(kNeurons), "--layers",
        std::to_string(kLayers), "--store-dir", store_dir};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      throw std::runtime_error("cannot spawn " + bin + ": " + std::strerror(rc));
    }
    // Wait for "LISTENING <port>".
    const double deadline = now_s() + 30.0;
    while (port_ == 0) {
      std::ifstream in(log);
      std::string line;
      while (std::getline(in, line)) {
        if (line.rfind("LISTENING ", 0) == 0) {
          port_ = static_cast<std::uint16_t>(std::stoul(line.substr(10)));
        }
      }
      if (port_ != 0) break;
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("radix-served exited before listening; see " +
                                 log);
      }
      if (now_s() > deadline) {
        stop();
        throw std::runtime_error("radix-served did not listen within 30 s");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const noexcept { return pid_; }
  std::uint16_t port() const noexcept { return port_; }

  /// SIGTERM (the daemon drains and exits), SIGKILL after 10 s; always
  /// reaps the child.
  void stop() noexcept {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    const double deadline = now_s() + 10.0;
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_s() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

// --- Helpers --------------------------------------------------------------

bool same_output(std::span<const float> got, const std::vector<float>& want) {
  return got.size() == want.size() &&
         std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) == 0;
}

int classify(std::exception_ptr err) {
  try {
    std::rethrow_exception(err);
  } catch (const serve::DeadlineExceededError&) {
    return kDeadline;
  } catch (...) {
    return kErrored;
  }
}

// Counter value of a Prometheus text exposition line "<name> <value>".
double scrape_counter(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) return std::stod(line.substr(name.size() + 1));
  }
  return 0.0;
}

std::string stats_json(const serve::ServeStats& s) {
  JsonObject o;
  o.integer("requests", static_cast<long long>(s.requests))
      .integer("rows", static_cast<long long>(s.rows))
      .integer("batches", static_cast<long long>(s.batches))
      .integer("errors", static_cast<long long>(s.errors))
      .integer("shed", static_cast<long long>(s.shed))
      .integer("expired", static_cast<long long>(s.expired))
      .num("busy_s", s.busy_seconds)
      .num("mean_batch_rows", s.mean_batch_rows)
      .num("queue_wait_p50_s", s.queue_wait_p50);
  return o.render();
}

// Seeded arrival schedule: an inhomogeneous Poisson process whose rate is
// the step function of the open-loop `steps` (serve/loadgen's thinning
// sampler).
std::vector<Request> make_schedule(const std::vector<Step>& steps,
                                   std::uint64_t seed) {
  double peak = 0.0;
  for (const Step& s : steps) peak = std::max(peak, s.rate);
  serve::ArrivalProcessOptions ao;
  // Past the last step the rate stays at its value: a zero rate would
  // make the thinning sampler search forever for the next arrival.
  ao.rate = [steps](double t) {
    for (const Step& s : steps) {
      if (t < s.end) return s.rate;
    }
    return steps.back().rate;
  };
  ao.peak_rate = peak;
  ao.seed = seed;
  serve::ArrivalProcess arrivals(std::move(ao));
  radix::Rng rng(seed ^ 0x5851f42d4c957f2dull);
  std::vector<Request> out;
  const double end = steps.back().end;
  for (double t = arrivals.next(); t < end; t = arrivals.next()) {
    Request r;
    r.due = t;
    while (t >= steps[static_cast<std::size_t>(r.step)].end) ++r.step;
    r.cls = rng.uniform01() < kInteractiveShare ? 0 : 1;
    r.pool = static_cast<int>(rng.uniform(kPoolSize));
    out.push_back(r);
  }
  return out;
}

struct AdminOp {
  std::string op;
  double start = 0.0, end = 0.0;  // window-relative
  bool ok = false;
};

}  // namespace

RunResult run_serving(const std::string& workload, const RunOptions& opt) {
  const bool churn = workload == "serve-churn";
  if (!churn && workload != "serve-remote") {
    throw std::invalid_argument("unknown serving workload " + workload);
  }
  SpanLog spans(opt.trace);

  // --- Seed the store: both models from the seed, journaled.
  const std::string store_dir = opt.work_dir + "/store";
  std::filesystem::create_directories(store_dir);
  {
    radix::Rng rng(opt.seed);
    radix::gc::Network net = radix::gc::network(kNeurons, kLayers, &rng);
    const radix::infer::SparseDnn dnn(std::move(net.layers), net.bias,
                                      radix::gc::kClamp);
    store::RegistryJournal journal(store_dir);
    for (int m = 0; m < 2; ++m) {
      const std::string name = "model-" + std::to_string(m);
      store::save_artifact(store_dir + "/" + name + ".radixart", dnn, name);
      journal.append({store::JournalOp::kAdd, name, name + ".radixart",
                      static_cast<std::uint8_t>(
                          m == 0 ? serve::Priority::kInteractive
                                 : serve::Priority::kBatch)});
    }
  }
  const std::string artifact = store_dir + "/model-0.radixart";

  // --- Local model from the same artifact; input pool and expected
  // outputs.  Traced runs time ArtifactReader and prewarm here.
  std::vector<double> open_ms, instantiate_ms, local_prewarm_s;
  double prewarm_rss_mb = 0.0;
  std::optional<radix::infer::SparseDnn> local;
  for (int rep = 0; rep < (opt.trace ? 5 : 1); ++rep) {
    local.reset();
    const double t0 = now_s();
    store::ArtifactReader reader(artifact);
    const double t1 = now_s();
    local.emplace(reader.instantiate());
    const double t2 = now_s();
    const double rss0 = read_proc().rss_mb;
    radix::infer::InferenceWorkspace ws;
    local->prewarm({kBatchRows, &ws});
    const double t3 = now_s();
    if (rep == 0) prewarm_rss_mb = read_proc().rss_mb - rss0;
    open_ms.push_back((t1 - t0) * 1e3);
    instantiate_ms.push_back((t2 - t1) * 1e3);
    local_prewarm_s.push_back(t3 - t2);
    spans.record("store.open", t0, t1);
    spans.record("store.instantiate", t1, t2);
    spans.record("infer.prewarm", t2, t3);
  }
  Pool pool;
  {
    radix::Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 7);
    for (int cls = 0; cls < 2; ++cls) {
      const index_t rows = cls == 0 ? 1 : kBatchRows;
      for (std::size_t i = 0; i < kPoolSize; ++i) {
        auto x = radix::gc::synthetic_input(rows, kNeurons, kInputDensity, rng);
        pool.expected[cls].push_back(local->forward(x, rows));
        pool.input[cls].push_back(std::move(x));
      }
    }
  }

  // --- Set-up, repeated: daemon spawn to first correct response.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<radix::net::RemoteBackend> client;
  long long setup_mismatches = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    client.reset();
    daemon.reset();
    const double t0 = now_s();
    daemon = std::make_unique<Daemon>(
        opt.served_bin, store_dir,
        opt.work_dir + "/served-" + std::to_string(rep) + ".log");
    const double t1 = now_s();
    client = std::make_unique<radix::net::RemoteBackend>(daemon->port());
    auto out = client
                   ->submit(serve::InferenceRequest::borrowed(
                       0, pool.input[0][0], 1))
                   .get();
    const double t2 = now_s();
    if (!same_output(out, pool.expected[0][0])) ++setup_mismatches;
    setup_s.push_back(t2 - t0);
    spans.record("serve.daemon_listen", t0, t1);
    spans.record("net.first_response", t1, t2);
  }

  // --- Schedule: open-loop steps, then the saturation step.
  const double open_end = opt.seconds * (1.0 - kSaturationShare);
  std::vector<Step> steps;
  if (churn) {
    steps.push_back({"mid", kMidRate, 0.0, open_end});
  } else {
    // Equal thirds of the open-loop part.
    const double third = open_end / 3.0;
    steps.push_back({"low", kLowRate, 0.0, third});
    steps.push_back({"mid", kMidRate, third, 2 * third});
    steps.push_back({"high", kHighRate, 2 * third, open_end});
  }
  std::vector<Request> reqs = make_schedule(steps, opt.seed);
  steps.push_back({"max", 0.0, open_end, opt.seconds});
  // Saturation requests are made as they are sent; a deque keeps the
  // ones in flight where their completion callbacks point.
  std::deque<Request> sat;
  std::atomic<long long> sat_completed{0};
  long long sat_admitted = 0;
  std::atomic<long long> completed{0};
  long long admitted = 0;

  std::vector<AdminOp> admin;
  std::vector<Request> burst;  // churn: the pre-kill bursts
  std::unique_ptr<radix::net::RemoteBackend> admin_client;
  if (churn) {
    admin_client = std::make_unique<radix::net::RemoteBackend>(daemon->port());
    burst.resize(static_cast<std::size_t>(kChurnCycles * kKillBurst));
  }
  std::atomic<long long> burst_completed{0};
  long long burst_admitted = 0;

  const ProcSample p0 = read_proc(daemon->pid());
  const double w0 = now_s();
  auto rel = [w0] { return now_s() - w0; };

  // Completion: record the time, check the output, count.
  auto make_done = [&](Request& r, std::atomic<long long>& counter) {
    return [&r, &pool, &counter, &spans, rel](std::span<const float> out,
                                             const serve::RequestTiming&,
                                             std::exception_ptr err) {
      r.done = rel();
      if (err) {
        r.outcome = classify(err);
      } else {
        r.outcome = same_output(out, pool.expected[r.cls][r.pool]) ? kOk
                                                                   : kWrong;
      }
      spans.record("net.complete", r.send, r.done,
                   reinterpret_cast<std::uintptr_t>(&r));
      counter.fetch_add(1, std::memory_order_release);
      counter.notify_one();
    };
  };
  auto send = [&](radix::net::RemoteBackend& c, Request& r,
                  std::atomic<long long>& counter) -> bool {
    serve::SubmitOptions so;
    so.admission = serve::Admission::kFailFast;
    if (r.cls == 0) so.deadline = kInteractiveDeadline;
    so.done = make_done(r, counter);
    const index_t rows = r.cls == 0 ? 1 : kBatchRows;
    r.send = rel();
    bool ok = false;
    try {
      ok = c.submit(serve::InferenceRequest::borrowed(
                        static_cast<serve::ModelId>(r.cls),
                        pool.input[r.cls][static_cast<std::size_t>(r.pool)],
                        rows),
                    std::move(so))
               .admitted();
    } catch (const std::exception&) {
      r.outcome = kErrored;
    }
    r.ack = rel();
    spans.record("net.submit", r.send, r.ack,
                 reinterpret_cast<std::uintptr_t>(&r));
    if (!ok && r.outcome == kLost) r.outcome = kRejected;
    return ok;
  };

  // --- serve-churn admin schedule: cycles at seeded offsets.
  std::thread admin_thread;
  if (churn) {
    admin_thread = std::thread([&] {
      radix::Rng rng(opt.seed ^ 0xa0761d6478bd642full);
      const double period = open_end / kChurnCycles;
      auto timed = [&](const char* op, const char* span, auto&& fn) {
        AdminOp a{op, rel(), 0.0, false};
        try {
          fn();
          a.ok = true;
        } catch (const std::exception&) {
        }
        a.end = rel();
        spans.record(span, a.start, a.end);
        admin.push_back(a);
      };
      for (int c = 0; c < kChurnCycles; ++c) {
        const double at = (c + 0.1 + 0.5 * rng.uniform01()) * period;
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::max(0.0, at - rel())));
        const std::string path =
            opt.work_dir + "/churn-" + std::to_string(c) + ".radixart";
        const std::size_t shard = rng.uniform(2);
        timed("save", "store.save_model", [&] { admin_client->save_model(1, path); });
        timed("load", "store.load_model", [&] {
          admin_client->load_model(path, "churn-" + std::to_string(c));
        });
        for (int b = 0; b < kKillBurst; ++b) {
          Request& r = burst[static_cast<std::size_t>(c * kKillBurst + b)];
          r.due = rel();
          r.cls = 1;
          r.pool = static_cast<int>(rng.uniform(kPoolSize));
          burst_admitted += send(*admin_client, r, burst_completed);
        }
        timed("kill", "serve.kill_shard", [&] {
          admin_client->shard_ctl(radix::net::ShardVerb::kKill, shard);
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        timed("restart", "serve.restart_shard", [&] {
          admin_client->shard_ctl(radix::net::ShardVerb::kRestart, shard);
        });
      }
    });
  }

  // --- Generator: hold the schedule regardless of completions.
  for (Request& r : reqs) {
    const double wait = r.due - rel();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    admitted += send(*client, r, completed);
  }
  if (admin_thread.joinable()) admin_thread.join();

  // --- Saturation: keep kSaturationInFlight requests in flight.
  ProcSample sat_p0, sat_p1;  // the daemon, at the start and end
  {
    Step& st = steps.back();
    radix::Rng rng(opt.seed ^ 0xe7037ed1a0b428dbull);
    st.start = std::max(st.start, rel());
    sat_p0 = read_proc(daemon->pid());
    while (rel() < st.end) {
      const long long done = sat_completed.load(std::memory_order_acquire);
      if (sat_admitted - done >= kSaturationInFlight) {
        sat_completed.wait(done, std::memory_order_acquire);
        continue;
      }
      Request& r = sat.emplace_back();
      r.step = static_cast<int>(steps.size()) - 1;
      r.cls = rng.uniform01() < kInteractiveShare ? 0 : 1;
      r.pool = static_cast<int>(rng.uniform(kPoolSize));
      r.due = rel();
      sat_admitted += send(*client, r, sat_completed);
    }
    sat_p1 = read_proc(daemon->pid());
  }
  const double w1 = rel();

  // Drain: every admitted request completes (the Backend contract);
  // give up after 30 s and count the rest as lost.
  const double drain_deadline = now_s() + 30.0;
  auto all_done = [&] {
    return completed.load(std::memory_order_acquire) == admitted &&
           burst_completed.load(std::memory_order_acquire) == burst_admitted &&
           sat_completed.load(std::memory_order_acquire) == sat_admitted;
  };
  while (!all_done() && now_s() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool drained = all_done();
  const ProcSample p1 = read_proc(daemon->pid());
  const double w_end = now_s() - w0;

  std::vector<std::string> stats;
  const std::size_t models = client->num_models();
  for (std::size_t m = 0; m < models; ++m) {
    stats.push_back(stats_json(client->stats(m)));
  }
  const double failovers =
      scrape_counter(client->metrics_text(), "radix_serve_failovers_total");
  const double rss_peak_mb = read_proc(daemon->pid()).hwm_mb;

  // A client drains its in-flight requests on shutdown; after a failed
  // drain, stop the daemon first so the lost connection fails them.
  if (!drained) daemon.reset();
  client.reset();
  admin_client.reset();
  daemon.reset();
  std::filesystem::remove_all(opt.work_dir);

  // --- Accounting.
  RunResult result;
  result.mismatches = setup_mismatches;
  result.attempted = kSetupReps;
  result.failed = setup_mismatches;
  auto account = [&](const auto& rs) {
    for (const Request& r : rs) {
      ++result.attempted;
      if (r.outcome != kOk) ++result.failed;
      if (r.outcome == kWrong) ++result.mismatches;
    }
  };
  account(reqs);
  account(sat);
  account(burst);
  for (const AdminOp& a : admin) {
    ++result.attempted;
    if (!a.ok) ++result.failed;
  }
  if (churn) {
    int done_ops = 0;
    for (const AdminOp& a : admin) done_ops += a.ok;
    if (done_ops != 4 * kChurnCycles) {
      result.drift = "serve-churn completed " + std::to_string(done_ops) +
                     " of " + std::to_string(4 * kChurnCycles) +
                     " scheduled admin operations";
    } else if (failovers < 1.0) {
      result.drift = "serve-churn recorded no failover";
    }
  }
  if (!drained && result.drift.empty()) {
    result.drift = "admitted requests did not complete within 30 s";
  }

  // Requests as [step, class, due, send, ack, done, outcome] rows.
  auto request_json = [](const Request& r) {
    return json_list(
        {std::to_string(r.step), std::to_string(r.cls), json_number(r.due),
         json_number(r.send), json_number(r.ack), json_number(r.done),
         std::to_string(r.outcome)});
  };
  std::vector<std::string> request_rows, burst_rows;
  for (const Request& r : reqs) request_rows.push_back(request_json(r));
  for (const Request& r : sat) request_rows.push_back(request_json(r));
  for (const Request& r : burst) burst_rows.push_back(request_json(r));
  std::vector<std::string> steps_json;
  for (const Step& st : steps) {
    JsonObject o;
    o.str("name", st.name)
        .num("rate", st.rate)
        .num("start", st.start)
        .num("end", st.end);
    steps_json.push_back(o.render());
  }
  std::vector<std::string> admin_json;
  for (const AdminOp& a : admin) {
    admin_json.push_back(json_list({json_string(a.op), json_number(a.start),
                                    json_number(a.end),
                                    a.ok ? "true" : "false"}));
  }

  JsonObject out;
  out.str("workload", workload)
      .integer("neurons", kNeurons)
      .integer("layers", static_cast<long long>(kLayers))
      .integer("batch_rows", kBatchRows)
      .nums("setup_s", setup_s)
      .nums("store_open_ms", open_ms)
      .nums("store_instantiate_ms", instantiate_ms)
      .nums("prewarm_s", local_prewarm_s)
      .num("prewarm_rss_mb", prewarm_rss_mb)
      .integer("edges_per_row",
               static_cast<long long>(local->total_nnz()))
      .raw("steps", json_list(steps_json))
      .integer("saturation_in_flight", kSaturationInFlight)
      .num("saturation_daemon_cpu_s", sat_p1.cpu_s - sat_p0.cpu_s)
      .raw("requests", json_list(request_rows))
      .raw("burst", json_list(burst_rows))
      .raw("admin", json_list(admin_json))
      .raw("server_stats", json_list(stats))
      .num("failovers", failovers)
      .num("window_s", w1)
      .num("cpu_s", p1.cpu_s - p0.cpu_s)
      .num("proc_wall_s", w_end)
      .integer("invol_switches",
               static_cast<long long>(p1.invol_switches - p0.invol_switches))
      .num("rss_peak_mb", rss_peak_mb)
      .raw("spans", spans.to_json());
  result.json = out.render();
  return result;
}

}  // namespace perfbench
