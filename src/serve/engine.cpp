#include "serve/engine.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "support/error.hpp"

namespace radix::serve {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t nanos_of(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

BatcherOptions batcher_options(const EngineOptions& o) {
  BatcherOptions b;
  b.queue_capacity = o.queue_capacity;
  b.max_batch_rows = o.max_batch_rows;
  b.max_delay = o.max_delay;
  b.starvation_bound = o.starvation_bound;
  b.clock = o.clock;
  b.shed_capacity = o.shed_capacity;
  return b;
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(options), batcher_(batcher_options(options)) {
  RADIX_REQUIRE(options_.max_batch_rows > 0,
                "Engine: max_batch_rows must be > 0");
  models_.store(std::make_shared<const Registry>());
  worker_count_ =
      options_.workers == 0 ? default_worker_count() : options_.workers;
  try {
    for (unsigned i = 0; i < worker_count_; ++i) {
      workers_.spawn([this, i] { worker_loop(i); });
    }
  } catch (...) {
    // A failed spawn (e.g. thread-resource exhaustion) unwinds the
    // constructor, so ~Engine will not run: close the batcher here so
    // the already-started workers exit and ~ThreadGroup's joins return
    // instead of deadlocking.
    batcher_.close();
    throw;
  }
}

Engine::~Engine() { shutdown(); }

QosPolicy Engine::resolve_qos(QosPolicy qos) const {
  // Per-model value > class override > engine default; the batcher
  // resolves the final (engine-default) layer itself.  Priority is a
  // uint8 enum class (any raw value converts legally) and indexes the
  // override table, so gate it before the lookup.
  RADIX_REQUIRE(static_cast<std::size_t>(qos.priority) < kNumPriorities,
                "Engine: invalid priority class");
  const ClassPolicy& cls =
      options_.class_policy[static_cast<std::size_t>(qos.priority)];
  if (qos.max_delay < std::chrono::microseconds::zero()) {
    qos.max_delay = cls.max_delay;  // may still be unset: batcher default
  }
  if (qos.max_batch_rows == 0) qos.max_batch_rows = cls.max_batch_rows;
  return qos;
}

void Engine::publish_locked(ModelId id, std::shared_ptr<const ModelState> st) {
  const auto current = models_.load();
  auto next = std::make_shared<Registry>(*current);  // shallow slot copy
  if (id == next->size()) {
    next->push_back(std::move(st));
  } else {
    (*next)[id] = std::move(st);
  }
  models_.store(std::move(next));
}

ModelId Engine::add_model(std::shared_ptr<const infer::SparseDnn> model,
                          std::string name, QosPolicy qos,
                          std::uint32_t version) {
  RADIX_REQUIRE(model != nullptr, "Engine: model must not be null");
  auto st = std::make_shared<ModelState>();
  st->dnn = std::move(model);
  st->version = version;
  st->input_width = st->dnn->input_width();
  st->output_width = st->dnn->output_width();
  st->stats = std::make_shared<StatsCollector>();
  // Builds the shared gather cache once, up front, so the first served
  // batch does not pay one-time construction latency.  Worker
  // workspaces stay lazy: their panels grow once per worker on first
  // contact (growth-only, cheap next to a gather-cache build).
  st->dnn->prewarm();
  // Registry publish and batcher queue creation must be one atomic
  // step: concurrent add_model calls interleaving between them would
  // hand out mismatched ids and route one model's traffic to another's
  // queue.  Lock order is models_mutex_ -> batcher monitor; no other
  // path nests the two.
  std::scoped_lock lock(models_mutex_);
  const auto reg = models_.load();
  st->name = detail::resolve_model_name(
      std::move(name), reg->size(),
      [&](const std::string& n) {
        // Retired slots release their name for reuse: the model they
        // named has left the registry.
        for (const auto& existing : *reg) {
          if (!existing->retired && existing->name == n) return true;
        }
        return false;
      },
      "Engine");
  // Batcher slot first: its validation (priority, weight, closed) can
  // throw, and throwing *after* the registry publish would leave the
  // two permanently desynced.  The reverse failure (publish throwing
  // after the slot exists) only leaves an unreachable empty queue,
  // which the scheduler skips.
  const ModelId id = reg->size();
  const QosPolicy resolved = resolve_qos(qos);
  st->priority = resolved.priority;
  const ModelId batcher_id = batcher_.add_model(resolved);
  RADIX_ASSERT(batcher_id == id,
               "Engine: model registry and batcher out of sync");
  publish_locked(id, std::move(st));
  return id;
}

void Engine::remove_model(ModelId id) {
  std::scoped_lock lock(models_mutex_);
  const auto reg = models_.load();
  RADIX_REQUIRE(id < reg->size(), "Engine: unknown model id");
  const auto& old = (*reg)[id];
  RADIX_REQUIRE(!old->retired, "Engine: model already removed");
  // Close admission for this model only, then serve out its backlog.
  // Workers make progress without models_mutex_ (they read the registry
  // snapshot), so holding it across the drain only serializes other
  // lifecycle calls -- exactly the intent.
  batcher_.retire_model(id);
  batcher_.drain_model(id);
  // Tombstone: weights released, name freed for reuse, stats retained
  // so the id keeps answering stats() with its history.
  auto st = std::make_shared<ModelState>(*old);
  st->dnn = nullptr;
  st->retired = true;
  publish_locked(id, std::move(st));
}

void Engine::swap_model(ModelId id,
                        std::shared_ptr<const infer::SparseDnn> dnn) {
  RADIX_REQUIRE(dnn != nullptr, "Engine: model must not be null");
  // Prewarm BEFORE taking any lock or publishing: the first batch on
  // the new version must not pay gather-cache construction, and the
  // submit hot path must never wait on it.
  dnn->prewarm();
  std::scoped_lock lock(models_mutex_);
  const auto reg = models_.load();
  RADIX_REQUIRE(id < reg->size(), "Engine: unknown model id");
  const auto& old = (*reg)[id];
  RADIX_REQUIRE(!old->retired, "Engine: cannot swap a removed model");
  // Queued requests were size-validated against the current widths; a
  // version with different widths is a different model, not a swap.
  RADIX_REQUIRE_DIM(dnn->input_width() == old->input_width &&
                        dnn->output_width() == old->output_width,
                    "Engine::swap_model: version widths differ");
  auto st = std::make_shared<ModelState>(*old);  // shares name + stats
  st->dnn = std::move(dnn);
  st->version = old->version + 1;
  publish_locked(id, std::move(st));
  // Batches claimed from here on resolve the new snapshot; batches
  // already claimed finish on the version they resolved.  The old
  // version's weights free once its last in-flight batch drops them.
}

ModelId Engine::add_tombstone() {
  auto st = std::make_shared<ModelState>();
  st->stats = std::make_shared<StatsCollector>();
  st->retired = true;
  std::scoped_lock lock(models_mutex_);
  const auto reg = models_.load();
  const ModelId id = reg->size();
  st->name = "tombstone-" + std::to_string(id);
  const ModelId batcher_id = batcher_.add_model(QosPolicy{});
  RADIX_ASSERT(batcher_id == id,
               "Engine: model registry and batcher out of sync");
  batcher_.retire_model(id);
  publish_locked(id, std::move(st));
  return id;
}

std::uint32_t Engine::model_version(ModelId id) const {
  return state(id)->version;
}

bool Engine::model_retired(ModelId id) const { return state(id)->retired; }

void Engine::quiesce() { batcher_.quiesce(); }

std::size_t Engine::num_ids() const {
  return models_.load()->size();
}

std::size_t Engine::num_models() const {
  const auto reg = models_.load();
  std::size_t live = 0;
  for (const auto& st : *reg) {
    if (!st->retired) ++live;
  }
  return live;
}

std::optional<ModelId> Engine::find_model(std::string_view name) const {
  const auto reg = models_.load();
  for (ModelId id = 0; id < reg->size(); ++id) {
    if (!(*reg)[id]->retired && (*reg)[id]->name == name) return id;
  }
  return std::nullopt;
}

unsigned Engine::num_workers() const noexcept { return worker_count_; }

std::shared_ptr<const Engine::ModelState> Engine::state(ModelId id) const {
  const auto reg = models_.load();
  RADIX_REQUIRE(id < reg->size(), "Engine: unknown model id");
  return (*reg)[id];
}

const infer::SparseDnn& Engine::model(ModelId id) const {
  const auto st = state(id);
  RADIX_REQUIRE(st->dnn != nullptr, "Engine: model was removed");
  return *st->dnn;
}

const std::string& Engine::model_name(ModelId id) const {
  return state(id)->name;
}

QosPolicy Engine::model_policy(ModelId id) const {
  (void)state(id);  // validates the id
  return batcher_.policy(id);
}

SubmitResult Engine::submit(InferenceRequest req, SubmitOptions opts) {
  // Id resolution off one snapshot load, no registry mutex --
  // lifecycle publishes never stall the hot path.
  auto st = state(req.model);  // validates the id
  // A removed model is a known id whose service ended: rejection is a
  // value (like shutdown), not a caller bug.  The batcher's retired
  // flag is the race-free authority; this check just short-circuits.
  if (st->retired) return SubmitResult::rejected();
  RADIX_REQUIRE(req.rows == 0 || req.input.data() != nullptr,
                "Engine::submit: null input with rows > 0");
  RADIX_REQUIRE_DIM(
      req.input.size() ==
          static_cast<std::size_t>(req.rows) * st->input_width,
      "Engine::submit: input size != rows * input_width");

  // A zero-row request has nothing to batch and completes inline below,
  // but admission still applies: after shutdown the engine serves
  // nothing, not even empties.
  if (req.rows == 0 && (!accepting() || batcher_.model_retired(req.model))) {
    return SubmitResult::rejected();
  }

  // Every admitted request carries a process-wide trace identity: a
  // relay (router failover capsule) passes the one it already assigned
  // so all hops record under one id; direct callers get a fresh one.
  const RequestId rid =
      opts.trace_id != 0 ? opts.trace_id : next_request_id();
  Tracer* const tracer = options_.tracer;
  Completion completion(std::move(opts.done));
  Request r;
  r.id = rid;
  r.rows = req.rows;
  r.done = std::move(completion.done);
  if (!req.storage.empty()) {
    r.owned = std::move(req.storage);
    r.input = r.owned.data();
  } else {
    r.input = req.input.data();
  }
  if (opts.deadline.count() != 0) {
    // Absolute end-to-end deadline, anchored at submit entry.  A
    // non-positive remaining budget (a failover relay that already
    // spent it) stamps a deadline in the past: admitted, then shed at
    // the first claim.
    r.deadline = batcher_.clock().now() + opts.deadline;
  }

  if (tracer) {
    tracer->record(rid, TraceEventKind::kSubmitted, options_.shard_index,
                   static_cast<std::uint32_t>(req.model), st->priority,
                   static_cast<std::uint32_t>(req.rows));
  }
  if (req.rows == 0) {
    const auto now = batcher_.clock().now();
    r.submitted = now;
    finish(req.model, *st, {&r, 1}, Outcome::kServed, now, now);
    return completion.admitted(rid);
  }

  // Pressure-shed victims are handed back here and completed OUTSIDE
  // the batcher monitor -- the batcher never runs completions.
  MicroBatcher::ShedList shed;
  // The admission wait composes with the e2e deadline: waiting past the
  // deadline could only admit a request that is already dead, so a
  // finite budget is capped at the remaining deadline.  A pre-expired
  // deadline (negative -- a relay with a spent budget) waits 0: still
  // admitted when there is space (then shed at claim, preserving
  // exactly-one-completion), but never waited for.  kBlock is never
  // capped: the failover path relies on a blocking resubmission being
  // admitted whatever its deadline.
  auto wait = opts.admission;
  if (wait != Admission::kBlock) {
    if (opts.deadline.count() < 0) {
      wait = Admission::kFailFast;
    } else if (opts.deadline.count() > 0) {
      wait = std::min(wait, opts.deadline);
    }
  }
  const bool admitted = batcher_.submit(req.model, std::move(r), wait, &shed);
  if (tracer && admitted) {
    tracer->record(rid, TraceEventKind::kAdmitted, options_.shard_index,
                   static_cast<std::uint32_t>(req.model), st->priority,
                   static_cast<std::uint32_t>(req.rows));
  }
  if (!shed.empty()) {
    const auto now = batcher_.clock().now();
    for (auto& [model, victim] : shed) {
      finish(model, *state(model), {&victim, 1}, Outcome::kShed, now, now);
    }
  }
  if (!admitted) return SubmitResult::rejected();
  return completion.admitted(rid);
}

void Engine::finish(ModelId model, const ModelState& st,
                    std::span<Request> group, Outcome outcome,
                    ClockSource::time_point claimed,
                    ClockSource::time_point finished,
                    std::exception_ptr error, std::span<const float> y,
                    const infer::InferenceStats& fwd) {
  if (group.empty()) return;  // e.g. a claim with nothing expired
  TraceEventKind event = TraceEventKind::kCompleted;
  switch (outcome) {
    case Outcome::kServed:
      break;
    case Outcome::kShed:
      event = TraceEventKind::kShed;
      error = std::make_exception_ptr(
          DeadlineExceededError("request shed under queue pressure"));
      break;
    case Outcome::kExpired:
      event = TraceEventKind::kExpired;
      error = std::make_exception_ptr(DeadlineExceededError(
          "end-to-end deadline passed before the request was claimed"));
      break;
    case Outcome::kAborted:  // no trace event: the request never ran here
      error = std::make_exception_ptr(
          AbortedError("engine aborted before the request was claimed"));
      break;
  }
  index_t batch_rows = 0;
  if (outcome == Outcome::kServed) {
    for (const Request& r : group) batch_rows += r.rows;
  }

  // Record BEFORE delivering completions: a caller that wakes on its
  // future and immediately reads stats() must already see its own
  // request (and its batch) counted.  Latencies anchor at `submitted`
  // (submit entry), not `enqueued` (admission), so time spent blocked
  // on a full queue is reported.  A shed, expired or aborted request IS
  // a completed request of this engine: it counts into requests and
  // errors, and its wait lands in the latency tails.  An aborted one
  // stays on this shard's ledger even when a router serves it elsewhere:
  // per-shard stats count what THIS engine did with its admissions.
  StatsCollector& ledger = *st.stats;
  if (batch_rows > 0 && !error) {
    ledger.record_batch(batch_rows, fwd.edges_processed, fwd.wall_seconds);
  }
  for (const Request& r : group) {
    const double qs = seconds_between(r.submitted, claimed);
    const double ts = seconds_between(r.submitted, finished);
    if (outcome == Outcome::kShed || outcome == Outcome::kExpired) {
      ledger.record_shed(qs, ts, outcome == Outcome::kExpired);
    } else {
      ledger.record_request(qs, ts, error != nullptr);
    }
  }

  Tracer* const tracer =
      outcome == Outcome::kAborted ? nullptr : options_.tracer;
  const std::int64_t t_done = tracer ? nanos_of(finished) : 0;
  // Requests were concatenated in FIFO order, so request i's rows are a
  // contiguous sub-span of a served batch's output.
  std::size_t row0 = 0;
  for (Request& r : group) {
    if (tracer) {
      const auto stamp = [&](TraceEventKind kind, index_t rows) {
        tracer->record_at(t_done, r.id, kind, options_.shard_index,
                          static_cast<std::uint32_t>(model), st.priority,
                          static_cast<std::uint32_t>(rows));
      };
      // kForwardEnd carries the COALESCED size; a zero-row request
      // never reached a forward pass.
      if (batch_rows > 0) stamp(TraceEventKind::kForwardEnd, batch_rows);
      stamp(event, r.rows);
    }
    RequestTiming timing;
    timing.queue_seconds = seconds_between(r.submitted, claimed);
    timing.total_seconds = seconds_between(r.submitted, finished);
    timing.batch_rows = batch_rows;
    timing.request_id = r.id;
    std::span<const float> rows_out;
    if (!error && !y.empty()) {
      rows_out = y.subspan(row0 * st.output_width,
                           static_cast<std::size_t>(r.rows) * st.output_width);
    }
    deliver(r.done, rows_out, timing, error);
    row0 += r.rows;
  }
}

ServeStats Engine::stats(ModelId id) const {
  return state(id)->stats->snapshot();
}

ServeStats Engine::class_stats(Priority p) const {
  RADIX_REQUIRE(static_cast<std::size_t>(p) < kNumPriorities,
                "Engine: invalid priority class");
  // Derived, never recorded twice: the bucket-wise merge of the ledgers
  // of the class's models, removed ones included.
  ServeStats merged;
  for (const auto& st : *models_.load()) {
    if (st->priority == p) merged.merge(st->stats->snapshot());
  }
  return merged;
}

std::size_t Engine::pending(ModelId id) const {
  (void)state(id);  // validates the id
  return batcher_.pending(id);
}

std::size_t Engine::pending_probe(ModelId id) const {
  return batcher_.pending(id);  // validates id under the monitor alone
}

void Engine::stop(bool abort_queued) {
  std::call_once(shutdown_once_, [&] {
    if (!abort_queued) {
      batcher_.close();     // refuse new work; queued stays claimable
      workers_.join_all();  // workers exit once every queue has drained
      return;
    }
    // Crash-shaped stop: extract everything still queued, fail it with
    // AbortedError so a failover layer can resubmit, and let claimed
    // batches finish.  Orphans are completed BEFORE joining the
    // workers: their completions (a router's resubmit-elsewhere) must
    // not wait on in-flight forward passes here.
    auto orphans = batcher_.abort();
    const auto now = batcher_.clock().now();
    for (auto& [model, r] : orphans) {
      finish(model, *state(model), {&r, 1}, Outcome::kAborted, now, now);
    }
    workers_.join_all();
  });
}

void Engine::shutdown() { stop(false); }

void Engine::abort() { stop(true); }

bool Engine::accepting() const { return !batcher_.closed(); }

void Engine::worker_loop(std::size_t worker_index) {
  (void)worker_index;  // worker identity only matters for debugging now
  infer::InferenceWorkspace workspace;
  BatchAssembly assembly;
  MicroBatcher::Batch batch;
  ClockSource& clock = batcher_.clock();

  Tracer* const tracer = options_.tracer;
  const std::uint16_t shard = options_.shard_index;

  while (batcher_.next(batch)) {
    // One snapshot resolve per claimed batch: every row of this batch
    // is served by this version, so a swap can never split a batch.
    const auto st = state(batch.model);
    const auto claimed = clock.now();
    const std::uint32_t model32 = static_cast<std::uint32_t>(batch.model);
    // The claim timestamp is taken once and reused for every member
    // request's claim-stage events.
    const std::int64_t t_claim = tracer ? nanos_of(claimed) : 0;

    // Requests whose end-to-end deadline passed before this claim are
    // completed FIRST -- before any injected latency or forward work --
    // with DeadlineExceededError.  They never touch a workspace; their
    // only cost was queue residency.
    finish(batch.model, *st, batch.expired, Outcome::kExpired, claimed,
           claimed);
    if (batch.rows == 0) {
      // Pure-expired claim: nothing live to serve.
      batcher_.batch_complete(batch.model);
      continue;
    }
    if (tracer) {
      for (const Request& r : batch.requests) {
        tracer->record_at(t_claim, r.id, TraceEventKind::kClaimed, shard,
                          model32, batch.priority,
                          static_cast<std::uint32_t>(r.rows));
        // kBatched carries the COALESCED size: the batch this request
        // rode in, not its own rows.
        tracer->record_at(t_claim, r.id, TraceEventKind::kBatched, shard,
                          model32, batch.priority,
                          static_cast<std::uint32_t>(batch.rows));
      }
    }
    busy_workers_.fetch_add(1, std::memory_order_relaxed);

    const float* input = assembly.assemble(batch, st->input_width);
    if (tracer) {
      // One stamp for the whole batch: every member request entered
      // the forward pass at the same instant.
      const std::int64_t t_fwd = tracer->now_ns();
      for (const Request& r : batch.requests) {
        tracer->record_at(t_fwd, r.id, TraceEventKind::kForwardBegin, shard,
                          model32, batch.priority,
                          static_cast<std::uint32_t>(batch.rows));
      }
    }
    infer::InferenceStats fstats;
    std::span<const float> y;
    std::exception_ptr error;
    // Fault-injection seam: added latency (a virtual wait under a
    // FakeClock) models a slow shard; an injected throw fails the whole
    // batch through the normal forward-error path below.
    if (options_.fault) {
      try {
        options_.fault->on_batch(clock);
      } catch (...) {
        error = std::current_exception();
      }
    }
    if (!error) {
      try {
        y = st->dnn->forward(input, batch.rows, workspace, &fstats);
      } catch (...) {
        error = std::current_exception();
      }
    }
    const auto finished = clock.now();
    busy_workers_.fetch_sub(1, std::memory_order_relaxed);
    finish(batch.model, *st, batch.requests, Outcome::kServed, claimed,
           finished, error, y, fstats);
    // Claim retired: what remove_model's drain and quiesce() wait on.
    batcher_.batch_complete(batch.model);
  }
}

std::size_t Engine::class_pending(Priority p) const {
  const auto reg = models_.load();
  std::size_t total = 0;
  for (ModelId id = 0; id < reg->size(); ++id) {
    const auto& st = (*reg)[id];
    if (st->retired || st->priority != p) continue;
    total += batcher_.pending(id);
  }
  return total;
}

unsigned Engine::busy_workers() const noexcept {
  return busy_workers_.load(std::memory_order_relaxed);
}

void Engine::export_metrics(MetricsRegistry& registry) const {
  const std::string shard = std::to_string(options_.shard_index);
  for (std::size_t i = 0; i < kNumPriorities; ++i) {
    const auto p = static_cast<Priority>(i);
    const ServeStats s = class_stats(p);
    const MetricLabels labels{{"class", std::string(to_string(p))},
                              {"shard", shard}};
    registry.set_counter("radix_serve_requests_total", labels,
                         static_cast<double>(s.requests),
                         "Requests completed (including shed/expired)");
    registry.set_counter("radix_serve_shed_total", labels,
                         static_cast<double>(s.shed),
                         "Requests dropped by the overload policy");
    registry.set_counter("radix_serve_expired_total", labels,
                         static_cast<double>(s.expired),
                         "Requests whose e2e deadline passed before claim");
    registry.set_counter("radix_serve_errors_total", labels,
                         static_cast<double>(s.errors),
                         "Requests completed with an exception");
    registry.set_counter("radix_serve_rows_total", labels,
                         static_cast<double>(s.rows), "Input rows served");
    registry.set_counter("radix_serve_batches_total", labels,
                         static_cast<double>(s.batches),
                         "Coalesced batches executed");
    registry.set_counter("radix_serve_edges_total", labels,
                         static_cast<double>(s.edges),
                         "Edges processed (batch rows x model nnz)");
    registry.set_counter("radix_serve_busy_seconds_total", labels,
                         s.busy_seconds, "Summed forward wall time");
    registry.set_gauge("radix_serve_queue_depth", labels,
                       static_cast<double>(class_pending(p)),
                       "Admitted requests not yet claimed by a worker");
    registry.set_histogram("radix_serve_e2e_latency_seconds", labels,
                           s.e2e_hist, "Submit-to-completion latency");
    registry.set_histogram("radix_serve_queue_wait_seconds", labels,
                           s.queue_wait_hist, "Submit-to-claim latency");
    registry.set_histogram("radix_serve_batch_rows", labels,
                           s.batch_rows_hist, "Coalesced batch sizes");
  }
  const MetricLabels shard_labels{{"shard", shard}};
  const unsigned workers = num_workers();
  registry.set_gauge("radix_serve_workers", shard_labels,
                     static_cast<double>(workers),
                     "Worker threads in the pool");
  registry.set_gauge(
      "radix_serve_worker_busy_fraction", shard_labels,
      workers == 0 ? 0.0
                   : static_cast<double>(busy_workers()) / workers,
      "Fraction of workers inside a claimed batch right now");
}

}  // namespace radix::serve
