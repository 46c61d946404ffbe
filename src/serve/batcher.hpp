// Dynamic micro-batcher: coalesces pending inference requests into
// large contiguous batches for the fused forward path, scheduling
// across models by QoS class.
//
// The Graph-Challenge numbers (and PR 2's fused kernels) reward big
// batches, but production traffic arrives as many small asynchronous
// requests from clients with very different latency needs.  The
// MicroBatcher bridges the two: producers push Requests into per-model
// bounded queues (serve/queue.hpp, all sharing one Monitor), and each
// consumer (engine worker) calls next(), which
//
//   1. picks the model to serve by the QoS claim policy (below);
//   2. greedily pops FIFO requests while the running row total fits in
//      the model's max_batch_rows (a first request larger than the
//      budget still ships alone -- the forward path handles any batch
//      size);
//   3. if the batch is not yet full, keeps absorbing newly arriving
//      requests for the same model until it fills or the *oldest*
//      claimed request has been waiting the model's max_delay since it
//      was enqueued -- so coalescing can never add more than max_delay
//      to any request's latency, and a request that already sat in the
//      queue that long ships immediately.
//
// Claim policy (serve/qos.hpp)
// ----------------------------
//   * Strict priority between classes: a queued interactive request is
//     always claimed before batch work, batch before background.
//   * Starvation bound: a backlogged lower class passed over for
//     `starvation_bound` consecutive claims is served next, so
//     background work keeps a guaranteed 1-in-(starvation_bound+1)
//     claim share under saturating higher-class load.
//   * Weighted-deficit round-robin within a class: each model banks
//     `weight` rows of credit per replenish round and pays for claimed
//     rows from its bank, so backlogged models of one class receive
//     rows proportional to their weights regardless of request sizes.
//     Credit does not accumulate while a model's queue is empty.
//
// Overload shedding (PR 7)
// ------------------------
// Two mechanisms keep the batcher from collapsing under sustained
// overload instead of growing unbounded latency:
//
//   * Expiry at claim time: a request carrying an end-to-end deadline
//     (Request::deadline) that has passed when a consumer claims it is
//     returned in Batch::expired instead of Batch::requests -- it never
//     becomes forward work; the consumer completes it exceptionally.
//     "now >= deadline" counts as expired, so a request expiring
//     exactly at its deadline is shed, not dispatched.
//   * Pressure shedding: with BatcherOptions::shed_capacity > 0, an
//     admission that would push the total queued count past the bound
//     drop-tails the newest queued request of the lowest-priority
//     backlogged class strictly below the incoming class (background
//     before batch before interactive); if none exists the incoming
//     request itself is shed.  Victims are handed back through the
//     submit call's ShedList for completion outside the monitor.
//
// Time is injectable (support/thread.hpp ClockSource): production uses
// the steady clock; tests inject a FakeClock so the deadline and
// fairness behavior above is asserted deterministically, without
// sleeps.  The batcher stamps request timestamps itself with that
// clock: `submitted` at submit entry (stats anchor) and `enqueued` on
// admission (deadline anchor) -- see Request.
//
// Several consumers may coalesce batches for the same model
// concurrently; FIFO order of claims is preserved per consumer, and
// correctness does not depend on which worker serves which rows (each
// batch row is independent in the forward rule).
//
// BatchAssembly (the other half of this file) turns a claimed batch
// into the contiguous [rows x width] input panel SparseDnn::forward
// expects, with a zero-copy fast path when the batch is one request,
// and computes the per-request output row offsets for scattering
// results back.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "serve/qos.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "sparse/types.hpp"
#include "support/thread.hpp"

namespace radix::serve {

// RequestTiming and DoneFn -- the completion vocabulary shared with the
// front-end API -- live in serve/request.hpp.

/// One queued inference request: `rows` rows of model-input features at
/// `input` (row-major).  When `owned` is non-empty it backs `input` and
/// the request carries its own storage; otherwise the caller guarantees
/// the pointed-to buffer stays alive until completion.
///
/// The batcher stamps two timestamps with its injected clock:
/// `submitted` when the caller entered submit (the stats anchor, so
/// queue-wait/e2e percentiles include time spent blocked on a full
/// queue) and `enqueued` on admission (the max_delay deadline anchor,
/// so a request that waited out backpressure still gets a full
/// coalescing window).
struct Request {
  /// Trace identity assigned at submit (serve/trace.hpp); flows into
  /// RequestTiming::request_id and every trace event of this request.
  RequestId id = 0;
  index_t rows = 0;
  const float* input = nullptr;
  std::vector<float> owned;
  DoneFn done;
  std::chrono::steady_clock::time_point submitted{};
  std::chrono::steady_clock::time_point enqueued{};
  /// Absolute end-to-end deadline by the batcher's clock; the default
  /// (epoch) means none.  A request whose deadline has passed when a
  /// consumer claims it is returned in Batch::expired instead of
  /// Batch::requests -- it must never be served as forward work.
  std::chrono::steady_clock::time_point deadline{};
};

struct BatcherOptions {
  /// Pending-request bound per model; a full queue makes submit() wait
  /// out its admission budget.
  std::size_t queue_capacity = 1024;
  /// Default row budget of one coalesced batch (per-model overridable).
  index_t max_batch_rows = 64;
  /// Default coalescing window from the oldest claimed request's
  /// enqueue time; 0 ships whatever is queued (per-model overridable).
  std::chrono::microseconds max_delay{200};
  /// A backlogged lower class is served after being passed over this
  /// many consecutive claims (>= 1; see file comment).
  std::uint64_t starvation_bound = 16;
  /// Total queued-request bound across ALL models; 0 disables pressure
  /// shedding.  When an admission would push the total past this bound,
  /// the batcher sheds (drop-tail) the newest queued request of the
  /// lowest-priority backlogged class strictly below the incoming
  /// request's class -- background before batch before interactive.  If
  /// no lower class is backlogged the incoming request itself is shed.
  /// Shed requests are handed back through the submit call's shed list
  /// for the caller to complete (with DeadlineExceededError); they are
  /// never silently dropped.
  std::size_t shed_capacity = 0;
  /// Time source; nullptr means the process steady clock.
  ClockSource* clock = nullptr;
};

class MicroBatcher {
 public:
  using Clock = std::chrono::steady_clock;

  /// A claimed batch: requests of one model, FIFO, totalling `rows`.
  /// `expired` holds requests of the same model whose end-to-end
  /// deadline had passed at claim time: they are NOT part of `rows`,
  /// must not run forward, and the consumer owns completing them
  /// (with DeadlineExceededError) before batch_complete.  A claim may
  /// be pure-expired (rows == 0, requests empty).
  struct Batch {
    std::size_t model = 0;
    Priority priority = Priority::kBatch;
    index_t rows = 0;
    std::vector<Request> requests;
    std::vector<Request> expired;

    void clear() noexcept {
      model = 0;
      priority = Priority::kBatch;
      rows = 0;
      requests.clear();  // keeps capacity across reuse
      expired.clear();
    }
  };

  /// (model, request) pairs shed by the pressure policy during one
  /// submit call; the caller owns completing them outside the monitor.
  using ShedList = std::vector<std::pair<std::size_t, Request>>;

  explicit MicroBatcher(BatcherOptions options = {});
  ~MicroBatcher();  // detaches from a fake clock, if one was injected

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Append a model slot with its service policy; returns its index.
  /// Unset policy fields inherit the batcher defaults; weight must
  /// resolve >= 1.  Safe while consumers run.
  std::size_t add_model(QosPolicy policy = {});

  /// Stop admitting requests for one model (submit returns false,
  /// blocked submitters wake and fail) while everything already queued
  /// stays claimable -- the per-model half of close().
  /// Idempotent; safe while consumers run.  Model ids are never reused,
  /// so a retired slot stays retired.
  void retire_model(std::size_t model);

  bool model_retired(std::size_t model) const;

  /// Block until one model has nothing queued and nothing in flight
  /// (every claimed batch has been reported via batch_complete).
  /// Combined with retire_model this is a per-model graceful drain:
  /// retire, drain, and the model has served its last request.
  void drain_model(std::size_t model);

  /// Block until EVERY model is idle (empty queues, zero in-flight
  /// batches).  Does not stop admission: callers that want a terminal
  /// quiesce retire/close first.
  void quiesce();

  /// Consumer-side completion hook: a batch claimed from `model` by
  /// next() has been fully served (results delivered).  Drives the
  /// in-flight accounting drain_model/quiesce wait on; every next()
  /// claim must be paired with exactly one batch_complete.
  void batch_complete(std::size_t model);

  /// Close AND fail fast: refuse new work and hand every still-queued
  /// request back to the caller as (model, request) pairs instead of
  /// letting consumers drain them.  Batches already claimed by next()
  /// still finish normally (a running forward pass cannot be recalled);
  /// consumers exit once those are done.  The caller owns completing the
  /// returned orphans (the engine fails them with AbortedError so a
  /// failover layer can resubmit).  Idempotent: a second abort (or an
  /// abort after close) returns whatever is still queued, which after a
  /// completed close() drain is nothing.
  std::vector<std::pair<std::size_t, Request>> abort();

  std::size_t num_models() const;

  /// The fully resolved policy a model was registered with.
  QosPolicy policy(std::size_t model) const;

  /// Submit with backpressure: waits up to `wait` for space in the
  /// model's full queue.  wait <= 0 tries once; Admission::kBlock waits
  /// for as long as it takes, on the monitor itself; a finite wait is
  /// timed by the injected clock.  False when the queue is still full
  /// after the wait, or the batcher or model is closed (the request's
  /// callback is NOT invoked -- the caller owns rejection handling).
  /// When shed_capacity > 0, `shed` (required then) receives any
  /// requests the pressure policy dropped to admit this one -- possibly
  /// including the incoming request itself, in which case the call still
  /// returns true (admitted, then immediately shed): the caller
  /// completes everything in the list with DeadlineExceededError.
  bool submit(std::size_t model, Request&& r, std::chrono::microseconds wait,
              ShedList* shed = nullptr);

  /// Claim the next coalesced batch (see file comment for the policy).
  /// Blocks until work arrives; returns false only when closed *and*
  /// every queue has drained -- the consumer's signal to exit.
  bool next(Batch& out);

  /// Stop accepting requests; queued ones keep being claimable until
  /// drained (graceful-shutdown semantics).
  void close();

  bool closed() const;

  /// Requests currently pending for one model.
  std::size_t pending(std::size_t model) const;

  ClockSource& clock() const noexcept { return *clock_; }

 private:
  using Queue = BoundedMpmcQueue<Request>;

  struct ModelSlot {
    // unique_ptr members so the slots vector can grow while workers
    // hold references into live slots.
    std::unique_ptr<Queue> queue;
    QosPolicy policy;           // fully resolved at add_model
    std::int64_t deficit = 0;   // banked rows (WDRR credit)
    bool retired = false;       // admission closed for this model only
    std::size_t inflight = 0;   // batches claimed but not batch_complete'd
  };

  struct ClassState {
    std::vector<std::size_t> members;  // model ids, add_model order
    std::size_t cursor = 0;            // round-robin position
    std::uint64_t skipped = 0;         // consecutive passed-over claims
  };

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// QoS claim decision; kNone when every queue is empty.  Updates the
  /// starvation counters and, within the chosen class, the WDRR state.
  std::size_t pick_model_locked();
  std::size_t pick_in_class_locked(ClassState& cls);
  bool push_locked(std::size_t model, Request&& r, ShedList* shed);
  /// Enforce shed_capacity before admitting a request for `model`:
  /// pops pressure victims into `shed`.  Returns true when the incoming
  /// request itself must be shed (no strictly lower class backlogged).
  bool shed_for_pressure_locked(std::size_t model, ShedList* shed);

  mutable Monitor monitor_;
  BatcherOptions options_;
  ClockSource* clock_;
  std::vector<std::unique_ptr<ModelSlot>> slots_;
  std::array<ClassState, kNumPriorities> classes_{};
  std::size_t queued_total_ = 0;  // requests across all queues
  bool closed_ = false;
};

/// Turns a claimed Batch into the contiguous input panel the fused
/// forward pass expects.  Owns a growth-only staging buffer, so steady-
/// state assembly allocates nothing once the high-water batch shape has
/// been seen; a single-request batch is passed through zero-copy.
class BatchAssembly {
 public:
  /// Contiguous [batch.rows x input_width] panel for `batch`.  The
  /// returned pointer is either the lone request's own buffer or the
  /// internal staging panel; it stays valid until the next assemble().
  const float* assemble(const MicroBatcher::Batch& batch, index_t input_width);

  std::size_t staging_capacity() const noexcept { return staging_.size(); }

 private:
  std::vector<float> staging_;
};

}  // namespace radix::serve
