// The async network front-end: an epoll event loop serving the wire
// protocol (net/wire.hpp) on top of any serve::Backend.
//
// Threading model (sized for "many connections, few cores"):
//
//   * ONE event-loop thread owns the listener and every connection's
//     socket I/O: nonblocking reads accumulate into a per-connection
//     receive buffer until try_parse_frame yields complete frames;
//     nonblocking writes drain a per-connection output queue, arming
//     EPOLLOUT only while bytes are actually pending.  Partial reads,
//     partial writes and EINTR are the normal case here, not errors.
//   * A small SUBMIT POOL executes the decoded verbs.  An inference
//     submission's admission budget is CLAMPED to 250 ms (a client
//     asking Admission::kBlock gets 250 ms; a negative budget fails
//     fast), so a saturated backend backpressures the client with a
//     rejection instead of parking a pool thread forever.  Admin verbs
//     (stats, metrics, shard lifecycle) run on the same pool -- a drain
//     that takes seconds never stalls socket I/O.
//   * COMPLETIONS arrive on backend worker threads: the DoneFn encodes
//     the kResult frame, appends it to the connection's output queue
//     under the connection mutex, and wakes the event loop through an
//     eventfd.  A connection that disconnected mid-request flips to
//     closed under that same mutex first, so late completions see the
//     flag and drop the frame -- orphaned responses are dropped, never
//     written to a reused fd and never leaked (the capsule dies with
//     the shared_ptr).
//   * A HALF-CLOSED client (shutdown(SHUT_WR) after its last request)
//     still gets every response: an EOF stops the reading, and the
//     connection closes once every frame parsed from it has had its
//     response written, or once the peer resets.
//
// The server does NOT own the backend: radix-served composes
// (models -> Engine/ShardRouter -> Server) and tears down in reverse.
// Admin verbs beyond the Backend interface (per-class stats, shard
// drain/restart, metrics text) are injected as AdminHooks so the
// server stays decoupled from which backend it fronts.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "serve/backend.hpp"
#include "serve/qos.hpp"

namespace radix::serve {
class Engine;
class ShardRouter;
class MetricsRegistry;
enum class ShardHealth : std::uint8_t;  // serve/router.hpp
}  // namespace radix::serve

namespace radix::net {

/// Backend-specific admin capabilities, injected per server.  An unset
/// hook answers its verb with a kError frame ("unsupported") -- the
/// protocol degrades, it never crashes.
struct AdminHooks {
  /// kClassStatsReq: merged per-priority-class counters.
  std::function<serve::ServeStats(serve::Priority)> class_stats{};
  /// kMetricsReq: Prometheus text exposition of the backend's state.
  std::function<std::string()> metrics_text{};
  /// kShardCtlReq: apply `verb` to shard `index` (kHealth applies
  /// nothing), then return every shard's health.
  std::function<std::vector<serve::ShardHealth>(ShardVerb, std::size_t)>
      shard_ctl{};
  /// kListModelsReq: one row per model id ever assigned, retired ids
  /// included, in id order.
  std::function<std::vector<WireModelInfo>()> list_models{};
  /// kSaveModelReq: serialize model `id` as a RADIXART artifact
  /// (store/artifact.hpp) at `path` on the SERVER's filesystem; returns
  /// the artifact size in bytes.
  std::function<std::uint64_t(serve::ModelId, const std::string& path)>
      save_model{};
  /// kLoadModelReq: map + validate the artifact at `path`, register it
  /// under `name` (empty = the name stored in the artifact) and return
  /// the new model id.
  std::function<serve::ModelId(const std::string& path,
                               const std::string& name)>
      load_model{};
};

/// The full hook set for the composite backend: class_stats /
/// export_metrics / drain-restart-kill / registry rows off the router.
AdminHooks make_admin_hooks(serve::ShardRouter& router);
/// Single-engine hook set: everything but shard_ctl (one shard, no
/// lifecycle verbs -- kHealth still answers via the engine's state).
AdminHooks make_admin_hooks(serve::Engine& engine);

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back
  /// from Server::port() -- the smoke tests do).
  std::uint16_t port = 0;
  /// Threads executing decoded verbs (admission waits happen here).
  std::size_t submit_workers = 2;
  AdminHooks hooks{};
};

class Server {
 public:
  /// Binds and starts serving immediately (event loop + submit pool).
  /// `backend` must outlive the server.
  Server(serve::Backend& backend, ServerOptions options = {});
  ~Server();  // stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// True once stop() ran or a client sent kShutdownReq.
  bool stopped() const noexcept;

  /// Block until a kShutdownReq arrives (or stop() is called from
  /// another thread) -- the radix-served main loop.
  void wait();

  /// Stop accepting, close every connection, join the threads.  In-
  /// flight backend requests still complete (the backend owns them);
  /// their responses are dropped with the connections.  Idempotent.
  void stop();

  /// Connections accepted over the server's lifetime (observability +
  /// test assertions).
  std::uint64_t connections_accepted() const noexcept;
  /// Responses dropped because their connection was gone (disconnect
  /// mid-request); the orphan-handling counter the tests pin.
  std::uint64_t orphaned_responses() const noexcept;

  /// How the kSubmit frames the server parsed ended.  Each ends exactly
  /// one way once its verb has run: its kSubmitAck was queued (acked),
  /// a kError frame was queued because it could not be decoded or
  /// submitted (rejected), or that answer was dropped because the
  /// connection was gone (orphaned).  After stop(), parsed == acked +
  /// rejected + orphaned.  (A kSubmit's kResult frame is counted, when
  /// dropped, in orphaned_responses only.)
  struct SubmitOutcomes {
    std::uint64_t parsed = 0;
    std::uint64_t acked = 0;
    std::uint64_t rejected = 0;
    std::uint64_t orphaned = 0;
  };
  SubmitOutcomes submit_outcomes() const noexcept;

 private:
  struct Connection;
  struct Job;

  void request_stop();  // flag the stop, wake every waiter
  void event_loop();
  void pool_loop();
  void accept_new();
  /// Drain readable bytes + parse frames into jobs; false = close conn.
  bool handle_readable(const std::shared_ptr<Connection>& conn);
  bool handle_writable(const std::shared_ptr<Connection>& conn);
  /// Set the connection's epoll interest: input until its EOF, output
  /// while bytes are pending.  Event loop only.
  void watch(Connection& conn);
  void close_connection(const std::shared_ptr<Connection>& conn);

  /// Execute one decoded frame (submit pool).
  void execute(const std::shared_ptr<Connection>& conn, const Frame& frame);
  void execute_submit(const std::shared_ptr<Connection>& conn,
                      const Frame& frame);

  /// Encode a frame and WakeState::deliver it; false when dropped.
  bool enqueue_response(const std::shared_ptr<Connection>& conn, MsgType type,
                        std::uint64_t correlation,
                        std::span<const std::uint8_t> body);
  bool enqueue_error(const std::shared_ptr<Connection>& conn,
                     std::uint64_t correlation, const WireError& error);
  void wake();

  // Shared with completion callbacks: a backend worker delivering a
  // result after the server object is gone (backend shut down late)
  // must still have somewhere safe to count the orphan and a guarded
  // eventfd slot that stop() has already invalidated.
  struct WakeState {
    std::mutex m;
    int fd = -1;  // -1 once the server is stopping; never written after
    std::atomic<std::uint64_t> orphaned{0};
    void wake();
    /// Append `frame` to `conn`'s output queue and wake the loop; a
    /// closed connection drops and counts it instead -- a frame is never
    /// written to a dead (or recycled) fd.  False when dropped.
    bool deliver(Connection& conn, std::span<const std::uint8_t> frame);
    void invalidate();
  };

  serve::Backend& backend_;
  ServerOptions options_;
  std::uint16_t port_ = 0;

  Fd listener_;
  Fd epoll_;
  Fd wakeup_;  // eventfd: completions / stop() kick the event loop
  std::shared_ptr<WakeState> wake_state_ = std::make_shared<WakeState>();

  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> submits_parsed_{0};
  std::atomic<std::uint64_t> submits_acked_{0};
  std::atomic<std::uint64_t> submits_rejected_{0};
  std::atomic<std::uint64_t> submits_orphaned_{0};

  std::mutex stop_mutex_;     // serializes stop() callers over the joins
  mutable std::mutex mutex_;  // connections map + job queue + stop cv
  std::condition_variable stop_cv_;
  std::condition_variable job_cv_;
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;
  std::deque<Job> jobs_;

  std::thread loop_thread_;
  std::vector<std::thread> pool_;
};

}  // namespace radix::net
