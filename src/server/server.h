// WatchmanServer: the watchmand network front-end over a Watchman
// facade.
//
// Architecture (event loop + worker pool): one IO thread owns the
// listen socket and every connection socket. It accepts, reads into
// per-connection buffers and extracts complete frames. PING/GET/STATS,
// and EXECUTE when the facade runs MissFillExecutor(), are answered on
// the IO thread itself (inline fast path below); every other frame is
// pushed onto a ready-queue that a fixed pool of worker threads
// consumes. Workers decode, dispatch into the (thread-safe) Watchman
// facade, and append the encoded response to the connection's output
// buffer -- attempting a direct non-blocking send, with the IO thread
// resuming partial writes. Idle connections therefore cost zero
// threads, many connections multiplex over the fixed pool, and
// responses to one connection may complete out of order (the v3
// request id lets clients re-correlate).
//
// Event loop: the IO thread runs one level-triggered epoll loop over
// the listen sockets, a wake eventfd and every connection. Workers
// never touch epoll: they append to a connection's output buffer, try a
// direct non-blocking send, and flag the connection dirty when the IO
// thread must resume a partial write or run the close path.
//
// Inline fast path: when a parsed frame is PING/GET/STATS, or EXECUTE
// when the facade runs MissFillExecutor(), the connection has no frames
// in flight (response ordering) and the ready-queue is empty (queued
// work is never delayed), the IO thread dispatches it inline and
// appends the response to the out-buffer directly -- a blocking
// client's RTT skips the worker-queue hop entirely. A per-tick burst
// budget (Options::max_inline_burst) bounds how long the loop can stay
// in inline mode so a PING flood cannot starve event processing. What
// still takes the worker path: INVALIDATE, INVALIDATE_RELATION and
// COMPACT, every frame that fails a guard, and EXECUTE against any
// other executor (a warehouse query must never block the loop).
//
// Allocation discipline: frame bodies and connection in/out buffers
// are recycled through a FramePool, and the ready-queue is a ring
// (FrameQueue), so the steady-state request path performs no heap
// allocation (asserted by tests the same way allocation_test does for
// the cache).
//
// Flow control and lifetime:
//  * A connection whose decoded-frame backlog exceeds a cap stops being
//    read (reads disarmed) until workers catch up -- pipelining peers
//    cannot balloon the ready-queue.
//  * On a framing or decode error the server answers with the real
//    status -- echoing the request's opcode and id whenever the
//    prologue decoded -- then drains the peer to EOF before closing, so
//    the error response is never destroyed by a TCP reset.
//  * Options::io_timeout_ms bounds how long a connection may sit with
//    pending work (half-read frame, unflushed output, drain-to-EOF)
//    without progress; fully idle connections are never reaped.
//
// Maintenance: with Options::compact_idle_ms set, the IO thread runs
// Watchman::CompactMetadata() once per idle period (no ready work, no
// inflight frames, no traffic for that long); the COMPACT wire op
// forces the same pass remotely, and STATS reports the compaction count
// and the age of the last pass.
//
// The request handlers call straight into the facade, so hits on
// different cache shards proceed in parallel across workers and
// concurrent identical misses collapse into the facade's single-flight.
// Per-op request/error counters and latency histograms live in the
// lock-free obs registry (relaxed per-thread atomics, merged at read
// time) and surface through the STATS op, StatsSnapshot() and the
// Prometheus /metrics endpoint.
//
// Admin endpoint: with Options::admin_port >= 0 the IO thread also
// listens on a second socket speaking minimal HTTP/1.0. GET /metrics
// renders the registry in Prometheus text format; GET /healthz answers
// "ok". Requests are parsed and answered inline on the IO thread (the
// render is a few tens of microseconds) and every response closes the
// connection through the normal drain machinery.
//
// Miss-fill execution: a daemon has no warehouse of its own, so the
// EXECUTE op may carry the result the *client* computed for a miss.
// Construct the facade with MissFillExecutor() and the server routes
// that client-supplied fill through the facade's normal executor path
// (admission, single-flight, coherence epochs included). Such a fill
// is a payload copy plus admission, so the server recognizes this
// executor at construction (fill mode) and answers EXECUTE on the IO
// thread like PING/GET/STATS. An embedder that does own a warehouse
// can instead construct the facade with a real executor (executor
// mode); fills are then ignored by that executor, EXECUTE without a
// fill executes server-side, and EXECUTE always takes the worker path.
// Any executor other than MissFillExecutor() itself -- a wrapper around
// it included -- counts as executor mode.

#ifndef WATCHMAN_SERVER_SERVER_H_
#define WATCHMAN_SERVER_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "server/admission.h"
#include "server/frame_pool.h"
#include "server/protocol.h"
#include "util/mutex.h"
#include "util/status.h"
#include "watchman/watchman.h"

namespace watchman {

/// Capability token for "owned by the server's IO thread" state: the
/// admission layer, connection registries and per-connection parse
/// buffers are GUARDED_BY(io_thread_role), so a worker-side touch is a
/// compile error under -Werror=thread-safety. The IO loop holds a
/// ThreadRoleGrant for its lifetime; Start() (before any thread is
/// spawned) and Stop() (after every thread is joined) take justified
/// transient grants. One token serves every WatchmanServer instance:
/// the analysis is per-function, and a thread only ever runs one
/// server's loop.
inline ThreadRole io_thread_role;

/// Event-loop TCP server exposing a Watchman facade.
class WatchmanServer {
 public:
  /// The event loop's name as reported by the STATS `backend` field,
  /// the watchman_server_info{backend} label and watchmand's startup
  /// line.
  static constexpr const char* kBackendName = "epoll";

  struct Options {
    /// Address to bind (default loopback only).
    std::string bind_address = "127.0.0.1";
    /// Port to bind; 0 picks an ephemeral port, read it back via
    /// port(). Tests and parallel CI runs should use 0.
    uint16_t port = 0;
    /// Worker threads draining the ready-queue of decoded frames.
    /// Connections are NOT pinned to workers: any worker serves any
    /// connection's next frame.
    size_t num_workers = 4;
    /// Per-frame body size limit; larger length prefixes answer with
    /// Corruption and close the connection.
    size_t max_frame_bytes = kDefaultMaxFrameBytes;
    /// Event-loop tick bounding how long Stop(), timeouts and deferred
    /// closes can lag behind.
    int poll_interval_ms = 50;
    /// Closes a connection that has pending work (half-read frame,
    /// unflushed output, drain-to-EOF) but makes no progress for this
    /// long. 0 disables the reaping of stuck-but-healthy connections;
    /// fully idle connections are never reaped either way. Connections
    /// in a terminal state (protocol violation, EOF pending) are
    /// always bounded -- by this value, or a built-in 5s default when
    /// disabled -- so a misbehaving peer cannot hold its fd forever.
    int io_timeout_ms = 0;
    /// When nonzero, SO_SNDBUF for accepted connections (tests use a
    /// tiny value to force partial-write resumption).
    int sndbuf_bytes = 0;
    /// Per-connection cap on frames enqueued but not yet answered;
    /// beyond it the connection's reads pause until workers catch up.
    size_t max_inflight_frames = 4096;
    /// Dispatch PING/GET/STATS, and EXECUTE when the facade runs
    /// MissFillExecutor(), inline on the IO thread when the connection
    /// has nothing in flight and the ready-queue is empty, skipping the
    /// worker hop.
    bool inline_dispatch = true;
    /// Inline dispatches (PING/GET/STATS, and fill-mode EXECUTE) allowed
    /// per event-loop tick; beyond it frames take the worker path until
    /// the next tick (starvation guard).
    uint32_t max_inline_burst = 128;
    /// When positive, run Watchman::CompactMetadata() after this many
    /// milliseconds with no ready work, no inflight frames and no
    /// traffic; at most once per idle period. 0 disables.
    int compact_idle_ms = 0;
    /// Admin HTTP listener port (GET /metrics + /healthz on the same
    /// event loop, same bind address): -1 disables, 0 binds an
    /// ephemeral port readable back via admin_port().
    int admin_port = -1;
    /// Record latency/stage histograms and facade distributions. The
    /// per-op request/error counters stay on either way (the wire STATS
    /// op needs them); disabling trades the histograms for a few
    /// nanoseconds per request (the --no-metrics bench baseline).
    bool metrics = true;
    /// When positive, a request whose worker-path total (queue wait +
    /// service + reply) reaches this many microseconds emits one
    /// structured slow-request log line (WARN; JSON when the process
    /// log format is JSON). 0 disables. Requires `metrics`.
    int64_t slow_request_us = 0;
    /// Admission budgets (per-peer quotas, connection caps, global
    /// inflight/memory budgets). All default to unlimited; over-budget
    /// requests are answered with kShedRetryLater BEFORE dispatch, so a
    /// shed request was never executed and is always safe to retry.
    AdmissionOptions admission;
    /// Concurrent admin HTTP connections allowed (0 = unlimited).
    /// Connections over the cap are refused at accept time -- the admin
    /// plane must stay responsive even when being hammered.
    size_t max_admin_connections = 8;
    /// Closes an admin connection whose HTTP headers have not fully
    /// arrived within this long of accept (slowloris guard). 0
    /// disables.
    int admin_header_timeout_ms = 5000;
  };

  /// Snapshot of one op's throughput/latency counters, derived from the
  /// per-op metric objects at call time.
  struct OpCounters {
    uint64_t requests = 0;
    uint64_t errors = 0;
    uint64_t latency_count = 0;
    double latency_mean_us = 0.0;
    double latency_min_us = 0.0;
    double latency_max_us = 0.0;
  };

  /// `cache` must outlive the server.
  WatchmanServer(Watchman* cache, Options options);
  ~WatchmanServer();

  WatchmanServer(const WatchmanServer&) = delete;
  WatchmanServer& operator=(const WatchmanServer&) = delete;

  /// Binds, listens and spawns the IO thread + workers. Fails (IOError)
  /// if the address cannot be bound; at most one successful Start() per
  /// server instance.
  Status Start();

  /// Graceful shutdown: stops accepting, shuts down live connections,
  /// joins all threads. Idempotent; also run by the destructor.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (resolves port 0 after Start()).
  uint16_t port() const { return bound_port_; }

  /// The bound admin HTTP port after Start() (0 when disabled).
  uint16_t admin_port() const { return admin_bound_port_; }

  /// The metrics registry backing /metrics (embedders may render it
  /// themselves; safe to call while serving).
  const obs::MetricsRegistry& metrics_registry() const { return registry_; }

  /// Snapshot of cache + transport counters (the STATS op payload).
  WireStats StatsSnapshot() const;

  /// One op's counters (tests / embedders).
  OpCounters op_counters(OpCode op) const;

  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

  /// Frames extracted from sockets but not yet claimed by a worker,
  /// right now (the ready-queue depth; wire-named connections_queued
  /// for v2 compatibility).
  uint64_t connections_queued() const {
    return ready_depth_.load(std::memory_order_relaxed);
  }

  /// High-water mark of the ready-queue since Start().
  uint64_t connections_queued_peak() const {
    return connections_queued_peak_.load(std::memory_order_relaxed);
  }

  /// Frames answered inline on the IO thread (fast path hits).
  uint64_t inline_dispatched() const {
    return inline_dispatched_.load(std::memory_order_relaxed);
  }

  /// Metadata compactions run (idle timer + COMPACT op).
  uint64_t compactions() const {
    return compactions_.load(std::memory_order_relaxed);
  }

  /// Requests/connections shed by the admission layer, by reason.
  uint64_t sheds(ShedReason reason) const {
    return shed_counters_[static_cast<size_t>(reason)].Value();
  }

  /// Total sheds across every reason.
  uint64_t sheds_total() const {
    uint64_t total = 0;
    for (const obs::Counter& c : shed_counters_) total += c.Value();
    return total;
  }

  /// Response bytes buffered across all connections right now (the
  /// quantity max_global_output_bytes budgets).
  uint64_t output_bytes_pending() const {
    return output_bytes_.load(std::memory_order_relaxed);
  }

  /// Admin connections refused at accept (max_admin_connections).
  uint64_t admin_rejected() const {
    return admin_rejected_.load(std::memory_order_relaxed);
  }

  /// Admin connections closed by the header-read deadline (slowloris).
  uint64_t admin_timeouts() const {
    return admin_timeouts_.load(std::memory_order_relaxed);
  }

  /// The frame-body / connection-buffer recycler (tests).
  const FramePool& frame_pool() const { return body_pool_; }

  /// An executor that serves the client-supplied miss-fill attached to
  /// the EXECUTE request being handled on this thread, and fails with
  /// NotFound when the request carried none. Pass to the Watchman
  /// constructor when the daemon itself has no warehouse; a server over
  /// such a facade answers EXECUTE inline on the IO thread.
  static Watchman::Executor MissFillExecutor();

 private:
  /// Per-connection state. The IO thread owns fd registration, inbuf
  /// and the event-arming flags; workers and the IO thread share the
  /// output buffer under out_mu; the close decision is gated on the
  /// inflight frame count (release/acquire ordered), so a socket is
  /// only closed when no worker can still touch it.
  struct Connection {
    /// Written only by the IO thread (adopt / close); read by workers
    /// inside FlushLocked. Not capability-guarded: its stability for a
    /// worker is the inflight-count protocol (the IO thread never
    /// closes while inflight > 0, release/acquire ordered), which the
    /// analysis cannot express.
    int fd = -1;
    /// Accepted on the admin HTTP listener: inbuf holds an HTTP request
    /// instead of wire frames and the reply closes the connection.
    bool is_admin GUARDED_BY(io_thread_role) = false;
    /// Hash of the peer's address (port excluded): the admission
    /// layer's quota key. 0 when getpeername failed.
    uint64_t peer_key GUARDED_BY(io_thread_role) = 0;
    /// This connection holds a slot in the admission controller's
    /// per-peer connection count (balanced at final close).
    bool peer_counted GUARDED_BY(io_thread_role) = false;
    /// Admin connections: NowMs() deadline for complete HTTP headers
    /// (slowloris guard); 0 = none / already satisfied.
    int64_t admin_deadline_ms GUARDED_BY(io_thread_role) = 0;
    std::string inbuf GUARDED_BY(io_thread_role);
    Mutex out_mu;
    /// Pending output bytes / flushed prefix.
    std::string outbuf GUARDED_BY(out_mu);
    size_t out_off GUARDED_BY(out_mu) = 0;
    /// A send failed; close without flushing.
    bool send_error GUARDED_BY(out_mu) = false;
    bool want_write GUARDED_BY(io_thread_role) = false;  // EPOLLOUT armed
    bool read_paused GUARDED_BY(io_thread_role) = false;  // reads disarmed
    bool output_shutdown GUARDED_BY(io_thread_role) = false;  // SHUT_WR sent
    /// Listed in finishing_.
    bool in_finishing GUARDED_BY(io_thread_role) = false;
    /// Read EOF/error seen (written by the IO thread; workers read it
    /// to decide whether the IO thread needs a wake-up).
    std::atomic<bool> input_closed{false};
    /// Protocol violation: stop parsing, answer, drain to EOF, close.
    std::atomic<bool> draining{false};
    /// True while an entry for this connection sits in the dirty list
    /// (suppresses duplicate wake-ups from concurrent workers).
    std::atomic<bool> dirty_pending{false};
    /// Frames handed to workers and not yet fully answered.
    std::atomic<uint32_t> inflight{0};
    /// Milliseconds-since-start of the last read/write progress,
    /// updated by both the IO thread and workers (io_timeout_ms).
    std::atomic<int64_t> last_progress_ms{0};
  };

  /// One decoded-frame work item (body copied out of the connection's
  /// read buffer -- into a pool-recycled string -- so the buffer can
  /// compact immediately).
  struct Work {
    std::shared_ptr<Connection> conn;
    std::string body;
    /// NowNs() when the frame entered the ready-queue (0 when metrics
    /// are off); feeds the queue-wait histogram.
    int64_t enqueue_ns = 0;
  };

  void IoLoop();
  void WorkerLoop();

  // IO-thread helpers. REQUIRES the IO role: a call from a worker path
  // is a compile error.
  /// Drains accept4 until EAGAIN on the wire or admin listener.
  void AcceptReady(bool admin) REQUIRES(io_thread_role);
  /// Registers one accepted socket (socket options, pooled buffers,
  /// read interest with epoll).
  void AdoptConnection(int conn_fd, bool is_admin)
      REQUIRES(io_thread_role);
  void ReadReady(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);
  void ParseFrames(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);
  /// Parses + answers the HTTP request buffered on an admin connection;
  /// every response transitions to draining/close.
  void HandleAdminData(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);
  /// True when `body` may run inline on the IO thread right now.
  bool CanInline(const std::shared_ptr<Connection>& conn,
                 std::string_view body) const REQUIRES(io_thread_role);
  /// Decode + dispatch + append-response on the IO thread (no flush;
  /// ParseFrames flushes once per batch).
  void InlineDispatch(const std::shared_ptr<Connection>& conn,
                      std::string_view body) REQUIRES(io_thread_role);
  /// Answers one parsed-but-not-admitted frame with kShedRetryLater
  /// (echoing the frame's op and id) and records the shed; the
  /// connection stays open.
  void ShedFrame(const std::shared_ptr<Connection>& conn,
                 std::string_view body, ShedReason reason,
                 uint32_t retry_after_ms) REQUIRES(io_thread_role);
  /// Records a shed in the per-reason counter + retry-hint histogram.
  void RecordShed(ShedReason reason, uint32_t retry_after_ms);
  /// Hash of the socket's peer address, port excluded (0 on failure).
  static uint64_t PeerKeyFor(int fd);
  /// Recomputes and applies the connection's read-side interest.
  void RearmInterest(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);
  void UpdateWriteInterest(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);
  /// Close / half-close state machine for one connection.
  void FinishConnection(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);
  /// Adds conn to finishing_ (deduplicated) for sweep re-examination.
  void EnqueueFinishing(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);
  void SweepConnections() REQUIRES(io_thread_role);
  /// Flushes/finishes connections workers flagged via MarkDirty.
  void ProcessDirtyConnections() REQUIRES(io_thread_role);
  void CloseConnection(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);
  /// Returns the connection's pooled buffers to body_pool_ (final
  /// close only).
  void ReleaseConnectionBuffers(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);
  /// Runs CompactMetadata() once per idle period (compact_idle_ms).
  void MaybeCompactIdle() REQUIRES(io_thread_role);
  /// Also the COMPACT op's handler, so callable from any worker.
  void RunCompaction();

  /// Appends `bytes` to conn's output and attempts a direct
  /// non-blocking send; returns true when everything is on the wire
  /// (callable from workers and the IO thread).
  bool QueueOutput(const std::shared_ptr<Connection>& conn,
                   std::string_view bytes) EXCLUDES(conn->out_mu);
  /// The send loop of QueueOutput.
  bool FlushLocked(Connection* conn) REQUIRES(conn->out_mu);
  /// Asks the IO thread to re-examine `conn` (arm write interest,
  /// close, ...).
  void MarkDirty(const std::shared_ptr<Connection>& conn);

  // Worker-side request handling.
  void ProcessFrame(Work& work, WireRequest* request, WireResponse* response,
                    std::string* encoded);
  void Dispatch(const WireRequest& request, WireResponse* response);
  void RecordOp(OpCode op, StatusCode code, int64_t latency_ns);

  /// Registers every metric family (cache, facade, server) with
  /// registry_; run once from the constructor.
  void BuildMetricsRegistry();

  int64_t NowMs() const;
  /// Nanoseconds since construction (latency/stage timestamps).
  int64_t NowNs() const;

  Watchman* cache_;
  Options options_;
  /// The facade runs MissFillExecutor() (fixed at construction): every
  /// EXECUTE is a payload copy plus admission and may run inline.
  const bool fill_mode_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::thread io_thread_;
  std::vector<std::thread> workers_;
  std::chrono::steady_clock::time_point start_time_;

  /// Live connections, keyed by fd.
  std::unordered_map<int, std::shared_ptr<Connection>> conns_
      GUARDED_BY(io_thread_role);
  /// Connections in a terminal state (EOF seen / draining / send
  /// error) whose close could not complete yet; re-examined each tick
  /// so the idle steady state never scans the whole map.
  std::vector<std::shared_ptr<Connection>> finishing_
      GUARDED_BY(io_thread_role);
  /// Connections whose reads are paused for backpressure.
  std::vector<std::shared_ptr<Connection>> paused_reads_
      GUARDED_BY(io_thread_role);
  /// Accepting paused after fd exhaustion; retried each tick instead
  /// of busy-spinning.
  bool accept_paused_ GUARDED_BY(io_thread_role) = false;

  /// Admission state: per-peer buckets + connection counts. Guarded by
  /// the IO role, not a mutex -- frames are admitted where they are
  /// parsed, so the layer stays lock-free by construction.
  AdmissionController admission_ GUARDED_BY(io_thread_role);
  /// NowMs() of the last idle-peer GC pass over admission_.
  int64_t last_admission_gc_ms_ GUARDED_BY(io_thread_role) = 0;

  // Admin HTTP listener state (IO thread only except the bound port;
  // the listener fd itself is set up in Start() / torn down in Stop()).
  int admin_listen_fd_ = -1;
  uint16_t admin_bound_port_ = 0;
  bool admin_accept_paused_ GUARDED_BY(io_thread_role) = false;
  /// Open admin connections (max_admin_connections).
  size_t admin_conns_active_ GUARDED_BY(io_thread_role) = 0;
  /// Admin connections still awaiting complete HTTP headers, scanned by
  /// the sweep against their deadline.
  std::vector<std::shared_ptr<Connection>> admin_pending_
      GUARDED_BY(io_thread_role);
  /// Scratch for rendering admin responses (reused across requests).
  std::string admin_body_ GUARDED_BY(io_thread_role);
  std::string admin_response_ GUARDED_BY(io_thread_role);
  /// The backend/policy info gauge registers in Start(), at most once
  /// per server instance.
  bool info_registered_ GUARDED_BY(io_thread_role) = false;

  /// Recycled frame bodies and connection buffers (internally
  /// synchronized: workers release, the IO thread acquires).
  FramePool body_pool_;

  /// Decoded frames awaiting a worker.
  mutable Mutex ready_mu_;
  CondVar ready_cv_;
  FrameQueue<Work> ready_ GUARDED_BY(ready_mu_);
  /// ready_.size() mirror readable without ready_mu_ (inline-dispatch
  /// gate, stats).
  std::atomic<uint64_t> ready_depth_{0};
  /// Frames handed to workers and not yet answered, across all
  /// connections (idle detection for compaction).
  std::atomic<uint64_t> inflight_frames_{0};

  /// Connections workers want the IO thread to re-examine.
  Mutex dirty_mu_;
  std::vector<std::shared_ptr<Connection>> dirty_ GUARDED_BY(dirty_mu_);
  /// IO-thread scratch the dirty list swaps into (capacity reuse).
  std::vector<std::shared_ptr<Connection>> dirty_scratch_
      GUARDED_BY(io_thread_role);

  // Inline fast-path state (IO thread only).
  uint32_t inline_budget_used_ GUARDED_BY(io_thread_role) = 0;
  WireRequest io_request_ GUARDED_BY(io_thread_role);
  WireResponse io_response_ GUARDED_BY(io_thread_role);

  /// Response bytes appended to connection out-buffers and not yet on
  /// the wire, across all connections (max_global_output_bytes).
  std::atomic<uint64_t> output_bytes_{0};

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_active_{0};
  std::atomic<uint64_t> admin_rejected_{0};
  std::atomic<uint64_t> admin_timeouts_{0};
  /// High-water mark of the ready-queue (frames extracted but not yet
  /// claimed by a worker): worker-pool saturation visibility.
  std::atomic<uint64_t> connections_queued_peak_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> frames_rejected_{0};
  std::atomic<uint64_t> inline_dispatched_{0};
  std::atomic<uint64_t> compactions_{0};
  /// NowMs() of the last completed compaction; -1 = never.
  std::atomic<int64_t> last_compaction_ms_{-1};
  /// NowMs() of the last ingested or answered frame (idle detection).
  std::atomic<int64_t> last_activity_ms_{0};

  /// Per-op metric objects: lock-free counters and a log-bucketed
  /// latency histogram. The hot path is a handful of relaxed atomic
  /// adds into per-thread slots -- no mutex, no allocation.
  struct OpMetrics {
    obs::Counter requests;
    obs::Counter errors;
    obs::LogHistogram latency_ns;
  };
  std::array<OpMetrics, kNumOpCodes> per_op_;
  /// Worker-path stage histograms: ready-queue wait (enqueue ->
  /// worker claim) and reply append/flush time (dispatch done ->
  /// response on the wire or queued).
  obs::LogHistogram queue_wait_ns_;
  obs::LogHistogram reply_ns_;
  /// Sheds by reason (index = ShedReason; kNone slot stays 0).
  std::array<obs::Counter, kNumShedReasons> shed_counters_;
  /// Retry-after hints attached to shed responses (milliseconds).
  obs::LogHistogram shed_retry_hint_ms_;

  /// Every metric family (cache, facade, server) for /metrics.
  obs::MetricsRegistry registry_;
};

}  // namespace watchman

#endif  // WATCHMAN_SERVER_SERVER_H_
