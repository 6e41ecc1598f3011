// Client libraries for watchmand.
//
// MultiplexedClient is the one connection engine. It owns one TCP
// connection and shares it between any number of application threads
// using the wire protocol's v3 request ids: StartX() stamps a fresh id
// and buffers the encoded frame (no socket write, no waiting),
// Flush()/Await() push every buffered frame to the wire in one send,
// and responses complete by id, in any order, so the pipe stays full.
// There is no reader thread: a caller blocked in Await() reads the
// socket itself. At most one waiter holds the reader role at a time;
// it routes every complete frame to its ticket and, once its own
// response lands, hands the role to one thread that is still waiting.
// Every socket wait (connect, send, recv) honors Options::io_timeout_ms
// via poll. A transport failure is sticky: every pending and future
// call fails with the same status.
//
// WatchmanClient is the blocking face of the same engine. Calls are
// serialized on an internal mutex, so a client may be shared between
// threads, but it pays one round trip at a time. A call that fails in
// transport (IOError) drops the connection and redials once, ONLY when
// it is safe: either no byte of the request reached the wire, or the
// op is a pure probe/offer (PING, GET, STATS, EXECUTE, COMPACT) whose
// replay the daemon absorbs idempotently. INVALIDATE /
// INVALIDATE_RELATION are NOT replay-safe -- a resend after a lost
// response would report dropped=0 for a set the daemon actually
// dropped -- so those surface IOError and let the caller decide.
//
// RemoteWatchman layers the Watchman query API on top of a
// WatchmanClient: Execute() first probes the daemon (GET), on a miss
// runs the local executor and offers the result back (EXECUTE +
// miss-fill), so application code swaps a local Watchman for a
// RemoteWatchman without restructuring -- same Execute()/Query()
// signatures, same executor contract, and the daemon-side cache counts
// one reference per call exactly like the local facade.

#ifndef WATCHMAN_SERVER_CLIENT_H_
#define WATCHMAN_SERVER_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "server/protocol.h"
#include "util/mutex.h"
#include "util/status.h"
#include "watchman/watchman.h"

namespace watchman {

/// Backoff in milliseconds slept before dial attempt `attempt`
/// (0-based; attempt 0 never sleeps). Doubles from `base_ms`, capped at
/// `max_ms`; immune to overflow however many attempts are configured.
/// A nonzero `jitter_seed` spreads the result uniformly over
/// [backoff/2, backoff] ("equal jitter") so a fleet restarting against
/// one daemon does not redial in lockstep; the function stays pure --
/// the same (args, seed) always yields the same value. Seed 0 disables
/// jitter.
int DialBackoffMs(int base_ms, int max_ms, int attempt,
                  uint64_t jitter_seed = 0);

/// Backoff in milliseconds before retrying a request the daemon shed
/// (kShedRetryLater). Starts from the daemon's retry-after hint
/// (`hint_ms`; <=0 falls back to 10ms), doubles per attempt (0-based),
/// caps at `max_ms`, and applies the same equal-jitter spread as
/// DialBackoffMs. Pure function; seed 0 disables jitter.
int ShedBackoffMs(int hint_ms, int max_ms, int attempt,
                  uint64_t jitter_seed = 0);

class MultiplexedClient;

/// Blocking request/response client for one watchmand connection: a
/// serialized, redialing wrapper over one MultiplexedClient.
class WatchmanClient {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    /// Dial attempts before Connect()/redial gives up.
    int connect_attempts = 5;
    /// Backoff before the second attempt; doubles per further attempt,
    /// capped at max_backoff_ms.
    int retry_backoff_ms = 20;
    int max_backoff_ms = 2000;
    /// Deadline enforced (via poll) on every socket wait -- connect,
    /// send, recv -- counted from the start of each dial attempt, flush
    /// and await. 0 disables the deadline (waits forever, pre-v3
    /// behavior).
    int io_timeout_ms = 30000;
    size_t max_frame_bytes = kDefaultMaxFrameBytes;
    /// Automatic retries of a request the daemon shed (kShedRetryLater),
    /// each after a capped, jittered backoff seeded by the daemon's
    /// retry-after hint. Always safe: a shed request was never
    /// executed. 0 surfaces the shed status to the caller instead.
    int shed_retries = 3;
    /// Cap on one shed-retry backoff sleep.
    int max_shed_backoff_ms = 1000;
    /// When non-empty, bind the local end of the connection to this
    /// address before connecting (port stays ephemeral). Tests use
    /// distinct loopback addresses to exercise per-peer quotas.
    std::string local_addr;
  };

  /// What a GET / EXECUTE round trip produced.
  struct FetchResult {
    std::string payload;
    /// True when the daemon served the payload from its cache.
    bool cache_hit = false;
  };

  /// Dials the daemon (with retry/backoff per `options`).
  static StatusOr<std::unique_ptr<WatchmanClient>> Connect(
      const Options& options);

  ~WatchmanClient();

  WatchmanClient(const WatchmanClient&) = delete;
  WatchmanClient& operator=(const WatchmanClient&) = delete;

  /// Liveness / framing check.
  Status Ping();

  /// Hit-only probe; NotFound on a miss.
  StatusOr<FetchResult> Get(const std::string& query_text);

  /// Full lookup executed daemon-side (requires the daemon to own an
  /// executor; against a miss-fill daemon a miss returns NotFound).
  StatusOr<FetchResult> Execute(const std::string& query_text);

  /// Full lookup carrying the result this client computed for a miss:
  /// on a daemon-side miss the fill is offered to the cache (admission,
  /// coherence and all) and echoed back; on a hit the cached set wins
  /// and the fill is discarded.
  StatusOr<FetchResult> Execute(const std::string& query_text,
                                const std::string& fill_payload,
                                uint64_t fill_cost,
                                std::vector<std::string> fill_relations = {});

  /// Returns the number of retrieved sets dropped (0 or 1).
  StatusOr<uint64_t> Invalidate(const std::string& query_text);

  /// Returns the number of dependent retrieved sets dropped.
  StatusOr<uint64_t> InvalidateRelation(const std::string& relation);

  StatusOr<WireStats> Stats();

  /// Forces a metadata compaction pass on the daemon (idempotent, so
  /// replay-safe).
  Status Compact();

 private:
  WatchmanClient(Options options, std::unique_ptr<MultiplexedClient> engine);

  /// One call, retried after each shed (Options::shed_retries) with
  /// the hinted, jittered backoff.
  StatusOr<WireResponse> Call(WireRequest request) EXCLUDES(mu_);
  /// One attempt over engine_, dialing first when there is none. An
  /// IOError drops the connection and redials once, when the replay is
  /// provably safe.
  StatusOr<WireResponse> CallLocked(WireRequest& request) REQUIRES(mu_);

  Options options_;
  Mutex mu_;
  /// Null after a transport failure, until the next call redials.
  std::unique_ptr<MultiplexedClient> engine_ GUARDED_BY(mu_);
  /// Jitter seed for shed-retry backoff (fixed per client instance).
  uint64_t shed_jitter_seed_ = 0;
};

/// One connection shared by many application threads: requests are
/// stamped with unique ids, buffered and pipelined by a writer path
/// that never waits for responses, and the thread waiting in Await()
/// reads the socket and routes each response to its waiter by id. Any
/// transport failure (send error, recv error, undecodable response,
/// deadline on a send) is sticky: every pending and future call fails
/// with the same status and the caller reconnects by constructing a
/// new client. A deadline while awaiting fails only that call; its
/// late response is dropped and the connection keeps serving.
class MultiplexedClient {
 public:
  using Options = WatchmanClient::Options;
  using FetchResult = WatchmanClient::FetchResult;
  /// Handle for an in-flight pipelined request.
  using Ticket = uint64_t;

  /// Dials the daemon (with retry/backoff per `options`). Starts no
  /// thread.
  static StatusOr<std::unique_ptr<MultiplexedClient>> Connect(
      const Options& options);

  ~MultiplexedClient();

  MultiplexedClient(const MultiplexedClient&) = delete;
  MultiplexedClient& operator=(const MultiplexedClient&) = delete;

  // Pipelined API: StartX() encodes and buffers the request (no socket
  // write, no waiting); Flush()/Await() push buffered frames to the
  // wire. Await(ticket) blocks until that request's response arrives
  // (or Options::io_timeout_ms elapses -> IOError) and may be called
  // from any thread, in any order relative to other tickets. Nothing
  // reads the socket while no thread awaits: responses wait in the
  // kernel until the next Await().
  StatusOr<Ticket> StartPing();
  StatusOr<Ticket> StartGet(const std::string& query_text);
  StatusOr<Ticket> StartExecute(const std::string& query_text);
  StatusOr<Ticket> StartExecute(const std::string& query_text,
                                const std::string& fill_payload,
                                uint64_t fill_cost,
                                std::vector<std::string> fill_relations = {});
  StatusOr<Ticket> StartInvalidate(const std::string& query_text);
  StatusOr<Ticket> StartInvalidateRelation(const std::string& relation);
  StatusOr<Ticket> StartStats();
  StatusOr<Ticket> StartCompact();

  /// Sends every buffered frame now (Await does this implicitly).
  Status Flush();

  /// Waits for `ticket`'s response. Each ticket may be awaited once.
  StatusOr<WireResponse> Await(Ticket ticket);

  // Blocking wrappers (Start + Await), concurrency-safe: N threads
  // calling these share the one connection and their requests pipeline
  // naturally.
  Status Ping();
  StatusOr<FetchResult> Get(const std::string& query_text);
  StatusOr<FetchResult> Execute(const std::string& query_text);
  StatusOr<FetchResult> Execute(const std::string& query_text,
                                const std::string& fill_payload,
                                uint64_t fill_cost,
                                std::vector<std::string> fill_relations = {});
  StatusOr<uint64_t> Invalidate(const std::string& query_text);
  StatusOr<uint64_t> InvalidateRelation(const std::string& relation);
  StatusOr<WireStats> Stats();
  Status Compact();

 private:
  friend class WatchmanClient;

  /// One in-flight request. Held by value in pending_, whose nodes
  /// never move, so a waiter keeps a reference across its waits. Every
  /// field is guarded by mu_.
  struct PendingCall {
    OpCode op = OpCode::kPing;
    /// A thread is waiting for this call in Await().
    bool awaited = false;
    bool done = false;
    /// Transport-level failure; `response` is valid when done and ok.
    Status error;
    WireResponse response;
    /// Wakes the awaiting thread: its response landed, or the reader
    /// role is handed to it.
    CondVar cv;
  };

  MultiplexedClient(Options options, int fd);

  StatusOr<Ticket> StartRequest(WireRequest& request) EXCLUDES(mu_);
  /// Sends every buffered frame; *wrote (when non-null) becomes true
  /// once any byte reached the wire.
  Status Send(bool* wrote) EXCLUDES(flush_mu_, mu_);
  /// Await() minus the flush.
  StatusOr<WireResponse> Wait(Ticket ticket) EXCLUDES(mu_);
  /// Holding the reader role, reads and routes responses until `call`
  /// is done. Returns non-OK only when `deadline` passes first; a
  /// transport failure breaks the client (which completes `call`).
  /// Releases mu_ around every socket wait.
  Status ReadUntil(const PendingCall& call,
                   std::chrono::steady_clock::time_point deadline)
      REQUIRES(mu_, read_mu_);
  /// One recv into inbuf_, then every complete frame is decoded and
  /// delivered. Non-OK when the transport failed or the stream is
  /// desynchronized.
  Status ReadFrames() REQUIRES(read_mu_) EXCLUDES(mu_);
  /// Completes the call `response` answers; a response whose waiter
  /// timed out and left is dropped.
  Status Deliver(WireResponse&& response) REQUIRES(mu_);
  /// Wakes one thread still waiting, to take the free reader role.
  void PassReaderRole() REQUIRES(mu_);
  /// Start + flush + wait for one request. *wrote (when non-null)
  /// reports whether any byte of it reached the wire; exact only while
  /// no other thread shares the client (WatchmanClient's case).
  StatusOr<WireResponse> CallOnce(WireRequest& request, bool* wrote);
  /// CallOnce with shed-retry backoff (the blocking wrappers).
  StatusOr<WireResponse> CallBlocking(WireRequest request);
  /// Marks the transport broken, fails every awaited call and forgets
  /// the unawaited ones (a later Await reports the sticky status).
  void Break(const Status& status) REQUIRES(mu_);

  const Options options_;
  /// Connected before the client escapes, closed by the destructor.
  /// One flusher writes to it and one reader reads from it at a time.
  const int fd_;

  /// Socket writes happen under flush_mu_ only, so StartX() keeps
  /// buffering (and never blocks) while another thread's flush is
  /// stalled on the socket, and batches hit the wire whole. Lock
  /// order: flush_mu_ before mu_, never both held across a syscall.
  Mutex flush_mu_ ACQUIRED_BEFORE(mu_);
  /// The batch being sent; swapped with outbuf_ so both buffers keep
  /// their capacity.
  std::string wire_ GUARDED_BY(flush_mu_);

  /// The reader role: held (via TryLock) by the one waiter that reads
  /// the socket.
  Mutex read_mu_;
  /// Bytes received but not yet consumed as a frame.
  std::string inbuf_ GUARDED_BY(read_mu_);

  /// Guards the write buffer, the waiter registry and the sticky
  /// transport failure broken_.
  Mutex mu_;
  std::string outbuf_ GUARDED_BY(mu_);
  std::unordered_map<uint64_t, PendingCall> pending_ GUARDED_BY(mu_);
  Status broken_ GUARDED_BY(mu_);
  uint64_t next_id_ GUARDED_BY(mu_) = 0;
  /// Jitter seed for shed-retry backoff (fixed per client instance).
  const uint64_t shed_jitter_seed_;
};

/// Drop-in remote counterpart of the Watchman facade's query API.
class RemoteWatchman {
 public:
  /// `executor` materializes misses locally (same contract as the
  /// Watchman constructor's executor).
  RemoteWatchman(std::unique_ptr<WatchmanClient> client,
                 Watchman::Executor executor);

  /// Dials and wraps in one step.
  static StatusOr<std::unique_ptr<RemoteWatchman>> Connect(
      const WatchmanClient::Options& options, Watchman::Executor executor);

  /// Mirrors Watchman::Execute(): probe the daemon, on a miss run the
  /// local executor and offer the result back. Executor errors
  /// propagate unchanged; failed executions are not cached.
  StatusOr<std::string> Execute(const std::string& query_text);

  /// Alias of Execute() (the paper-era name).
  StatusOr<std::string> Query(const std::string& query_text) {
    return Execute(query_text);
  }

  StatusOr<uint64_t> Invalidate(const std::string& query_text) {
    return client_->Invalidate(query_text);
  }
  StatusOr<uint64_t> InvalidateRelation(const std::string& relation) {
    return client_->InvalidateRelation(relation);
  }

  /// Daemon-side counters.
  StatusOr<WireStats> Stats() { return client_->Stats(); }

  WatchmanClient& client() { return *client_; }

 private:
  std::unique_ptr<WatchmanClient> client_;
  Watchman::Executor executor_;
};

}  // namespace watchman

#endif  // WATCHMAN_SERVER_CLIENT_H_
