#include "server/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string_view>
#include <thread>
#include <utility>

#include "util/errno_string.h"
#include "util/fault.h"

namespace watchman {
namespace {

using Clock = std::chrono::steady_clock;

/// SplitMix64: backoff jitter hashing (pure, no global state).
uint64_t JitterMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Equal jitter: spread `backoff` uniformly over [backoff/2, backoff],
/// deterministically from (seed, attempt). Seed 0 = no jitter.
int ApplyJitter(int backoff, int attempt, uint64_t jitter_seed) {
  if (jitter_seed == 0 || backoff <= 1) return backoff;
  const int half = backoff / 2;
  const uint64_t h =
      JitterMix(jitter_seed ^ (static_cast<uint64_t>(attempt) + 1) *
                                  0x9e3779b97f4a7c15ull);
  return half + static_cast<int>(
                    h % (static_cast<uint64_t>(backoff - half) + 1));
}

/// A per-process-instance jitter seed (never 0).
uint64_t FreshJitterSeed() {
  static std::atomic<uint64_t> counter{0};
  const uint64_t tick = static_cast<uint64_t>(
      Clock::now().time_since_epoch().count());
  return JitterMix(tick ^ counter.fetch_add(1, std::memory_order_relaxed))
         | 1;
}

/// A time_point far enough out to mean "no deadline".
constexpr Clock::duration kForever = std::chrono::hours(24 * 365);

Clock::time_point DeadlineIn(int timeout_ms) {
  return Clock::now() + (timeout_ms > 0 ? std::chrono::milliseconds(timeout_ms)
                                        : kForever);
}

/// Waits for `events` on `fd` until `deadline`. OK when ready, IOError
/// on timeout or poll failure; POLLERR/POLLHUP count as ready (the
/// following recv/send/getsockopt reports the real error).
Status PollFd(int fd, short events, Clock::time_point deadline,
              const char* what) {
  while (true) {
    const auto remaining = deadline - Clock::now();
    if (remaining <= Clock::duration::zero()) {
      return Status::IOError(std::string("deadline exceeded waiting to ") +
                             what);
    }
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
            .count();
    pollfd pfd{fd, events, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(ms > 60000 ? 60000 : ms));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("poll: ") + ErrnoString(errno));
    }
    if (ready > 0) return Status::OK();
  }
}

/// Sends all of `bytes` on the non-blocking `fd`, polling for
/// writability up to `deadline`. *sent reports how many bytes reached
/// the wire even on failure -- the redial logic must know whether the
/// daemon may have seen the request.
Status SendAllFd(int fd, std::string_view bytes, Clock::time_point deadline,
                 size_t* sent) {
  *sent = 0;
  while (*sent < bytes.size()) {
    const ssize_t n = FaultSend(fd, bytes.data() + *sent,
                                bytes.size() - *sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        WATCHMAN_RETURN_IF_ERROR(PollFd(fd, POLLOUT, deadline, "send"));
        continue;
      }
      return Status::IOError(std::string("send: ") + ErrnoString(errno));
    }
    *sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// One non-blocking connect attempt with a poll-enforced deadline.
/// Returns the connected fd (left non-blocking) or an error.
StatusOr<int> ConnectOnce(const sockaddr_in& addr,
                          const std::string& local_addr, int io_timeout_ms) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + ErrnoString(errno));
  }
  if (!local_addr.empty()) {
    sockaddr_in local{};
    local.sin_family = AF_INET;
    local.sin_port = 0;  // ephemeral; only the address matters
    if (::inet_pton(AF_INET, local_addr.c_str(), &local.sin_addr) != 1) {
      ::close(fd);
      return Status::InvalidArgument("bad local address: " + local_addr);
    }
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&local),
               sizeof(local)) != 0) {
      const Status status = Status::IOError(
          "bind " + local_addr + ": " + ErrnoString(errno));
      ::close(fd);
      return status;
    }
  }
  const auto deadline = DeadlineIn(io_timeout_ms);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    const Status status =
        Status::IOError(std::string("connect: ") + ErrnoString(errno));
    ::close(fd);
    return status;
  }
  // EINPROGRESS (or instant success): wait for writability, then read
  // the final verdict off SO_ERROR.
  Status ready = PollFd(fd, POLLOUT, deadline, "connect");
  if (ready.ok()) {
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) {
      so_error = errno;
    }
    if (so_error != 0) {
      ready = Status::IOError(std::string("connect: ") +
                              ErrnoString(so_error));
    }
  }
  if (!ready.ok()) {
    ::close(fd);
    return ready;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Dials with retry and capped backoff per `options`.
StatusOr<int> DialFd(const WatchmanClient::Options& options) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host address: " + options.host);
  }
  const int attempts =
      options.connect_attempts < 1 ? 1 : options.connect_attempts;
  std::string last_error = "no attempt made";
  const uint64_t jitter_seed = FreshJitterSeed();
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const int backoff =
        DialBackoffMs(options.retry_backoff_ms, options.max_backoff_ms,
                      attempt, jitter_seed);
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
    StatusOr<int> fd =
        ConnectOnce(addr, options.local_addr, options.io_timeout_ms);
    if (fd.ok()) return fd;
    last_error = fd.status().message();
  }
  return Status::IOError("cannot reach " + options.host + ":" +
                         std::to_string(options.port) + " after " +
                         std::to_string(attempts) + " attempts (" +
                         last_error + ")");
}

/// True when resending the op after an ambiguous failure (the daemon
/// may or may not have processed the first copy) cannot corrupt caller
/// state: probes and offers are absorbed idempotently, invalidations
/// are not (a replay reports dropped=0 for a set that WAS dropped).
bool ReplaySafe(OpCode op) {
  switch (op) {
    case OpCode::kPing:
    case OpCode::kGet:
    case OpCode::kStats:
    case OpCode::kExecute:
    case OpCode::kCompact:
      return true;
    case OpCode::kInvalidate:
    case OpCode::kInvalidateRelation:
      return false;
  }
  return false;
}

/// Sleeps the hinted, jittered backoff before shed retry `attempt`.
void SleepBeforeShedRetry(const WatchmanClient::Options& options,
                          uint32_t hint_ms, int attempt,
                          uint64_t jitter_seed) {
  const int backoff =
      ShedBackoffMs(static_cast<int>(hint_ms), options.max_shed_backoff_ms,
                    attempt, jitter_seed);
  std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
}

// Each op's request, built in one place for StartX() and both
// classes' blocking calls.

WireRequest OpRequest(OpCode op) {
  WireRequest request;
  request.op = op;
  return request;
}

WireRequest QueryRequest(OpCode op, const std::string& query_text) {
  WireRequest request = OpRequest(op);
  request.query_text = query_text;
  return request;
}

WireRequest RelationRequest(const std::string& relation) {
  WireRequest request = OpRequest(OpCode::kInvalidateRelation);
  request.relation = relation;
  return request;
}

WireRequest FillRequest(const std::string& query_text,
                        const std::string& fill_payload, uint64_t fill_cost,
                        std::vector<std::string> fill_relations) {
  WireRequest request = QueryRequest(OpCode::kExecute, query_text);
  request.has_fill = true;
  request.fill_payload = fill_payload;
  request.fill_cost = fill_cost;
  request.fill_relations = std::move(fill_relations);
  return request;
}

// Response -> typed-result converters, shared by both classes'
// blocking calls. ToStatus is the call's outcome: the transport
// failure, else the daemon's status.

Status ToStatus(const StatusOr<WireResponse>& response) {
  if (!response.ok()) return response.status();
  return StatusFromWire(response->code, response->message);
}

StatusOr<WatchmanClient::FetchResult> ToFetchResult(
    StatusOr<WireResponse>&& response) {
  WATCHMAN_RETURN_IF_ERROR(ToStatus(response));
  return WatchmanClient::FetchResult{std::move(response->payload),
                                     response->cache_hit};
}

StatusOr<uint64_t> ToDropped(const StatusOr<WireResponse>& response) {
  WATCHMAN_RETURN_IF_ERROR(ToStatus(response));
  return response->dropped;
}

StatusOr<WireStats> ToStats(StatusOr<WireResponse>&& response) {
  WATCHMAN_RETURN_IF_ERROR(ToStatus(response));
  return std::move(response->stats);
}

}  // namespace

int DialBackoffMs(int base_ms, int max_ms, int attempt,
                  uint64_t jitter_seed) {
  if (attempt <= 0 || base_ms <= 0) return 0;
  if (max_ms < base_ms) max_ms = base_ms;
  long long backoff = base_ms;
  for (int i = 1; i < attempt; ++i) {
    backoff *= 2;
    if (backoff >= max_ms) {
      backoff = max_ms;
      break;
    }
  }
  const int capped = backoff >= max_ms ? max_ms : static_cast<int>(backoff);
  return ApplyJitter(capped, attempt, jitter_seed);
}

int ShedBackoffMs(int hint_ms, int max_ms, int attempt,
                  uint64_t jitter_seed) {
  if (max_ms < 1) max_ms = 1;
  long long backoff = hint_ms > 0 ? hint_ms : 10;
  for (int i = 0; i < attempt; ++i) {
    backoff *= 2;
    if (backoff >= max_ms) break;
  }
  const int capped = backoff >= max_ms ? max_ms : static_cast<int>(backoff);
  return ApplyJitter(capped, attempt, jitter_seed);
}

// ----------------------------------------------------- WatchmanClient

WatchmanClient::WatchmanClient(Options options,
                               std::unique_ptr<MultiplexedClient> engine)
    : options_(std::move(options)),
      engine_(std::move(engine)),
      shed_jitter_seed_(FreshJitterSeed()) {}

WatchmanClient::~WatchmanClient() = default;

StatusOr<std::unique_ptr<WatchmanClient>> WatchmanClient::Connect(
    const Options& options) {
  StatusOr<std::unique_ptr<MultiplexedClient>> engine =
      MultiplexedClient::Connect(options);
  if (!engine.ok()) return engine.status();
  return std::unique_ptr<WatchmanClient>(
      // alloc-ok: one client object per Connect() (setup, not per request)
      new WatchmanClient(options, std::move(*engine)));
}

StatusOr<WireResponse> WatchmanClient::Call(WireRequest request) {
  MutexLock lock(mu_);
  // Shed-retry loop: a kShedRetryLater answer means the daemon refused
  // the request BEFORE executing it, so retrying (with a fresh id)
  // after the hinted backoff is always safe -- even for INVALIDATE. A
  // shed connection (the daemon's id-0 answer to a connection over its
  // cap) arrives as a status and is retried on a fresh dial.
  for (int attempt = 0;; ++attempt) {
    StatusOr<WireResponse> response = CallLocked(request);
    const StatusCode code =
        response.ok() ? response->code : response.status().code();
    if (code != StatusCode::kShedRetryLater ||
        attempt >= options_.shed_retries) {
      return response;
    }
    const uint32_t hint_ms = response.ok() ? response->retry_after_ms : 0;
    SleepBeforeShedRetry(options_, hint_ms, attempt, shed_jitter_seed_);
  }
}

StatusOr<WireResponse> WatchmanClient::CallLocked(WireRequest& request) {
  // One redial: a pooled connection may have died since the last call.
  // Redial is allowed only when the failure provably preceded any byte
  // reaching the wire, or the op's replay is harmless (see ReplaySafe).
  for (int attempt = 0;; ++attempt) {
    if (engine_ == nullptr) {
      StatusOr<std::unique_ptr<MultiplexedClient>> engine =
          MultiplexedClient::Connect(options_);
      if (!engine.ok()) return engine.status();
      engine_ = std::move(*engine);
    }
    bool wrote = false;
    StatusOr<WireResponse> response = engine_->CallOnce(request, &wrote);
    if (response.ok()) return response;
    // Every failure here is transport-level (daemon errors arrive as
    // responses): the engine is broken for good, or a deadline left the
    // stream state unknown. Either way the next attempt redials.
    engine_.reset();
    if (response.status().code() != StatusCode::kIOError) return response;
    if (wrote && !ReplaySafe(request.op)) {
      return Status::IOError(
          std::string("connection failed after '") +
          OpCodeName(request.op) +
          "' may have reached the daemon; not retried because the op "
          "is not replay-safe (" +
          response.status().message() + ")");
    }
    if (attempt > 0) return response;
  }
}

Status WatchmanClient::Ping() {
  return ToStatus(Call(OpRequest(OpCode::kPing)));
}

StatusOr<WatchmanClient::FetchResult> WatchmanClient::Get(
    const std::string& query_text) {
  return ToFetchResult(Call(QueryRequest(OpCode::kGet, query_text)));
}

StatusOr<WatchmanClient::FetchResult> WatchmanClient::Execute(
    const std::string& query_text) {
  return ToFetchResult(Call(QueryRequest(OpCode::kExecute, query_text)));
}

StatusOr<WatchmanClient::FetchResult> WatchmanClient::Execute(
    const std::string& query_text, const std::string& fill_payload,
    uint64_t fill_cost, std::vector<std::string> fill_relations) {
  return ToFetchResult(Call(FillRequest(query_text, fill_payload, fill_cost,
                                        std::move(fill_relations))));
}

StatusOr<uint64_t> WatchmanClient::Invalidate(const std::string& query_text) {
  return ToDropped(Call(QueryRequest(OpCode::kInvalidate, query_text)));
}

StatusOr<uint64_t> WatchmanClient::InvalidateRelation(
    const std::string& relation) {
  return ToDropped(Call(RelationRequest(relation)));
}

StatusOr<WireStats> WatchmanClient::Stats() {
  return ToStats(Call(OpRequest(OpCode::kStats)));
}

Status WatchmanClient::Compact() {
  return ToStatus(Call(OpRequest(OpCode::kCompact)));
}

// --------------------------------------------------- MultiplexedClient

MultiplexedClient::MultiplexedClient(Options options, int fd)
    : options_(std::move(options)),
      fd_(fd),
      shed_jitter_seed_(FreshJitterSeed()) {}

StatusOr<std::unique_ptr<MultiplexedClient>> MultiplexedClient::Connect(
    const Options& options) {
  StatusOr<int> fd = DialFd(options);
  if (!fd.ok()) return fd.status();
  return std::unique_ptr<MultiplexedClient>(
      // alloc-ok: one client object per Connect() (setup, not per request)
      new MultiplexedClient(options, *fd));
}

MultiplexedClient::~MultiplexedClient() { ::close(fd_); }

void MultiplexedClient::Break(const Status& status) {
  if (broken_.ok()) {
    broken_ = status;
    // Wakes a reader blocked in poll; the connection is dead anyway.
    ::shutdown(fd_, SHUT_RDWR);
  }
  for (auto it = pending_.begin(); it != pending_.end();) {
    PendingCall& call = it->second;
    if (!call.awaited) {
      it = pending_.erase(it);
      continue;
    }
    if (!call.done) {
      call.error = status;
      call.done = true;
      call.cv.NotifyOne();
    }
    ++it;
  }
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartRequest(
    WireRequest& request) {
  MutexLock lock(mu_);
  if (!broken_.ok()) return broken_;
  request.request_id = ++next_id_;
  // One waiter record (a map node) per pipelined request --
  // client-side only; the daemon's request path stays allocation-free.
  pending_.try_emplace(request.request_id).first->second.op = request.op;
  AppendRequest(request, &outbuf_);
  return request.request_id;
}

Status MultiplexedClient::Flush() { return Send(nullptr); }

Status MultiplexedClient::Send(bool* wrote) {
  MutexLock io_lock(flush_mu_);
  {
    // Sticky-failure fast path: flushes queued behind the send that
    // broke the transport must not each burn another io_timeout_ms on
    // the dead socket.
    MutexLock lock(mu_);
    if (!broken_.ok()) return broken_;
    wire_.swap(outbuf_);
  }
  if (wire_.empty()) return Status::OK();
  size_t sent = 0;
  const Status status =
      SendAllFd(fd_, wire_, DeadlineIn(options_.io_timeout_ms), &sent);
  wire_.clear();
  if (wrote != nullptr && sent > 0) *wrote = true;
  if (!status.ok()) {
    MutexLock lock(mu_);
    Break(status);
  }
  return status;
}

StatusOr<WireResponse> MultiplexedClient::Await(Ticket ticket) {
  WATCHMAN_RETURN_IF_ERROR(Flush());
  return Wait(ticket);
}

StatusOr<WireResponse> MultiplexedClient::Wait(Ticket ticket) {
  const auto deadline = DeadlineIn(options_.io_timeout_ms);
  MutexLock lock(mu_);
  auto it = pending_.find(ticket);
  if (it == pending_.end() || it->second.awaited) {
    if (!broken_.ok()) return broken_;
    return Status::InvalidArgument("unknown or already-awaited ticket " +
                                   std::to_string(ticket));
  }
  PendingCall& call = it->second;
  call.awaited = true;
  Status timed_out;
  bool held_role = false;
  // Explicit loop instead of wait_until-with-predicate: the predicate
  // lambda would be analyzed as a separate function not holding mu_.
  while (!call.done && timed_out.ok()) {
    if (read_mu_.TryLock()) {
      timed_out = ReadUntil(call, deadline);
      read_mu_.Unlock();
      held_role = true;
    } else if (call.cv.WaitUntil(mu_, deadline) == std::cv_status::timeout &&
               !call.done) {
      timed_out = Status::IOError("deadline exceeded awaiting response " +
                                  std::to_string(ticket));
    }
  }
  const Status failure = call.done ? call.error : timed_out;
  StatusOr<WireResponse> result = std::move(call.response);
  if (!failure.ok()) result = failure;
  pending_.erase(ticket);
  // The role is free once this thread read (a handoff it was sent may
  // also have raced its deadline): wake a successor, in the same
  // critical section that saw the role released, so no waiter sleeps
  // through a free role.
  if (held_role || !timed_out.ok()) PassReaderRole();
  return result;
}

Status MultiplexedClient::ReadUntil(const PendingCall& call,
                                    Clock::time_point deadline) {
  while (!call.done) {
    mu_.Unlock();
    const Status ready = PollFd(fd_, POLLIN, deadline, "recv");
    const Status read = ready.ok() ? ReadFrames() : Status::OK();
    mu_.Lock();
    // A deadline fails only this call; the connection stays up.
    if (!ready.ok()) return ready;
    if (!read.ok()) Break(read);
  }
  return Status::OK();
}

Status MultiplexedClient::ReadFrames() {
  char chunk[64 * 1024];
  const ssize_t n = FaultRecv(fd_, chunk, sizeof(chunk), 0);
  if (n == 0) return Status::IOError("connection closed by the daemon");
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::OK();
    }
    return Status::IOError(std::string("recv: ") + ErrnoString(errno));
  }
  inbuf_.append(chunk, static_cast<size_t>(n));
  // Route every complete frame; the consumed prefix is erased once per
  // batch (a per-frame erase would memmove the whole buffer once per
  // response on pipelined bursts). Decoding runs outside mu_.
  size_t consumed = 0;
  Status status;
  while (status.ok()) {
    std::string_view body;
    size_t frame_size = 0;
    StatusOr<bool> extracted =
        ExtractFrame(std::string_view(inbuf_).substr(consumed),
                     options_.max_frame_bytes, &body, &frame_size);
    if (!extracted.ok()) {
      status = extracted.status();
      break;
    }
    if (!*extracted) break;
    consumed += frame_size;
    // An undecodable frame desynchronizes the stream beyond repair.
    StatusOr<WireResponse> response = DecodeResponse(body);
    if (!response.ok()) {
      status = response.status();
      break;
    }
    MutexLock lock(mu_);
    status = Deliver(std::move(*response));
  }
  inbuf_.erase(0, consumed);
  return status;
}

Status MultiplexedClient::Deliver(WireResponse&& response) {
  auto it = pending_.find(response.request_id);
  if (it == pending_.end()) {
    // A framing-level error the daemon could not attribute to one
    // request (id 0): the connection is going away, fail everyone with
    // the daemon's own message. Anything else answers a waiter that
    // timed out and left, and is dropped.
    if (response.code != StatusCode::kOk && response.request_id == 0) {
      return StatusFromWire(response.code, response.message);
    }
    return Status::OK();
  }
  PendingCall& call = it->second;
  // An OK answer under the wrong op means the stream is confused. An
  // error answer is delivered as-is, so the daemon's own status is not
  // masked behind a mismatch.
  if (response.op != call.op && response.code == StatusCode::kOk) {
    return Status::Internal("response op mismatch for request id " +
                            std::to_string(it->first));
  }
  call.response = std::move(response);
  call.done = true;
  call.cv.NotifyOne();
  return Status::OK();
}

void MultiplexedClient::PassReaderRole() {
  for (auto& [id, call] : pending_) {
    if (call.awaited && !call.done) {
      call.cv.NotifyOne();
      return;
    }
  }
}

StatusOr<WireResponse> MultiplexedClient::CallOnce(WireRequest& request,
                                                   bool* wrote) {
  StatusOr<Ticket> ticket = StartRequest(request);
  if (!ticket.ok()) return ticket.status();
  WATCHMAN_RETURN_IF_ERROR(Send(wrote));
  return Wait(*ticket);
}

// Start + Await with the same shed-retry semantics as the blocking
// client: each retry re-encodes under a fresh id after the hinted,
// jittered backoff. Callers driving StartX()/Await() directly see the
// shed response verbatim and schedule their own retries.
StatusOr<WireResponse> MultiplexedClient::CallBlocking(WireRequest request) {
  for (int attempt = 0;; ++attempt) {
    StatusOr<WireResponse> response = CallOnce(request, nullptr);
    if (!response.ok() || response->code != StatusCode::kShedRetryLater ||
        attempt >= options_.shed_retries) {
      return response;
    }
    SleepBeforeShedRetry(options_, response->retry_after_ms, attempt,
                         shed_jitter_seed_);
  }
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartPing() {
  WireRequest request = OpRequest(OpCode::kPing);
  return StartRequest(request);
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartGet(
    const std::string& query_text) {
  WireRequest request = QueryRequest(OpCode::kGet, query_text);
  return StartRequest(request);
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartExecute(
    const std::string& query_text) {
  WireRequest request = QueryRequest(OpCode::kExecute, query_text);
  return StartRequest(request);
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartExecute(
    const std::string& query_text, const std::string& fill_payload,
    uint64_t fill_cost, std::vector<std::string> fill_relations) {
  WireRequest request = FillRequest(query_text, fill_payload, fill_cost,
                                    std::move(fill_relations));
  return StartRequest(request);
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartInvalidate(
    const std::string& query_text) {
  WireRequest request = QueryRequest(OpCode::kInvalidate, query_text);
  return StartRequest(request);
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartInvalidateRelation(
    const std::string& relation) {
  WireRequest request = RelationRequest(relation);
  return StartRequest(request);
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartStats() {
  WireRequest request = OpRequest(OpCode::kStats);
  return StartRequest(request);
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartCompact() {
  WireRequest request = OpRequest(OpCode::kCompact);
  return StartRequest(request);
}

Status MultiplexedClient::Ping() {
  return ToStatus(CallBlocking(OpRequest(OpCode::kPing)));
}

StatusOr<MultiplexedClient::FetchResult> MultiplexedClient::Get(
    const std::string& query_text) {
  return ToFetchResult(CallBlocking(QueryRequest(OpCode::kGet, query_text)));
}

StatusOr<MultiplexedClient::FetchResult> MultiplexedClient::Execute(
    const std::string& query_text) {
  return ToFetchResult(
      CallBlocking(QueryRequest(OpCode::kExecute, query_text)));
}

StatusOr<MultiplexedClient::FetchResult> MultiplexedClient::Execute(
    const std::string& query_text, const std::string& fill_payload,
    uint64_t fill_cost, std::vector<std::string> fill_relations) {
  return ToFetchResult(CallBlocking(FillRequest(
      query_text, fill_payload, fill_cost, std::move(fill_relations))));
}

StatusOr<uint64_t> MultiplexedClient::Invalidate(
    const std::string& query_text) {
  return ToDropped(
      CallBlocking(QueryRequest(OpCode::kInvalidate, query_text)));
}

StatusOr<uint64_t> MultiplexedClient::InvalidateRelation(
    const std::string& relation) {
  return ToDropped(CallBlocking(RelationRequest(relation)));
}

StatusOr<WireStats> MultiplexedClient::Stats() {
  return ToStats(CallBlocking(OpRequest(OpCode::kStats)));
}

Status MultiplexedClient::Compact() {
  return ToStatus(CallBlocking(OpRequest(OpCode::kCompact)));
}

// ------------------------------------------------------ RemoteWatchman

RemoteWatchman::RemoteWatchman(std::unique_ptr<WatchmanClient> client,
                               Watchman::Executor executor)
    : client_(std::move(client)), executor_(std::move(executor)) {}

StatusOr<std::unique_ptr<RemoteWatchman>> RemoteWatchman::Connect(
    const WatchmanClient::Options& options, Watchman::Executor executor) {
  StatusOr<std::unique_ptr<WatchmanClient>> client =
      WatchmanClient::Connect(options);
  if (!client.ok()) return client.status();
  // alloc-ok: one wrapper per Connect() (setup, not per request)
  return std::make_unique<RemoteWatchman>(std::move(*client),
                                          std::move(executor));
}

StatusOr<std::string> RemoteWatchman::Execute(const std::string& query_text) {
  StatusOr<WatchmanClient::FetchResult> probe = client_->Get(query_text);
  if (probe.ok()) return std::move(probe->payload);
  if (probe.status().code() != StatusCode::kNotFound) return probe.status();

  // Miss: materialize locally, then offer the result to the daemon. The
  // daemon may answer with another client's concurrently filled set --
  // same contract as the facade's single-flight.
  StatusOr<Watchman::ExecutionResult> executed = executor_(query_text);
  if (!executed.ok()) return executed.status();
  StatusOr<WatchmanClient::FetchResult> filled =
      client_->Execute(query_text, executed->payload, executed->cost,
                       executed->relations);
  if (!filled.ok()) {
    // The offer failed (daemon restarted, connection dropped, ...), but
    // the execution succeeded: serve the fresh result anyway, exactly
    // like the local facade does when a cache offer cannot land.
    return std::move(executed->payload);
  }
  return std::move(filled->payload);
}

}  // namespace watchman
