#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/admin_http.h"
#include "util/errno_string.h"
#include "util/fault.h"
#include "util/logging.h"

namespace watchman {
namespace {

/// The miss-fill the EXECUTE handler staged for the facade executor
/// running on this thread -- the IO thread when the EXECUTE was
/// dispatched inline, a worker otherwise. Single-flight runs the
/// executor on the leader's thread, so the leader always sees its own
/// fill; deduplicated followers share the leader's result, exactly like
/// concurrent local callers.
struct FillContext {
  const WireRequest* request = nullptr;
  bool consumed = false;
};

thread_local FillContext* t_fill = nullptr;

/// MissFillExecutor's body. A named function, not a lambda, so the
/// server can recognize a facade built with MissFillExecutor() by the
/// executor's target (fill mode: EXECUTE never blocks, see CanInline).
StatusOr<Watchman::ExecutionResult> ServeMissFill(
    const std::string& query_text) {
  FillContext* fill = t_fill;
  if (fill == nullptr || fill->request == nullptr) {
    return Status::NotFound("cache miss and no miss-fill attached: " +
                            query_text);
  }
  fill->consumed = true;
  Watchman::ExecutionResult result;
  result.payload = fill->request->fill_payload;
  result.cost = fill->request->fill_cost;
  result.relations = fill->request->fill_relations;
  return result;
}

/// True when `executor` is exactly MissFillExecutor(). Anything else --
/// a wrapper around it included -- may block, so it counts as executor
/// mode.
bool IsMissFillExecutor(const Watchman::Executor& executor) {
  using FnPtr = decltype(&ServeMissFill);
  const FnPtr* target = executor.target<FnPtr>();
  return target != nullptr && *target == &ServeMissFill;
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Cap on a buffered admin HTTP request; anything larger answers 431
/// and closes (a /metrics GET is a few dozen bytes).
constexpr size_t kMaxAdminRequestBytes = 16 * 1024;

}  // namespace

WatchmanServer::WatchmanServer(Watchman* cache, Options options)
    : cache_(cache),
      options_(std::move(options)),
      fill_mode_(IsMissFillExecutor(cache->executor())),
      admission_(options_.admission) {
  BuildMetricsRegistry();
}

WatchmanServer::~WatchmanServer() { Stop(); }

Watchman::Executor WatchmanServer::MissFillExecutor() {
  return Watchman::Executor(&ServeMissFill);
}

int64_t WatchmanServer::NowMs() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start_time_)
      .count();
}

int64_t WatchmanServer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start_time_)
      .count();
}

Status WatchmanServer::Start() {
  // Role grant justification: the IO thread is spawned at the very end
  // of this function, and after the spawn Start() touches no
  // role-guarded state -- so the setup writes below (accept flags,
  // info gauge registration) cannot race the loop.
  ThreadRoleGrant io_role(io_thread_role);
  if (running_.load(std::memory_order_acquire) || listen_fd_ >= 0) {
    return Status::Internal("server already started");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + ErrnoString(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status = Status::IOError(
        "bind " + options_.bind_address + ":" +
        std::to_string(options_.port) + ": " + ErrnoString(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 512) != 0) {
    const Status status =
        Status::IOError(std::string("listen: ") + ErrnoString(errno));
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const Status status =
        Status::IOError(std::string("getsockname: ") + ErrnoString(errno));
    ::close(fd);
    return status;
  }
  if (!SetNonBlocking(fd)) {
    const Status status =
        Status::IOError(std::string("fcntl: ") + ErrnoString(errno));
    ::close(fd);
    return status;
  }

  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    const Status status =
        Status::IOError(std::string("eventfd: ") + ErrnoString(errno));
    ::close(fd);
    return status;
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    const Status status =
        Status::IOError(std::string("epoll: ") + ErrnoString(errno));
    ::close(wake_fd_);
    wake_fd_ = -1;
    ::close(fd);
    return status;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  const int add_listen = ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  ev.data.fd = wake_fd_;
  const int add_wake = ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  if (add_listen != 0 || add_wake != 0) {
    const Status status =
        Status::IOError(std::string("epoll_ctl: ") + ErrnoString(errno));
    ::close(epoll_fd_);
    ::close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
    ::close(fd);
    return status;
  }

  // Admin HTTP listener (same event loop, same bind address).
  if (options_.admin_port >= 0) {
    const auto fail = [&](const std::string& what) {
      const Status status = Status::IOError(what + ": " +
                                            ErrnoString(errno));
      if (admin_listen_fd_ >= 0) {
        ::close(admin_listen_fd_);
        admin_listen_fd_ = -1;
      }
      ::close(epoll_fd_);
      epoll_fd_ = -1;
      ::close(wake_fd_);
      wake_fd_ = -1;
      ::close(fd);
      return status;
    };
    const int afd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (afd < 0) return fail("admin socket");
    admin_listen_fd_ = afd;
    ::setsockopt(afd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in aaddr{};
    aaddr.sin_family = AF_INET;
    aaddr.sin_port = htons(static_cast<uint16_t>(options_.admin_port));
    aaddr.sin_addr = addr.sin_addr;  // validated above
    if (::bind(afd, reinterpret_cast<const sockaddr*>(&aaddr),
               sizeof(aaddr)) != 0) {
      return fail("admin bind " + options_.bind_address + ":" +
                  std::to_string(options_.admin_port));
    }
    if (::listen(afd, 64) != 0) return fail("admin listen");
    sockaddr_in abound{};
    socklen_t abound_len = sizeof(abound);
    if (::getsockname(afd, reinterpret_cast<sockaddr*>(&abound),
                      &abound_len) != 0) {
      return fail("admin getsockname");
    }
    if (!SetNonBlocking(afd)) return fail("admin fcntl");
    ev.data.fd = afd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, afd, &ev) != 0) {
      return fail("admin epoll_ctl");
    }
    admin_bound_port_ = ntohs(abound.sin_port);
  }

  bound_port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  start_time_ = std::chrono::steady_clock::now();
  accept_paused_ = false;
  admin_accept_paused_ = false;
  if (!info_registered_) {
    info_registered_ = true;
    registry_.AddGaugeFn(
        "watchman_server_info",
        "Constant 1; labels carry the serving backend and cache policy.",
        {{"backend", kBackendName},
         {"policy", cache_->policy_name()}},
        [] { return 1.0; });
  }
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);

  io_thread_ = std::thread([this] { IoLoop(); });
  const size_t workers = options_.num_workers == 0 ? 1 : options_.num_workers;
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  WATCHMAN_LOG(Info) << "watchmand listening on " << options_.bind_address
                     << ":" << bound_port_ << " (" << kBackendName
                     << " event loop, " << workers << " workers)";
  if (admin_listen_fd_ >= 0) {
    WATCHMAN_LOG(Info) << "admin endpoint on " << options_.bind_address << ":"
                       << admin_bound_port_ << " (GET /metrics, /healthz)";
  }
  return Status::OK();
}

void WatchmanServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    // Set under ready_mu_: a worker that just evaluated the wait
    // predicate (and is about to block) must not miss the notify.
    MutexLock lock(ready_mu_);
    stop_.store(true, std::memory_order_release);
  }
  ready_cv_.NotifyAll();
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
  if (io_thread_.joinable()) io_thread_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // Role grant justification: the IO thread and every worker are
  // joined above, so no other thread can hold the role (or touch any
  // guarded state) during teardown.
  ThreadRoleGrant io_role(io_thread_role);
  // All threads are gone: tear down every remaining socket.
  for (auto& [fd, conn] : conns_) {
    ::close(fd);
    conn->fd = -1;
  }
  conns_.clear();
  finishing_.clear();
  paused_reads_.clear();
  {
    MutexLock lock(ready_mu_);
    ready_.clear();
    ready_depth_.store(0, std::memory_order_relaxed);
  }
  {
    MutexLock lock(dirty_mu_);
    dirty_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (admin_listen_fd_ >= 0) {
    ::close(admin_listen_fd_);
    admin_listen_fd_ = -1;
    admin_bound_port_ = 0;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
}

// ------------------------------------------------------------ IO thread

void WatchmanServer::IoLoop() {
  // This thread IS the IO thread: it holds the role for the loop's
  // lifetime, which is what lets it call every REQUIRES(io_thread_role)
  // helper and touch the guarded connection state.
  ThreadRoleGrant io_role(io_thread_role);
  std::vector<epoll_event> events(128);
  while (!stop_.load(std::memory_order_acquire)) {
    inline_budget_used_ = 0;
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()),
                               options_.poll_interval_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == listen_fd_) {
        AcceptReady(/*admin=*/false);
        continue;
      }
      if (fd == admin_listen_fd_) {
        AcceptReady(/*admin=*/true);
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t junk = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_, &junk, sizeof(junk));
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      // Copy: close below erases the map entry.
      std::shared_ptr<Connection> conn = it->second;
      if ((ev & (EPOLLERR | EPOLLHUP)) != 0 && (ev & EPOLLIN) == 0) {
        // Hard error with nothing left to read.
        conn->input_closed.store(true, std::memory_order_release);
        RearmInterest(conn);
        {
          MutexLock lock(conn->out_mu);
          conn->send_error = true;
        }
      }
      if ((ev & EPOLLIN) != 0) ReadReady(conn);
      if ((ev & EPOLLOUT) != 0 && conn->fd >= 0) {
        MutexLock lock(conn->out_mu);
        FlushLocked(conn.get());
      }
      if (conn->fd >= 0) {
        UpdateWriteInterest(conn);
        FinishConnection(conn);
      }
    }
    ProcessDirtyConnections();
    SweepConnections();
  }
}

void WatchmanServer::AcceptReady(bool admin) {
  const int lfd = admin ? admin_listen_fd_ : listen_fd_;
  while (true) {
    const int conn_fd = FaultAccept4(lfd, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (conn_fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Fd/memory exhaustion: the pending connection stays in the
        // backlog and the level-triggered listen fd would re-fire
        // immediately, spinning the IO thread. Pause accepting; the
        // sweep retries next tick.
        (admin ? admin_accept_paused_ : accept_paused_) = true;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, lfd, nullptr);
      }
      return;  // EAGAIN or listen socket going away
    }
    AdoptConnection(conn_fd, admin);
  }
}

void WatchmanServer::AdoptConnection(int conn_fd, bool is_admin) {
  if (is_admin && options_.max_admin_connections > 0 &&
      admin_conns_active_ >= options_.max_admin_connections) {
    // The admin plane must stay scrapeable while being hammered: refuse
    // at accept instead of buffering another (possibly slowloris)
    // request.
    admin_rejected_.fetch_add(1, std::memory_order_relaxed);
    ::close(conn_fd);
    return;
  }
  const int one = 1;
  ::setsockopt(conn_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options_.sndbuf_bytes > 0) {
    ::setsockopt(conn_fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                 sizeof(options_.sndbuf_bytes));
  }
  auto conn = std::make_shared<Connection>();  // alloc-ok: per accepted connection, not per frame
  conn->fd = conn_fd;
  conn->is_admin = is_admin;
  uint32_t shed_hint = 0;
  ShedReason conn_shed = ShedReason::kNone;
  if (!is_admin && admission_.enabled()) {
    conn->peer_key = PeerKeyFor(conn_fd);
    conn_shed = admission_.AdmitConnection(conn->peer_key, &shed_hint);
    conn->peer_counted = conn_shed == ShedReason::kNone;
  }
  conn->inbuf = body_pool_.Acquire();
  {
    // Uncontended by construction (the connection is not shared yet);
    // taken so the guarded-outbuf proof holds here too.
    MutexLock lock(conn->out_mu);
    conn->outbuf = body_pool_.Acquire();
  }
  conn->last_progress_ms.store(NowMs(), std::memory_order_relaxed);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = conn_fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn_fd, &ev) != 0) {
    // ENOMEM / watch-limit exhaustion: a connection that can never be
    // polled would hang its peer and leak; refuse it instead.
    conn->fd = -1;
    ::close(conn_fd);
    return;
  }
  conns_.emplace(conn_fd, conn);
  connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  connections_active_.fetch_add(1, std::memory_order_relaxed);
  if (is_admin) {
    ++admin_conns_active_;
    if (options_.admin_header_timeout_ms > 0) {
      conn->admin_deadline_ms = NowMs() + options_.admin_header_timeout_ms;
      admin_pending_.push_back(conn);
    }
  }
  if (conn_shed != ShedReason::kNone) {
    // Peer over its connection cap: tell it so on the wire (request id
    // 0 = attributed to the connection, not a request), then close
    // through the normal drain machinery so the response survives.
    RecordShed(conn_shed, shed_hint);
    WireResponse err;
    err.code = StatusCode::kShedRetryLater;
    err.message = "per-peer connection cap reached";
    err.retry_after_ms = shed_hint;
    std::string encoded;
    AppendResponse(err, &encoded);
    conn->draining.store(true, std::memory_order_release);
    QueueOutput(conn, encoded);
    FinishConnection(conn);
  }
}

uint64_t WatchmanServer::PeerKeyFor(int fd) {
  sockaddr_storage ss{};
  socklen_t len = sizeof(ss);
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&ss), &len) != 0) {
    return 0;
  }
  // Key on the address only (never the port): every connection of a
  // host shares one quota, however many ephemeral ports it burns.
  const unsigned char* bytes = nullptr;
  size_t n = 0;
  if (ss.ss_family == AF_INET) {
    bytes = reinterpret_cast<const unsigned char*>(
        &reinterpret_cast<const sockaddr_in*>(&ss)->sin_addr);
    n = sizeof(in_addr);
  } else if (ss.ss_family == AF_INET6) {
    bytes = reinterpret_cast<const unsigned char*>(
        &reinterpret_cast<const sockaddr_in6*>(&ss)->sin6_addr);
    n = sizeof(in6_addr);
  } else {
    return 1;  // non-IP peers share one bucket
  }
  uint64_t hash = 1469598103934665603ull;  // FNV-1a
  for (size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash != 0 ? hash : 1;
}

void WatchmanServer::ReadReady(const std::shared_ptr<Connection>& conn) {
  char chunk[64 * 1024];
  // Per-event read budget: a firehose peer (or a draining connection
  // being discarded) must not pin the IO thread -- level-triggered
  // epoll re-delivers the remainder next round, interleaved with every
  // other connection, the dirty sweep and Stop().
  int budget = 8;
  while (conn->fd >= 0 && budget-- > 0) {
    const ssize_t n = FaultRecv(conn->fd, chunk, sizeof(chunk), 0);
    if (n == 0) {
      conn->input_closed.store(true, std::memory_order_release);
      RearmInterest(conn);  // EOF is permanently readable: disarm reads
      break;
    }
    if (n < 0) {
      if (errno == EINTR) {
        ++budget;
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      conn->input_closed.store(true, std::memory_order_release);
      RearmInterest(conn);
      MutexLock lock(conn->out_mu);
      conn->send_error = true;
      break;
    }
    if (conn->draining.load(std::memory_order_acquire)) {
      // Discard: flushing an error response, awaiting EOF. Deliberately
      // NOT progress -- the drain state is bounded by the sweep's drain
      // timeout however much the doomed peer keeps sending.
      continue;
    }
    conn->last_progress_ms.store(NowMs(), std::memory_order_relaxed);
    conn->inbuf.append(chunk, static_cast<size_t>(n));
    ParseFrames(conn);
    // Honor a pause immediately: keep already-received bytes buffered
    // but stop pulling more, so the ready-queue bound holds even
    // against data the kernel had already accepted.
    if (conn->read_paused) break;
    if (static_cast<size_t>(n) < sizeof(chunk)) break;
  }
}

bool WatchmanServer::CanInline(const std::shared_ptr<Connection>& conn,
                               std::string_view body) const {
  // Peek the claimed opcode (prologue byte 1); a frame too short to
  // carry one takes the worker path and errors there.
  if (body.size() < 2) return false;
  // A fill-mode EXECUTE is a payload copy plus admission, cheaper than
  // the worker hand-off; an executor-mode EXECUTE may run a warehouse
  // query and must never block the loop.
  const uint8_t raw_op = static_cast<uint8_t>(body[1]);
  if (raw_op != static_cast<uint8_t>(OpCode::kPing) &&
      raw_op != static_cast<uint8_t>(OpCode::kGet) &&
      raw_op != static_cast<uint8_t>(OpCode::kStats) &&
      !(fill_mode_ && raw_op == static_cast<uint8_t>(OpCode::kExecute))) {
    return false;
  }
  // Starvation guards: a bounded burst per tick, never ahead of this
  // connection's queued frames (response order), never while any
  // connection has queued work (a waiting frame is served first --
  // subsequent inline-eligible frames queue FIFO behind it).
  if (inline_budget_used_ >= options_.max_inline_burst) return false;
  if (conn->inflight.load(std::memory_order_acquire) != 0) return false;
  return ready_depth_.load(std::memory_order_acquire) == 0;
}

void WatchmanServer::InlineDispatch(const std::shared_ptr<Connection>& conn,
                                    std::string_view body) {
  const Status decoded = DecodeRequestInto(body, &io_request_);
  if (!decoded.ok()) {
    frames_rejected_.fetch_add(1, std::memory_order_relaxed);
    WireResponse err;
    err.code = decoded.code();
    err.message = decoded.message();
    PeekPrologue(body, &err.op, &err.request_id);
    conn->draining.store(true, std::memory_order_release);
    MutexLock lock(conn->out_mu);
    if (!conn->send_error) {
      const size_t before = conn->outbuf.size();
      AppendResponse(err, &conn->outbuf);
      output_bytes_.fetch_add(conn->outbuf.size() - before,
                              std::memory_order_relaxed);
    }
    return;
  }
  const int64_t begin_ns = NowNs();
  Dispatch(io_request_, &io_response_);
  const int64_t latency_ns = NowNs() - begin_ns;
  RecordOp(io_request_.op, io_response_.code, latency_ns);
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  if (options_.slow_request_us > 0 &&
      latency_ns / 1000 >= options_.slow_request_us) {
    WATCHMAN_LOG(Warning) << "slow_request op=" << OpCodeName(io_request_.op)
                          << " status=" << StatusCodeName(io_response_.code)
                          << " total_us=" << latency_ns / 1000
                          << " queue_us=0 service_us=" << latency_ns / 1000
                          << " reply_us=0 path=inline";
  }
  // Encode straight into the out-buffer: no worker can be appending
  // (inflight == 0 gated) so the lock is uncontended, and the response
  // never exists as a separate copy.
  MutexLock lock(conn->out_mu);
  if (!conn->send_error) {
    const size_t before = conn->outbuf.size();
    AppendResponse(io_response_, &conn->outbuf);
    output_bytes_.fetch_add(conn->outbuf.size() - before,
                            std::memory_order_relaxed);
  }
}

void WatchmanServer::RecordShed(ShedReason reason, uint32_t retry_after_ms) {
  shed_counters_[static_cast<size_t>(reason)].Inc();
  if (options_.metrics) shed_retry_hint_ms_.Record(retry_after_ms);
}

// IO thread only. Like InlineDispatch's error path, but the connection
// stays open: a shed is an answer, not a protocol violation.
void WatchmanServer::ShedFrame(const std::shared_ptr<Connection>& conn,
                               std::string_view body, ShedReason reason,
                               uint32_t retry_after_ms) {
  RecordShed(reason, retry_after_ms);
  WireResponse err;
  err.code = StatusCode::kShedRetryLater;
  err.message = std::string("shed: ") + ShedReasonName(reason);
  err.retry_after_ms = retry_after_ms;
  PeekPrologue(body, &err.op, &err.request_id);
  MutexLock lock(conn->out_mu);
  if (conn->send_error) return;
  const size_t before = conn->outbuf.size();
  AppendResponse(err, &conn->outbuf);
  output_bytes_.fetch_add(conn->outbuf.size() - before,
                          std::memory_order_relaxed);
}

void WatchmanServer::ParseFrames(const std::shared_ptr<Connection>& conn) {
  if (conn->is_admin) {
    HandleAdminData(conn);
    return;
  }
  size_t consumed = 0;
  size_t enqueued = 0;
  bool inlined = false;
  while (!conn->draining.load(std::memory_order_acquire)) {
    std::string_view body;
    size_t frame_size = 0;
    StatusOr<bool> extracted =
        ExtractFrame(std::string_view(conn->inbuf).substr(consumed),
                     options_.max_frame_bytes, &body, &frame_size);
    if (!extracted.ok()) {
      // Unrecoverable framing (oversized/garbage length prefix): answer
      // with the real status -- echoing (op, id) if the bytes after the
      // prefix happen to hold a readable prologue -- then drain to EOF.
      frames_rejected_.fetch_add(1, std::memory_order_relaxed);
      WireResponse err;
      err.code = extracted.status().code();
      err.message = extracted.status().message();
      const std::string_view rest =
          std::string_view(conn->inbuf).substr(consumed);
      if (rest.size() > 4) {
        PeekPrologue(rest.substr(4), &err.op, &err.request_id);
      }
      std::string encoded;
      AppendResponse(err, &encoded);
      conn->draining.store(true, std::memory_order_release);
      QueueOutput(conn, encoded);
      conn->inbuf.clear();
      consumed = 0;
      break;
    }
    if (!*extracted) break;
    if (admission_.enabled()) {
      uint32_t hint = 0;
      const ShedReason reason = admission_.AdmitRequest(
          conn->peer_key, inflight_frames_.load(std::memory_order_relaxed),
          output_bytes_.load(std::memory_order_relaxed), NowNs(), &hint);
      if (reason != ShedReason::kNone) {
        // Over budget: answer now (never queue), keep the connection.
        // Shedding precedes dispatch, so the request never executed and
        // a retry is always safe -- even for INVALIDATE.
        ShedFrame(conn, body, reason, hint);
        inlined = true;  // batch-flush the shed responses below
        consumed += frame_size;
        continue;
      }
    }
    if (options_.inline_dispatch && CanInline(conn, body)) {
      ++inline_budget_used_;
      inline_dispatched_.fetch_add(1, std::memory_order_relaxed);
      InlineDispatch(conn, body);
      inlined = true;
      consumed += frame_size;
      continue;
    }
    Work work;
    work.conn = conn;
    work.body = body_pool_.Acquire();
    work.body.assign(body.data(), body.size());
    work.enqueue_ns = options_.metrics ? NowNs() : 0;
    conn->inflight.fetch_add(1, std::memory_order_relaxed);
    inflight_frames_.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock lock(ready_mu_);
      ready_.push_back(std::move(work));
      const uint64_t depth = ready_.size();
      ready_depth_.store(depth, std::memory_order_relaxed);
      if (depth > connections_queued_peak_.load(std::memory_order_relaxed)) {
        connections_queued_peak_.store(depth, std::memory_order_relaxed);
      }
    }
    ++enqueued;
    consumed += frame_size;
  }
  if (consumed > 0) conn->inbuf.erase(0, consumed);
  if (enqueued == 1) {
    ready_cv_.NotifyOne();
  } else if (enqueued > 1) {
    ready_cv_.NotifyAll();
  }
  if (inlined) {
    // One flush per batch: every inline response of a pipelined burst
    // leaves in a single send.
    bool flushed;
    {
      MutexLock lock(conn->out_mu);
      flushed = FlushLocked(conn.get());
    }
    if (!flushed) UpdateWriteInterest(conn);
  }
  if (enqueued > 0 || inlined) {
    last_activity_ms_.store(NowMs(), std::memory_order_relaxed);
  }
  // Backpressure: a peer that pipelines faster than workers drain gets
  // its reads paused instead of ballooning the ready-queue.
  if (!conn->read_paused &&
      conn->inflight.load(std::memory_order_relaxed) >
          options_.max_inflight_frames) {
    conn->read_paused = true;
    paused_reads_.push_back(conn);
    RearmInterest(conn);
  }
}

// IO thread only. Admin connections speak one-request HTTP/1.0: parse
// the buffered request, render the response inline (the /metrics render
// is tens of microseconds), then close through the normal
// draining/half-close machinery -- the drain timeout bounds a peer that
// never reads its response.
void WatchmanServer::HandleAdminData(const std::shared_ptr<Connection>& conn) {
  if (conn->draining.load(std::memory_order_acquire)) {
    conn->inbuf.clear();  // response already queued; discard extra bytes
    return;
  }
  obs::HttpRequest request;
  bool malformed = false;
  const bool complete =
      obs::ParseHttpRequest(conn->inbuf, &request, &malformed);
  if (!complete && !malformed) {
    if (conn->inbuf.size() <= kMaxAdminRequestBytes) return;  // need more
    malformed = true;  // oversized header block
  }
  int status = 200;
  std::string_view content_type = "text/plain; charset=utf-8";
  admin_body_.clear();
  if (malformed) {
    status = conn->inbuf.size() > kMaxAdminRequestBytes ? 431 : 400;
    admin_body_ = "bad request\n";
  } else if (request.method != "GET") {
    status = 405;
    admin_body_ = "method not allowed\n";
  } else if (request.path == "/metrics") {
    registry_.RenderPrometheusText(&admin_body_);
    content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else if (request.path == "/healthz") {
    admin_body_ = "ok\n";
  } else {
    status = 404;
    admin_body_ = "not found\n";
  }
  conn->inbuf.clear();
  admin_response_.clear();
  obs::AppendHttpResponse(status, content_type, admin_body_,
                          &admin_response_);
  conn->draining.store(true, std::memory_order_release);
  // Deliberately not last_activity_ms_: a periodic scraper must not
  // postpone idle-time compaction forever.
  QueueOutput(conn, admin_response_);
}

/// Re-applies the connection's read-side interest from its current
/// state: reads are off while paused for backpressure or after EOF (a
/// socket at EOF is permanently readable and would spin a
/// level-triggered loop), epoll writes are on while output is pending.
void WatchmanServer::RearmInterest(const std::shared_ptr<Connection>& conn) {
  if (conn->fd < 0) return;
  const bool read_off =
      conn->read_paused || conn->input_closed.load(std::memory_order_acquire);
  epoll_event ev{};
  ev.events = (read_off ? 0u : EPOLLIN) | (conn->want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void WatchmanServer::UpdateWriteInterest(
    const std::shared_ptr<Connection>& conn) {
  if (conn->fd < 0) return;
  bool pending;
  {
    MutexLock lock(conn->out_mu);
    pending = !conn->send_error && conn->out_off < conn->outbuf.size();
  }
  if (pending == conn->want_write) return;
  conn->want_write = pending;
  RearmInterest(conn);
}

/// Bounds the drain-to-EOF / deferred-close states when io_timeout_ms
/// is disabled: a peer that provoked an error response but never
/// acknowledges with EOF must not hold its fd forever.
constexpr int64_t kDefaultDrainTimeoutMs = 5000;

void WatchmanServer::EnqueueFinishing(
    const std::shared_ptr<Connection>& conn) {
  if (conn->in_finishing || conn->fd < 0) return;
  conn->in_finishing = true;
  finishing_.push_back(conn);
}

// IO thread only.
void WatchmanServer::FinishConnection(
    const std::shared_ptr<Connection>& conn) {
  if (conn->fd < 0) return;
  bool flushed;
  bool send_error;
  {
    MutexLock lock(conn->out_mu);
    flushed = conn->out_off >= conn->outbuf.size();
    send_error = conn->send_error;
  }
  if (send_error) {
    // The peer is unreachable; flushing is moot. Close as soon as no
    // worker can still touch the socket.
    if (conn->inflight.load(std::memory_order_acquire) == 0) {
      CloseConnection(conn);
    } else {
      EnqueueFinishing(conn);
    }
    return;
  }
  const bool input_closed =
      conn->input_closed.load(std::memory_order_acquire);
  const bool no_more_requests =
      input_closed || conn->draining.load(std::memory_order_acquire);
  if (!no_more_requests) return;
  // Terminal state reached but the close cannot complete yet: keep the
  // connection on the finishing list so the sweep retries (and bounds
  // the state with the drain timeout).
  if (conn->inflight.load(std::memory_order_acquire) != 0) {
    EnqueueFinishing(conn);
    return;
  }
  if (!flushed) {
    EnqueueFinishing(conn);  // write readiness will finish the job
    return;
  }
  if (input_closed) {
    CloseConnection(conn);
    return;
  }
  // Protocol violation with the peer still sending: half-close our side
  // so the error response survives (no reset), then discard input until
  // the peer acknowledges with EOF (drain timeout bounded).
  if (!conn->output_shutdown) {
    conn->output_shutdown = true;
    ::shutdown(conn->fd, SHUT_WR);
  }
  EnqueueFinishing(conn);
}

void WatchmanServer::SweepConnections() {
  // Retry accepting after fd exhaustion (one tick duty cycle, not a
  // spin).
  for (const bool admin : {false, true}) {
    bool& paused = admin ? admin_accept_paused_ : accept_paused_;
    const int lfd = admin ? admin_listen_fd_ : listen_fd_;
    if (!paused || lfd < 0) continue;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = lfd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, lfd, &ev) == 0) {
      paused = false;
      AcceptReady(admin);
    }
  }
  // Resume paused reads once workers drained half the backlog.
  for (size_t i = 0; i < paused_reads_.size();) {
    const std::shared_ptr<Connection>& conn = paused_reads_[i];
    if (conn->fd < 0) {
      paused_reads_[i] = paused_reads_.back();
      paused_reads_.pop_back();
      continue;
    }
    if (conn->inflight.load(std::memory_order_relaxed) <=
        options_.max_inflight_frames / 2) {
      conn->read_paused = false;
      RearmInterest(conn);
      paused_reads_[i] = paused_reads_.back();
      paused_reads_.pop_back();
      continue;
    }
    ++i;
  }
  // Terminal connections whose close is pending: re-evaluate, and force
  // the close once the drain timeout passes without progress. Only
  // these are scanned -- an idle steady state costs the sweep nothing.
  if (!finishing_.empty()) {
    const int64_t now_ms = NowMs();
    const int64_t drain_timeout_ms = options_.io_timeout_ms > 0
                                         ? options_.io_timeout_ms
                                         : kDefaultDrainTimeoutMs;
    std::vector<std::shared_ptr<Connection>> retry;
    retry.swap(finishing_);
    for (const auto& conn : retry) {
      conn->in_finishing = false;
      if (conn->fd < 0) continue;
      FinishConnection(conn);  // closes or re-enqueues
      if (conn->fd < 0) continue;
      if (now_ms -
                  conn->last_progress_ms.load(std::memory_order_relaxed) >
              drain_timeout_ms &&
          conn->inflight.load(std::memory_order_acquire) == 0) {
        CloseConnection(conn);
      }
    }
  }
  // Opt-in reaping of NON-terminal connections stuck mid-frame or
  // mid-flush with no progress (a full scan, only when configured).
  if (options_.io_timeout_ms > 0) {
    const int64_t now_ms = NowMs();
    std::vector<std::shared_ptr<Connection>> to_close;
    for (auto& [fd, conn] : conns_) {
      bool output_pending;
      {
        MutexLock lock(conn->out_mu);
        output_pending = conn->out_off < conn->outbuf.size();
      }
      const bool work_pending = output_pending || !conn->inbuf.empty();
      if (work_pending &&
          now_ms - conn->last_progress_ms.load(std::memory_order_relaxed) >
              options_.io_timeout_ms &&
          conn->inflight.load(std::memory_order_acquire) == 0) {
        to_close.push_back(conn);
      }
    }
    for (const auto& conn : to_close) CloseConnection(conn);
  }
  // Slowloris guard: an admin connection that still has not delivered
  // complete HTTP headers by its deadline is dropped. Entries leave the
  // list as soon as a response is queued (draining) or the fd closed,
  // so the scan only ever covers truly pending admin connections.
  if (!admin_pending_.empty()) {
    const int64_t now_ms = NowMs();
    for (size_t i = 0; i < admin_pending_.size();) {
      const std::shared_ptr<Connection> conn = admin_pending_[i];
      if (conn->fd < 0 || conn->draining.load(std::memory_order_acquire)) {
        admin_pending_[i] = admin_pending_.back();
        admin_pending_.pop_back();
        continue;
      }
      if (now_ms > conn->admin_deadline_ms) {
        admin_timeouts_.fetch_add(1, std::memory_order_relaxed);
        CloseConnection(conn);
        admin_pending_[i] = admin_pending_.back();
        admin_pending_.pop_back();
        continue;
      }
      ++i;
    }
  }
  // Bound the admission controller's per-peer map under address churn:
  // peers with no connection and no request for 60s lose their bucket.
  if (admission_.enabled()) {
    const int64_t now_ms = NowMs();
    if (now_ms - last_admission_gc_ms_ >= 1000) {
      last_admission_gc_ms_ = now_ms;
      admission_.GcIdlePeers(NowNs(), int64_t{60} * 1000 * 1000 * 1000);
    }
  }
  MaybeCompactIdle();
}

void WatchmanServer::ProcessDirtyConnections() {
  // Connections workers flagged (leftover output, last in-flight frame
  // done, protocol violation).
  dirty_scratch_.clear();
  {
    MutexLock lock(dirty_mu_);
    dirty_scratch_.swap(dirty_);
  }
  for (const auto& conn : dirty_scratch_) {
    conn->dirty_pending.store(false, std::memory_order_release);
    if (conn->fd < 0) continue;
    {
      // Batched flush: whatever workers appended since the wake.
      MutexLock lock(conn->out_mu);
      FlushLocked(conn.get());
    }
    UpdateWriteInterest(conn);
    FinishConnection(conn);
  }
  dirty_scratch_.clear();
}

void WatchmanServer::CloseConnection(
    const std::shared_ptr<Connection>& conn) {
  if (conn->fd < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->fd);
  conn->fd = -1;
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
  ReleaseConnectionBuffers(conn);
}

void WatchmanServer::ReleaseConnectionBuffers(
    const std::shared_ptr<Connection>& conn) {
  // Single final-close hook: release the admission slot and the
  // never-flushed output bytes here so every close path balances the
  // books exactly once.
  if (conn->peer_counted) {
    conn->peer_counted = false;
    admission_.ConnectionClosed(conn->peer_key);
  }
  if (conn->is_admin && admin_conns_active_ > 0) --admin_conns_active_;
  body_pool_.Release(std::move(conn->inbuf));
  conn->inbuf = std::string();
  std::string out;
  {
    MutexLock lock(conn->out_mu);
    out.swap(conn->outbuf);
    if (out.size() > conn->out_off) {
      output_bytes_.fetch_sub(out.size() - conn->out_off,
                              std::memory_order_relaxed);
    }
    conn->out_off = 0;
  }
  body_pool_.Release(std::move(out));
}

void WatchmanServer::MaybeCompactIdle() {
  if (options_.compact_idle_ms <= 0) return;
  if (ready_depth_.load(std::memory_order_relaxed) != 0) return;
  if (inflight_frames_.load(std::memory_order_acquire) != 0) return;
  const int64_t now = NowMs();
  const int64_t last_activity =
      last_activity_ms_.load(std::memory_order_relaxed);
  if (now - last_activity < options_.compact_idle_ms) return;
  // At most one pass per idle period: traffic must arrive before the
  // next timer-driven compaction fires.
  if (last_compaction_ms_.load(std::memory_order_relaxed) >= last_activity) {
    return;
  }
  RunCompaction();
}

void WatchmanServer::RunCompaction() {
  cache_->CompactMetadata();
  compactions_.fetch_add(1, std::memory_order_relaxed);
  last_compaction_ms_.store(NowMs(), std::memory_order_relaxed);
}

// --------------------------------------------------------------- output

bool WatchmanServer::QueueOutput(const std::shared_ptr<Connection>& conn,
                                 std::string_view bytes) {
  MutexLock lock(conn->out_mu);
  if (conn->send_error) return true;  // dropping; close is imminent
  conn->outbuf.append(bytes);
  output_bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
  return FlushLocked(conn.get());
}

bool WatchmanServer::FlushLocked(Connection* conn) {
  if (conn->send_error) return true;
  while (conn->out_off < conn->outbuf.size()) {
    const ssize_t n =
        FaultSend(conn->fd, conn->outbuf.data() + conn->out_off,
                  conn->outbuf.size() - conn->out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
      conn->send_error = true;
      return false;
    }
    conn->out_off += static_cast<size_t>(n);
    output_bytes_.fetch_sub(static_cast<uint64_t>(n),
                            std::memory_order_relaxed);
    conn->last_progress_ms.store(NowMs(), std::memory_order_relaxed);
  }
  conn->outbuf.clear();
  conn->out_off = 0;
  return true;
}

void WatchmanServer::MarkDirty(const std::shared_ptr<Connection>& conn) {
  if (conn->dirty_pending.exchange(true, std::memory_order_acq_rel)) {
    return;  // already queued; one IO-thread pass covers both causes
  }
  {
    MutexLock lock(dirty_mu_);
    dirty_.push_back(conn);
  }
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

// -------------------------------------------------------------- workers

void WatchmanServer::WorkerLoop() {
  // Per-worker scratch: frames decode into the same objects, so string
  // capacity is reused and steady-state framing performs no allocation.
  WireRequest request;
  WireResponse response;
  std::string encoded;
  while (true) {
    Work work;
    {
      MutexLock lock(ready_mu_);
      // Explicit predicate loop: a wait-with-lambda would be analyzed
      // as a separate function not holding ready_mu_, hiding the
      // guarded ready_ access from the thread-safety proof.
      while (!stop_.load(std::memory_order_acquire) && ready_.empty()) {
        ready_cv_.Wait(ready_mu_);
      }
      if (stop_.load(std::memory_order_acquire)) return;
      work = std::move(ready_.front());
      ready_.pop_front();
      ready_depth_.store(ready_.size(), std::memory_order_relaxed);
    }
    ProcessFrame(work, &request, &response, &encoded);
  }
}

void WatchmanServer::ProcessFrame(Work& work, WireRequest* request,
                                  WireResponse* response,
                                  std::string* encoded) {
  const std::shared_ptr<Connection>& conn = work.conn;
  encoded->clear();
  // Stage timestamps (metrics on): enqueue -> dispatch -> done -> reply
  // feed the queue-wait / service / reply histograms and the
  // slow-request log.
  const int64_t t_dispatch = NowNs();
  if (work.enqueue_ns > 0 && t_dispatch >= work.enqueue_ns) {
    queue_wait_ns_.Record(static_cast<uint64_t>(t_dispatch - work.enqueue_ns));
  }
  int64_t t_done = t_dispatch;
  OpCode timed_op = OpCode::kPing;
  StatusCode timed_code = StatusCode::kOk;
  bool timed = false;
  const Status decoded = DecodeRequestInto(work.body, request);
  if (!decoded.ok()) {
    frames_rejected_.fetch_add(1, std::memory_order_relaxed);
    // Echo the request's opcode and id when the prologue decoded, so
    // the client sees the daemon's real status (Corruption,
    // NotSupported, ...) attributed to ITS request instead of an
    // op-mismatch Internal error against a default ping frame.
    WireResponse err;
    err.code = decoded.code();
    err.message = decoded.message();
    PeekPrologue(work.body, &err.op, &err.request_id);
    AppendResponse(err, encoded);
    // The stream decoded a frame but not a request; the peer speaks a
    // different dialect, so stop reading from it.
    conn->draining.store(true, std::memory_order_release);
  }
  // The request owns copies of its strings, so the body goes back to
  // the pool now, before the response can reach the peer: a client's
  // next frame then always finds a recycled body waiting.
  body_pool_.Release(std::move(work.body));
  if (decoded.ok()) {
    Dispatch(*request, response);
    t_done = NowNs();
    RecordOp(request->op, response->code, t_done - t_dispatch);
    timed_op = request->op;
    timed_code = response->code;
    timed = true;
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    AppendResponse(*response, encoded);
  }
  // Write coalescing: when this frame is the only one in flight the
  // response is sent directly (lowest latency for blocking clients);
  // when more frames of this connection are being worked on, append
  // only -- the last completer or the IO thread flushes the whole batch
  // in one write, so a pipelining client costs ~1 syscall per burst.
  const bool sole_inflight =
      conn->inflight.load(std::memory_order_acquire) == 1;
  bool flushed;
  {
    MutexLock lock(conn->out_mu);
    if (!conn->send_error) {
      conn->outbuf.append(*encoded);
      output_bytes_.fetch_add(encoded->size(), std::memory_order_relaxed);
    }
    flushed = sole_inflight ? FlushLocked(conn.get()) : false;
  }
  if (timed && options_.metrics) {
    const int64_t t_reply = NowNs();
    if (t_reply >= t_done) {
      reply_ns_.Record(static_cast<uint64_t>(t_reply - t_done));
    }
    if (options_.slow_request_us > 0) {
      const int64_t start_ns =
          work.enqueue_ns > 0 ? work.enqueue_ns : t_dispatch;
      const int64_t total_us = (t_reply - start_ns) / 1000;
      if (total_us >= options_.slow_request_us) {
        WATCHMAN_LOG(Warning)
            << "slow_request op=" << OpCodeName(timed_op)
            << " status=" << StatusCodeName(timed_code)
            << " total_us=" << total_us
            << " queue_us=" << (t_dispatch - start_ns) / 1000
            << " service_us=" << (t_done - t_dispatch) / 1000
            << " reply_us=" << (t_reply - t_done) / 1000 << " path=worker";
      }
    }
  }
  const bool input_closed_hint =
      conn->input_closed.load(std::memory_order_acquire);
  const uint32_t prev = conn->inflight.fetch_sub(1, std::memory_order_release);
  inflight_frames_.fetch_sub(1, std::memory_order_relaxed);
  last_activity_ms_.store(NowMs(), std::memory_order_relaxed);
  // Poke the IO thread when it has something to do for this connection:
  // flush / resume a partial write, or run the close path now that the
  // last in-flight frame is answered.
  if (!flushed || conn->draining.load(std::memory_order_acquire) ||
      (prev == 1 && input_closed_hint)) {
    MarkDirty(conn);
  }
}

void WatchmanServer::Dispatch(const WireRequest& request,
                              WireResponse* response_out) {
  WireResponse& response = *response_out;
  response.Reset(request.op);
  response.request_id = request.request_id;
  switch (request.op) {
    case OpCode::kPing:
      break;
    case OpCode::kGet: {
      // Fills response.payload in place (pooled capacity, no copy).
      const Status status =
          cache_->GetCachedInto(request.query_text, &response.payload);
      if (status.ok()) {
        response.cache_hit = true;
      } else {
        response.code = status.code();
        response.message = status.message();
      }
      break;
    }
    case OpCode::kExecute: {
      FillContext fill;
      if (request.has_fill) {
        fill.request = &request;
        t_fill = &fill;
      }
      // Approximate hit flag for executor-mode requests; fill-mode
      // requests overwrite it below with the exact answer.
      const bool cached_before =
          request.has_fill ? false : cache_->IsCached(request.query_text);
      StatusOr<std::string> payload = cache_->Execute(request.query_text);
      if (!payload.ok() && request.has_fill && !fill.consumed &&
          payload.status().code() == StatusCode::kNotFound) {
        // NotFound with the fill unconsumed: this request was
        // deduplicated behind a fill-less caller's flight and shared
        // its miss without our fill ever being offered. The flight has
        // closed, so one retry runs the executor with the fill staged.
        // (Gated on NotFound so a daemon with a real warehouse executor
        // never re-runs a query that failed for other reasons.)
        payload = cache_->Execute(request.query_text);
      }
      t_fill = nullptr;
      if (payload.ok()) {
        response.cache_hit = request.has_fill ? !fill.consumed : cached_before;
        response.payload = std::move(*payload);
      } else {
        response.code = payload.status().code();
        response.message = payload.status().message();
      }
      break;
    }
    case OpCode::kInvalidate:
      response.dropped = cache_->Invalidate(request.query_text) ? 1 : 0;
      break;
    case OpCode::kInvalidateRelation:
      response.dropped = cache_->InvalidateRelation(request.relation);
      break;
    case OpCode::kStats:
      response.stats = StatsSnapshot();
      break;
    case OpCode::kCompact:
      RunCompaction();
      break;
  }
}

void WatchmanServer::RecordOp(OpCode op, StatusCode code,
                              int64_t latency_ns) {
  // A miss (NotFound) is an answered question, not a failure.
  const bool is_error =
      code != StatusCode::kOk && code != StatusCode::kNotFound;
  OpMetrics& m = per_op_[OpIndex(op)];
  m.requests.Inc();
  if (is_error) m.errors.Inc();
  if (options_.metrics) {
    m.latency_ns.Record(latency_ns > 0 ? static_cast<uint64_t>(latency_ns)
                                       : 0);
  }
}

WatchmanServer::OpCounters WatchmanServer::op_counters(OpCode op) const {
  const OpMetrics& m = per_op_[OpIndex(op)];
  OpCounters out;
  out.requests = m.requests.Value();
  out.errors = m.errors.Value();
  out.latency_count = m.latency_ns.Count();
  if (out.latency_count > 0) {
    out.latency_mean_us = static_cast<double>(m.latency_ns.Sum()) /
                          static_cast<double>(out.latency_count) / 1000.0;
    out.latency_min_us = static_cast<double>(m.latency_ns.Min()) / 1000.0;
    out.latency_max_us = static_cast<double>(m.latency_ns.Max()) / 1000.0;
  }
  return out;
}

// Registration happens once, in the constructor, before any thread can
// scrape: cache families are per-shard labeled snapshot callbacks (each
// takes that shard's lock at scrape time), facade and server families
// point at the live lock-free metric objects.
void WatchmanServer::BuildMetricsRegistry() {
  using Labels = obs::MetricsRegistry::Labels;
  const ShardedQueryCache* cache = &cache_->cache();
  const size_t shards = cache->num_shards();

  struct CacheCounterDef {
    const char* name;
    const char* help;
    uint64_t CacheStats::*field;
  };
  static constexpr CacheCounterDef kCacheCounters[] = {
      {"watchman_cache_lookups_total", "Cache lookups (hits + misses).",
       &CacheStats::lookups},
      {"watchman_cache_hits_total", "Cache hits.", &CacheStats::hits},
      {"watchman_cache_insertions_total", "Retrieved sets admitted.",
       &CacheStats::insertions},
      {"watchman_cache_evictions_total", "Retrieved sets evicted.",
       &CacheStats::evictions},
      {"watchman_cache_admission_rejects_total",
       "Misses the admission policy declined to cache.",
       &CacheStats::admission_rejections},
      {"watchman_cache_too_large_rejects_total",
       "Misses whose retrieved set exceeds the whole cache capacity.",
       &CacheStats::too_large_rejections},
      {"watchman_cache_cost_units_total",
       "Execution cost units of all references.", &CacheStats::cost_total},
      {"watchman_cache_cost_saved_units_total",
       "Execution cost units saved by hits.", &CacheStats::cost_saved},
      {"watchman_cache_bytes_inserted_total",
       "Payload bytes of admitted retrieved sets.",
       &CacheStats::bytes_inserted},
      {"watchman_cache_bytes_evicted_total",
       "Payload bytes of evicted retrieved sets.",
       &CacheStats::bytes_evicted},
  };
  for (size_t i = 0; i < shards; ++i) {
    const Labels labels = {{"shard", std::to_string(i)}};
    for (const CacheCounterDef& def : kCacheCounters) {
      auto field = def.field;
      registry_.AddCounterFn(def.name, def.help, labels,
                             [cache, i, field]() -> uint64_t {
                               return cache->shard_stats(i).*field;
                             });
    }
    registry_.AddCounterFn(
        "watchman_cache_lock_acquisitions_total",
        "Shard-lock acquisitions (uncontended fast path included).", labels,
        [cache, i] { return cache->lock_stats(i).acquisitions; });
    registry_.AddCounterFn(
        "watchman_cache_lock_contended_total",
        "Shard-lock acquisitions that had to block.", labels,
        [cache, i] { return cache->lock_stats(i).contended; });
  }
  Watchman* facade = cache_;
  registry_.AddGaugeFn("watchman_cache_used_bytes",
                       "Payload bytes currently cached.", {}, [facade] {
                         return static_cast<double>(facade->used_bytes());
                       });
  registry_.AddGaugeFn("watchman_cache_capacity_bytes",
                       "Configured cache capacity.", {}, [facade] {
                         return static_cast<double>(facade->capacity_bytes());
                       });
  registry_.AddGaugeFn(
      "watchman_cache_entries", "Retrieved sets currently cached.", {},
      [facade] { return static_cast<double>(facade->cached_set_count()); });
  registry_.AddGaugeFn(
      "watchman_cache_retained_entries",
      "Evicted entries whose reference history is retained.", {}, [facade] {
        return static_cast<double>(facade->retained_info_count());
      });
  registry_.AddGaugeFn("watchman_cache_shards", "Cache shard count.", {},
                       [shards] { return static_cast<double>(shards); });

  const Watchman::FacadeMetrics& fm = cache_->facade_metrics();
  registry_.AddCounter("watchman_facade_executions_total",
                       "Warehouse executions run (single-flight leaders).",
                       {}, &fm.executions);
  registry_.AddCounter(
      "watchman_facade_dedup_total",
      "Callers served by another caller's in-flight execution.", {},
      &fm.dedup_hits);
  registry_.AddCounterFn(
      "watchman_facade_invalidations_total",
      "Cached sets dropped by coherence invalidations.", {},
      [facade] { return facade->invalidations(); });
  registry_.AddHistogram("watchman_facade_execution_cost",
                         "Execution cost of admitted misses (cost units).",
                         {{"outcome", "admitted"}}, &fm.admitted_cost);
  registry_.AddHistogram("watchman_facade_execution_cost",
                         "Execution cost of rejected misses (cost units).",
                         {{"outcome", "rejected"}}, &fm.rejected_cost);
  registry_.AddHistogram(
      "watchman_facade_execution_profit_ppm",
      "Profit (cost * 1e6 / result_bytes) of admitted vs rejected misses.",
      {{"outcome", "admitted"}}, &fm.admitted_profit_ppm);
  registry_.AddHistogram(
      "watchman_facade_execution_profit_ppm",
      "Profit (cost * 1e6 / result_bytes) of admitted vs rejected misses.",
      {{"outcome", "rejected"}}, &fm.rejected_profit_ppm);

  for (size_t i = 0; i < kNumOpCodes; ++i) {
    const Labels labels = {
        {"op", OpCodeName(static_cast<OpCode>(i + 1))}};
    registry_.AddCounter("watchman_server_requests_total",
                         "Requests dispatched, by wire op.", labels,
                         &per_op_[i].requests);
    registry_.AddCounter(
        "watchman_server_errors_total",
        "Requests answered with an error status (NotFound excluded).",
        labels, &per_op_[i].errors);
    registry_.AddHistogram("watchman_server_request_seconds",
                           "Dispatch (service) latency, by wire op.", labels,
                           &per_op_[i].latency_ns, 1e-9);
  }
  registry_.AddHistogram(
      "watchman_server_queue_wait_seconds",
      "Ready-queue wait between frame enqueue and worker claim.", {},
      &queue_wait_ns_, 1e-9);
  registry_.AddHistogram(
      "watchman_server_reply_seconds",
      "Response append/flush time after dispatch completes.", {}, &reply_ns_,
      1e-9);

  registry_.AddCounterFn(
      "watchman_server_connections_accepted_total", "Connections accepted.",
      {}, [this] {
        return connections_accepted_.load(std::memory_order_relaxed);
      });
  registry_.AddCounterFn(
      "watchman_server_requests_served_total",
      "Requests answered (all ops, inline + worker paths).", {},
      [this] { return requests_served_.load(std::memory_order_relaxed); });
  registry_.AddCounterFn(
      "watchman_server_frames_rejected_total",
      "Frames rejected before dispatch (framing/decode errors).", {},
      [this] { return frames_rejected_.load(std::memory_order_relaxed); });
  registry_.AddCounterFn(
      "watchman_server_inline_dispatched_total",
      "Frames answered inline on the IO thread (fast path).", {},
      [this] { return inline_dispatched_.load(std::memory_order_relaxed); });
  registry_.AddCounterFn(
      "watchman_server_compactions_total",
      "Metadata compaction passes (idle timer + COMPACT op).", {},
      [this] { return compactions_.load(std::memory_order_relaxed); });
  registry_.AddGaugeFn(
      "watchman_server_connections_active", "Open connections.", {},
      [this]() -> double {
        return static_cast<double>(
            connections_active_.load(std::memory_order_relaxed));
      });
  registry_.AddGaugeFn("watchman_server_ready_queue_depth",
                       "Frames awaiting a worker right now.", {},
                       [this]() -> double {
                         return static_cast<double>(
                             ready_depth_.load(std::memory_order_relaxed));
                       });
  registry_.AddGaugeFn(
      "watchman_server_ready_queue_peak",
      "High-water mark of the ready-queue since Start().", {},
      [this]() -> double {
        return static_cast<double>(
            connections_queued_peak_.load(std::memory_order_relaxed));
      });
  registry_.AddGaugeFn("watchman_server_uptime_seconds",
                       "Seconds since Start().", {}, [this]() -> double {
                         return running() ? static_cast<double>(NowMs()) /
                                                1000.0
                                          : 0.0;
                       });

  // Overload-protection families: sheds by reason, the retry hints
  // attached to them, and the buffered-output gauge the byte budget
  // watches.
  for (size_t i = 1; i < kNumShedReasons; ++i) {
    registry_.AddCounter(
        "watchman_server_shed_total",
        "Requests and connections shed by the admission layer, by reason.",
        {{"reason", ShedReasonName(static_cast<ShedReason>(i))}},
        &shed_counters_[i]);
  }
  registry_.AddHistogram(
      "watchman_server_shed_retry_hint_ms",
      "Retry-after hints attached to shed responses (milliseconds).", {},
      &shed_retry_hint_ms_);
  registry_.AddGaugeFn(
      "watchman_server_output_buffered_bytes",
      "Response bytes buffered across all connections (the "
      "max_global_output_bytes budget watches this).",
      {}, [this]() -> double {
        return static_cast<double>(
            output_bytes_.load(std::memory_order_relaxed));
      });
  registry_.AddCounterFn(
      "watchman_server_admin_rejected_total",
      "Admin connections refused at accept (connection cap).", {},
      [this] { return admin_rejected_.load(std::memory_order_relaxed); });
  registry_.AddCounterFn(
      "watchman_server_admin_timeouts_total",
      "Admin connections closed by the header-read deadline.", {},
      [this] { return admin_timeouts_.load(std::memory_order_relaxed); });

  // Degradation families: executor/store failures the facade absorbed
  // and the payload-store circuit breaker's live state.
  registry_.AddCounter(
      "watchman_facade_executor_failures_total",
      "Warehouse executions that failed or threw (absorbed as errors).",
      {}, &fm.executor_failures);
  registry_.AddCounter(
      "watchman_facade_store_failures_total",
      "Payload-store operations that failed (NotFound excluded).", {},
      &fm.store_failures);
  registry_.AddCounter(
      "watchman_facade_degraded_passthrough_total",
      "Misses served uncached because storing the result failed.", {},
      &fm.degraded_passthrough);
  registry_.AddGaugeFn(
      "watchman_store_breaker_state",
      "Payload-store circuit breaker state (0=closed, 1=open, "
      "2=half-open).",
      {}, [facade]() -> double {
        return static_cast<double>(facade->store_breaker_state());
      });
  registry_.AddCounterFn(
      "watchman_store_breaker_trips_total",
      "Times the payload-store breaker tripped open.", {},
      [facade] { return facade->store_breaker().trips(); });
  registry_.AddCounterFn(
      "watchman_store_breaker_rejected_total",
      "Payload-store calls short-circuited while the breaker was open.",
      {}, [facade] { return facade->store_breaker().rejected(); });
}

WireStats WatchmanServer::StatsSnapshot() const {
  WireStats out;
  const CacheStats cache = cache_->stats();
  out.lookups = cache.lookups;
  out.hits = cache.hits;
  out.insertions = cache.insertions;
  out.evictions = cache.evictions;
  out.admission_rejections = cache.admission_rejections;
  out.too_large_rejections = cache.too_large_rejections;
  out.cost_total = cache.cost_total;
  out.cost_saved = cache.cost_saved;
  out.bytes_inserted = cache.bytes_inserted;
  out.bytes_evicted = cache.bytes_evicted;
  out.used_bytes = cache_->used_bytes();
  out.capacity_bytes = cache_->capacity_bytes();
  out.entry_count = cache_->cached_set_count();
  out.retained_count = cache_->retained_info_count();
  out.invalidations = cache_->invalidations();
  out.num_shards = cache_->num_shards();
  out.policy_name = cache_->policy_name();
  out.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  out.connections_active = connections_active_.load(std::memory_order_relaxed);
  out.connections_queued = connections_queued();
  out.connections_queued_peak =
      connections_queued_peak_.load(std::memory_order_relaxed);
  out.requests_served = requests_served_.load(std::memory_order_relaxed);
  out.frames_rejected = frames_rejected_.load(std::memory_order_relaxed);
  out.compactions = compactions_.load(std::memory_order_relaxed);
  const int64_t last_compaction =
      last_compaction_ms_.load(std::memory_order_relaxed);
  if (last_compaction >= 0) {
    const int64_t age = NowMs() - last_compaction;
    out.last_compaction_age_ms =
        age > 0 ? static_cast<uint64_t>(age) : 0;
  }
  out.backend = kBackendName;
  for (size_t i = 0; i < kNumOpCodes; ++i) {
    const OpCounters counters =
        op_counters(static_cast<OpCode>(i + 1));
    if (counters.requests == 0) continue;
    WireOpMetrics metrics;
    metrics.op = static_cast<uint8_t>(i + 1);
    metrics.requests = counters.requests;
    metrics.errors = counters.errors;
    metrics.latency_count = counters.latency_count;
    metrics.latency_mean_us = counters.latency_mean_us;
    metrics.latency_min_us = counters.latency_min_us;
    metrics.latency_max_us = counters.latency_max_us;
    out.per_op.push_back(metrics);
  }
  return out;
}

}  // namespace watchman
