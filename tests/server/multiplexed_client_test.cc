// MultiplexedClient <-> event-loop server integration: one connection
// shared by many threads, out-of-order response routing by request id,
// pipelined writes, partial-write resumption under a tiny SO_SNDBUF,
// Await deadlines, and the caller-reads design (no client thread; the
// reader role passes between waiting threads). The suite name contains
// "Server" so the concurrency-heavy tests run under the CI TSan job's
// *Server* filter.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "watchman/watchman.h"

namespace watchman {
namespace {

using Clock = std::chrono::steady_clock;

std::string PayloadFor(const std::string& text) {
  return "payload(" + text + ")";
}

double ElapsedMs(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

/// Threads of this process, from /proc/self/task.
size_t ThreadCount() {
  size_t threads = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++threads;
  }
  return threads;
}

/// A one-connection loopback "daemon" the test scripts by hand: it
/// reads requests and answers them when, and in the order, the script
/// says. Every answer is an OK GET hit carrying PayloadFor(query).
class ScriptedDaemon {
 public:
  ScriptedDaemon() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len),
        0);
    EXPECT_EQ(::listen(listen_fd_, 4), 0);
    port_ = ntohs(addr.sin_port);
  }
  ~ScriptedDaemon() {
    if (conn_fd_ >= 0) ::close(conn_fd_);
    ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }

  void Accept() { conn_fd_ = ::accept(listen_fd_, nullptr, nullptr); }

  /// Reads the next request; an empty query text on EOF or garbage.
  WireRequest Read() {
    char chunk[4096];
    while (true) {
      std::string_view body;
      size_t frame_size = 0;
      auto extracted =
          ExtractFrame(inbuf_, kDefaultMaxFrameBytes, &body, &frame_size);
      if (!extracted.ok()) return {};
      if (*extracted) {
        auto request = DecodeRequest(body);
        inbuf_.erase(0, frame_size);
        return request.ok() ? *request : WireRequest{};
      }
      const ssize_t n = ::recv(conn_fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return {};
      inbuf_.append(chunk, static_cast<size_t>(n));
    }
  }

  void Answer(const WireRequest& request) {
    WireResponse response;
    response.op = request.op;
    response.request_id = request.request_id;
    response.cache_hit = true;
    response.payload = PayloadFor(request.query_text);
    const std::string frame = EncodeResponse(response);
    (void)!::send(conn_fd_, frame.data(), frame.size(), MSG_NOSIGNAL);
  }

 private:
  int listen_fd_ = -1;
  int conn_fd_ = -1;
  uint16_t port_ = 0;
  std::string inbuf_;
};

MultiplexedClient::Options ScriptedOptions(uint16_t port, int io_timeout_ms) {
  MultiplexedClient::Options options;
  options.port = port;
  options.connect_attempts = 1;
  options.io_timeout_ms = io_timeout_ms;
  return options;
}

class MultiplexedClientServerTest : public testing::Test {
 protected:
  void StartServer(WatchmanServer::Options server_options = {}) {
    Watchman::Options options;
    options.capacity_bytes = 64 << 20;
    options.num_shards = 8;
    cache_ = std::make_unique<Watchman>(std::move(options),
                                        WatchmanServer::MissFillExecutor());
    server_options.port = 0;  // ephemeral: parallel-safe in CI
    server_ = std::make_unique<WatchmanServer>(cache_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  MultiplexedClient::Options ClientOptions() const {
    MultiplexedClient::Options options;
    options.port = server_->port();
    return options;
  }

  std::unique_ptr<MultiplexedClient> MakeClient() {
    auto client = MultiplexedClient::Connect(ClientOptions());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  std::unique_ptr<Watchman> cache_;
  std::unique_ptr<WatchmanServer> server_;
};

TEST_F(MultiplexedClientServerTest, BlockingOpsShareOneConnection) {
  StartServer();
  auto client = MakeClient();
  EXPECT_TRUE(client->Ping().ok());

  const std::string query = "select sum(profit) from orders";
  auto filled = client->Execute(query, PayloadFor(query), 9000, {"orders"});
  ASSERT_TRUE(filled.ok()) << filled.status().ToString();
  EXPECT_FALSE(filled->cache_hit);

  auto got = client->Get(query);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->cache_hit);
  EXPECT_EQ(got->payload, PayloadFor(query));

  auto miss = client->Get("select nothing");
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound);

  auto dropped = client->InvalidateRelation("orders");
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 1u);

  auto one = client->Invalidate(query);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(*one, 0u);  // already invalidated

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->connections_accepted, 1u);
  EXPECT_GE(stats->requests_served, 5u);
}

TEST_F(MultiplexedClientServerTest, OutOfOrderAwaitRoutesResponsesById) {
  StartServer();
  auto client = MakeClient();
  constexpr int kQueries = 24;
  for (int i = 0; i < kQueries; ++i) {
    const std::string query = "select " + std::to_string(i);
    ASSERT_TRUE(
        client->Execute(query, PayloadFor(query), 100, {"r"}).ok());
  }
  // Pipeline every GET before awaiting any, then await in REVERSE
  // issue order: each response must still land on its own ticket.
  std::vector<MultiplexedClient::Ticket> tickets;
  for (int i = 0; i < kQueries; ++i) {
    auto ticket = client->StartGet("select " + std::to_string(i));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  for (int i = kQueries - 1; i >= 0; --i) {
    auto response = client->Await(tickets[static_cast<size_t>(i)]);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->code, StatusCode::kOk) << i;
    EXPECT_EQ(response->payload, PayloadFor("select " + std::to_string(i)))
        << i;
  }
  // A ticket can be awaited only once.
  auto again = client->Await(tickets[0]);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MultiplexedClientServerTest,
       ConcurrentThreadsOnOneConnectionRouteToIssuer) {
  StartServer();
  constexpr int kThreads = 8;
  constexpr int kIterations = 150;
  constexpr int kQueriesPerThread = 5;
  auto client = MakeClient();
  // Prefill thread-distinct queries over the same connection.
  for (int t = 0; t < kThreads; ++t) {
    for (int q = 0; q < kQueriesPerThread; ++q) {
      const std::string query =
          "select t" + std::to_string(t) + " q" + std::to_string(q);
      ASSERT_TRUE(
          client->Execute(query, PayloadFor(query), 100, {"rel"}).ok());
    }
  }
  EXPECT_EQ(server_->connections_accepted(), 1u);

  std::atomic<int> errors{0};
  std::atomic<int> wrong_payloads{0};
  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kIterations; ++i) {
        const std::string query = "select t" + std::to_string(t) + " q" +
                                  std::to_string(i % kQueriesPerThread);
        auto got = client->Get(query);
        if (!got.ok()) {
          errors.fetch_add(1);
        } else if (got->payload != PayloadFor(query)) {
          // A routing bug would hand this thread another thread's
          // response; the thread-distinct payload catches it.
          wrong_payloads.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(wrong_payloads.load(), 0);
  EXPECT_EQ(server_->connections_accepted(), 1u);
  const CacheStats stats = cache_->stats();
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads * kIterations));
  EXPECT_TRUE(cache_->cache().CheckInvariants().ok());
}

TEST_F(MultiplexedClientServerTest, PartialWriteResumptionUnderTinySndbuf) {
  // A 4 KiB SO_SNDBUF against ~64 KiB responses forces every response
  // through the EPOLLOUT partial-write resumption path; 32 pipelined
  // GETs make many of them overlap in one connection's output buffer.
  WatchmanServer::Options server_options;
  server_options.sndbuf_bytes = 4096;
  server_options.num_workers = 4;
  StartServer(server_options);
  constexpr int kQueries = 32;
  auto client = MakeClient();
  std::vector<std::string> payloads;
  for (int i = 0; i < kQueries; ++i) {
    const std::string query = "select big " + std::to_string(i);
    std::string payload(64 * 1024,
                        static_cast<char>('a' + (i % 26)));
    payload.replace(0, query.size(), query);  // make each unique
    ASSERT_TRUE(client->Execute(query, payload, 100, {"rel"}).ok());
    payloads.push_back(std::move(payload));
  }
  std::vector<MultiplexedClient::Ticket> tickets;
  for (int i = 0; i < kQueries; ++i) {
    auto ticket = client->StartGet("select big " + std::to_string(i));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  for (int i = 0; i < kQueries; ++i) {
    auto response = client->Await(tickets[static_cast<size_t>(i)]);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->code, StatusCode::kOk) << i;
    // Byte-exact through arbitrarily split writes.
    EXPECT_EQ(response->payload, payloads[static_cast<size_t>(i)]) << i;
  }
}

TEST_F(MultiplexedClientServerTest, AwaitDeadlineAgainstSilentDaemon) {
  // A "daemon" that accepts and reads but never replies: Await must
  // fail with IOError within the configured deadline instead of
  // blocking its thread forever.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  std::thread server([listen_fd] {
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) return;
    char sink[4096];
    while (::recv(conn, sink, sizeof(sink), 0) > 0) {
    }
    ::close(conn);
  });

  MultiplexedClient::Options options;
  options.port = ntohs(addr.sin_port);
  options.connect_attempts = 1;
  options.io_timeout_ms = 250;
  auto client = MultiplexedClient::Connect(options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto begin = std::chrono::steady_clock::now();
  auto got = (*client)->Get("select 1");
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - begin)
          .count();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
  EXPECT_GE(elapsed_ms, 200.0);
  EXPECT_LT(elapsed_ms, 5000.0);
  (*client).reset();  // closes the connection, unblocking the fake daemon
  server.join();
  ::close(listen_fd);
}

TEST_F(MultiplexedClientServerTest, TransportFailureIsStickyAndFailsFast) {
  StartServer();
  auto client = MakeClient();
  ASSERT_TRUE(client->Ping().ok());
  server_->Stop();  // closes the connection under the client
  // The next caller to read the socket sees EOF and breaks the client;
  // subsequent calls fail fast with the sticky status instead of
  // hanging.
  Status status;
  for (int i = 0; i < 50; ++i) {
    status = client->Ping();
    if (!status.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(status.ok());
  const auto begin = std::chrono::steady_clock::now();
  EXPECT_FALSE(client->Ping().ok());
  const double fail_fast_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - begin)
          .count();
  EXPECT_LT(fail_fast_ms, 1000.0);
}

TEST_F(MultiplexedClientServerTest, ConnectStartsNoThread) {
  // The thread blocked in Await() reads the socket itself: connecting
  // and serving a call must leave the process's thread count alone.
  StartServer();
  const size_t before = ThreadCount();
  auto client = MakeClient();
  EXPECT_EQ(ThreadCount(), before);
  auto miss = client->Get("select nothing");
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound)
      << miss.status().ToString();
  EXPECT_EQ(ThreadCount(), before);
}

TEST_F(MultiplexedClientServerTest, ReaderRoleIsHandedToTheNextWaiter) {
  // Thread A awaits ticket a and takes the reader role; thread B awaits
  // ticket b and sleeps. The daemon answers a, pauses, then answers b.
  // A returns with a and must hand the role to B, which then reads b
  // itself. A lost wake-up would leave B asleep until its 5 s deadline.
  ScriptedDaemon daemon;
  std::thread script([&] {
    daemon.Accept();
    const WireRequest a = daemon.Read();
    const WireRequest b = daemon.Read();
    // Let both waiters park: A in poll, B on its condition variable.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    daemon.Answer(a);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    daemon.Answer(b);
  });

  auto client =
      MultiplexedClient::Connect(ScriptedOptions(daemon.port(), 5000));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto a = (*client)->StartGet("select a");
  auto b = (*client)->StartGet("select b");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*client)->Flush().ok());

  std::optional<StatusOr<WireResponse>> got_a, got_b;
  double b_ms = 0;
  std::thread waiter_a([&] { got_a = (*client)->Await(*a); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread waiter_b([&] {
    const auto begin = Clock::now();
    got_b = (*client)->Await(*b);
    b_ms = ElapsedMs(begin);
  });
  waiter_a.join();
  waiter_b.join();
  script.join();

  ASSERT_TRUE(got_a->ok()) << got_a->status().ToString();
  EXPECT_EQ((*got_a)->payload, PayloadFor("select a"));
  ASSERT_TRUE(got_b->ok()) << got_b->status().ToString();
  EXPECT_EQ((*got_b)->payload, PayloadFor("select b"));
  EXPECT_LT(b_ms, 2000.0);
}

TEST_F(MultiplexedClientServerTest, LateResponseIsDroppedAndConnectionServes) {
  // The daemon holds the first answer until the second request
  // arrives, i.e. until the first waiter has timed out. That late
  // answer must be dropped (its waiter left), and the connection must
  // keep serving: the second call gets its own answer.
  ScriptedDaemon daemon;
  std::thread script([&] {
    daemon.Accept();
    const WireRequest first = daemon.Read();
    const WireRequest second = daemon.Read();
    daemon.Answer(first);
    daemon.Answer(second);
    daemon.Answer(daemon.Read());
  });

  auto client =
      MultiplexedClient::Connect(ScriptedOptions(daemon.port(), 300));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto first = (*client)->Get("select first");
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kIOError);

  auto second = (*client)->Get("select second");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->payload, PayloadFor("select second"));
  auto third = (*client)->Get("select third");
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(third->payload, PayloadFor("select third"));
  script.join();
}

}  // namespace
}  // namespace watchman
