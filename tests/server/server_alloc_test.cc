// Zero-allocation guarantee of the server's steady-state request path,
// asserted the same way tests/cache/allocation_test.cc does for the
// cache: the binary-wide counting allocator is armed process-wide
// (minus the client thread driving traffic) and the measured window
// must record zero allocations on the server's IO thread and workers.
//
// Two paths are measured:
//  * the inline fast path -- a blocking client's PING/GET round trips
//    are answered on the IO thread, reusing the connection buffers and
//    the IO-thread request/response scratch;
//  * the worker path (inline dispatch disabled) -- every frame cycles
//    a pooled body through the FrameQueue ring and a worker's scratch,
//    exercising FramePool recycling end to end.
//
// EXECUTE is not measured: its facade API returns the payload by value
// (a per-call string) and a fill copies the payload into the store, so
// it is not allocation-free by contract -- on the IO thread (fill mode,
// where it runs inline) as much as on a worker.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "server/client.h"
#include "server/server.h"
#include "support/counting_alloc.h"
#include "support/event_loops.h"
#include "watchman/watchman.h"

namespace watchman {
namespace {

class ServerAllocTest : public testing::TestWithParam<EventLoop> {
 protected:
  void StartServer(bool inline_dispatch) {
    Watchman::Options options;
    options.capacity_bytes = 8 << 20;
    cache_ = std::make_unique<Watchman>(std::move(options),
                                        WatchmanServer::MissFillExecutor());
    WatchmanServer::Options server_options;
    server_options.port = 0;
    server_options.inline_dispatch = inline_dispatch;
    // One worker: the warmup passes heat that worker's decode/encode
    // scratch, and the measured window reuses it deterministically.
    server_options.num_workers = 1;
    server_ = std::make_unique<WatchmanServer>(cache_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());

    WatchmanClient::Options client_options;
    client_options.port = server_->port();
    auto client = WatchmanClient::Connect(client_options);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client_ = std::move(client).value();

    // One cached set so GET round trips are hits (a NotFound status
    // carries an allocated message and is not a steady-state path).
    ASSERT_TRUE(
        client_->Execute(kQuery, std::string(64, 'p'), 1000, {}).ok());
  }

  void RunTraffic(int rounds) {
    for (int i = 0; i < rounds; ++i) {
      ASSERT_TRUE(client_->Ping().ok());
      auto got = client_->Get(kQuery);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
    }
  }

  static constexpr const char* kQuery = "select hot from steady_state";

  std::unique_ptr<Watchman> cache_;
  std::unique_ptr<WatchmanServer> server_;
  std::unique_ptr<WatchmanClient> client_;
};

TEST_P(ServerAllocTest, InlineFastPathDoesNotAllocate) {
  StartServer(/*inline_dispatch=*/true);
  RunTraffic(/*rounds=*/100);  // warm buffers, scratch, counters
  const uint64_t inlined_before = server_->inline_dispatched();

  testsupport::GlobalCountingScope scope;
  RunTraffic(/*rounds=*/100);
  const uint64_t allocations = scope.count();
  testsupport::SetGlobalCounting(false);

  // All 200 measured frames really took the inline path...
  EXPECT_EQ(server_->inline_dispatched(), inlined_before + 200);
  // ...and the server side allocated nothing to serve them.
  EXPECT_EQ(allocations, 0u)
      << "inline path allocated " << allocations << " times over 200 frames";
}

TEST_P(ServerAllocTest, WorkerPathDoesNotAllocateOncePoolsAreWarm) {
  StartServer(/*inline_dispatch=*/false);
  RunTraffic(/*rounds=*/100);
  ASSERT_EQ(server_->inline_dispatched(), 0u);
  const uint64_t reuses_before = server_->frame_pool().reuses();

  testsupport::GlobalCountingScope scope;
  RunTraffic(/*rounds=*/100);
  const uint64_t allocations = scope.count();
  testsupport::SetGlobalCounting(false);

  // Every measured frame cycled a recycled body through the pool...
  EXPECT_EQ(server_->frame_pool().reuses(), reuses_before + 200);
  // ...allocation-free.
  EXPECT_EQ(allocations, 0u)
      << "worker path allocated " << allocations << " times over 200 frames";
}

INSTANTIATE_TEST_SUITE_P(Backends, ServerAllocTest, AllEventLoops(),
                         EventLoopParamName);

}  // namespace
}  // namespace watchman
