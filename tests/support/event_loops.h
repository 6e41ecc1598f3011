// Event-loop parameter shared by the daemon's server suites.
//
// watchmand runs one event loop (epoll). The server, admin, overload,
// alloc and chaos suites stay parameterized on it so each instance is
// named after the loop it drives ("Backends/<Suite>.<Test>/epoll"); a
// second loop would be one more enumerator and one more name.

#ifndef WATCHMAN_TESTS_SUPPORT_EVENT_LOOPS_H_
#define WATCHMAN_TESTS_SUPPORT_EVENT_LOOPS_H_

#include <gtest/gtest.h>

#include <string>

#include "server/server.h"

namespace watchman {

enum class EventLoop { kEpoll };

/// Every event loop watchmand can run, in instantiation order.
inline auto AllEventLoops() { return testing::Values(EventLoop::kEpoll); }

/// The loop's name as STATS and the startup line spell it.
inline std::string EventLoopName(EventLoop loop) {
  switch (loop) {
    case EventLoop::kEpoll:
      return WatchmanServer::kBackendName;
  }
  return "unknown";
}

inline std::string EventLoopParamName(
    const testing::TestParamInfo<EventLoop>& info) {
  return EventLoopName(info.param);
}

}  // namespace watchman

#endif  // WATCHMAN_TESTS_SUPPORT_EVENT_LOOPS_H_
