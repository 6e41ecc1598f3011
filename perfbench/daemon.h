// A watchmand child process: spawned on an ephemeral port with an
// ephemeral admin port, observed from outside (its /metrics endpoint,
// /proc/<pid>/task/*/schedstat and /proc/<pid>/status), and stopped
// with SIGTERM.

#ifndef WATCHMAN_PERFBENCH_DAEMON_H_
#define WATCHMAN_PERFBENCH_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

class Daemon {
 public:
  /// Starts `binary` with `args` plus --port=0 --admin-port=0 and waits
  /// for its startup lines. The daemon's stderr goes to `log_path`.
  static watchman::StatusOr<std::unique_ptr<Daemon>> Spawn(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& log_path);

  /// Stops the daemon if Stop() was not called.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return port_; }
  /// The effective event backend from the startup line.
  const std::string& backend() const { return backend_; }
  const std::string& startup_line() const { return startup_line_; }

  /// The admin endpoint's /metrics body (Prometheus text).
  watchman::StatusOr<std::string> ScrapeMetrics() const;

  /// One "<tid> <schedstat line>" line per daemon thread.
  std::string SchedstatText() const;

  /// VmHWM of the daemon, in KiB (0 when unreadable).
  uint64_t PeakRssKib() const;

  /// SIGTERM, then waits for exit. OK when the daemon exited 0.
  watchman::Status Stop();

 private:
  Daemon() = default;

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  uint16_t admin_port_ = 0;
  std::string backend_;
  std::string startup_line_;
};

}  // namespace perfbench

#endif  // WATCHMAN_PERFBENCH_DAEMON_H_
