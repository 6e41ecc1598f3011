#include "daemon.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/errno_string.h"

namespace perfbench {

using watchman::Status;
using watchman::StatusOr;

namespace {

constexpr int kStartupTimeoutMs = 30000;

/// Reads `fd` until `text` holds both startup lines, EOF or timeout.
Status ReadStartup(int fd, std::string* text) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kStartupTimeoutMs);
  while (text->find("admin endpoint:") == std::string::npos ||
         text->find('\n', text->find("admin endpoint:")) ==
             std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return Status::IOError("watchmand did not start in time");
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left)) < 0 && errno != EINTR) {
      return Status::IOError("poll: " + watchman::ErrnoString(errno));
    }
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n == 0) return Status::IOError("watchmand exited during startup");
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return Status::IOError("read: " + watchman::ErrnoString(errno));
    }
    text->append(buf, static_cast<size_t>(n));
  }
  return Status::OK();
}

/// The number after `key` in `text` up to a non-digit; 0 when absent.
uint64_t NumberAfter(const std::string& text, const std::string& key) {
  const size_t at = text.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + key.size(), nullptr, 10);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

StatusOr<std::unique_ptr<Daemon>> Daemon::Spawn(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& log_path) {
  std::vector<std::string> argv_text = {binary, "--port=0", "--admin-port=0"};
  argv_text.insert(argv_text.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_text) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int out_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    return Status::IOError("pipe: " + watchman::ErrnoString(errno));
  }
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    return Status::IOError("open " + log_path + ": " +
                           watchman::ErrnoString(errno));
  }
  // vfork: the spawn must not cost a copy of the load generator's page
  // tables (its request stream is tens of MB), or setup_s would grow
  // with the workload's size. The child only makes system calls.
  const pid_t pid = ::vfork();
  if (pid == 0) {
    // A load generator that dies never leaves its daemon behind.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(out_pipe[1]);
  ::close(log_fd);
  if (pid < 0) {
    ::close(out_pipe[0]);
    return Status::IOError("fork: " + watchman::ErrnoString(errno));
  }
  std::unique_ptr<Daemon> daemon(new Daemon());
  daemon->pid_ = pid;
  daemon->stdout_fd_ = out_pipe[0];
  std::string text;
  const Status started = ReadStartup(daemon->stdout_fd_, &text);
  if (!started.ok()) return Status::IOError(started.message() + ": " + text);

  daemon->startup_line_ = text.substr(0, text.find('\n'));
  const std::string& line = daemon->startup_line_;
  const size_t colon = line.rfind(':', line.find(" ("));
  daemon->port_ = static_cast<uint16_t>(
      colon == std::string::npos ? 0 : std::strtoul(&line[colon + 1], nullptr, 10));
  daemon->admin_port_ =
      static_cast<uint16_t>(NumberAfter(text, "admin endpoint: http://127.0.0.1:"));
  const size_t backend_end = line.rfind(" backend)");
  const size_t backend_start = line.rfind(", ", backend_end);
  if (backend_end != std::string::npos && backend_start != std::string::npos) {
    daemon->backend_ =
        line.substr(backend_start + 2, backend_end - backend_start - 2);
  }
  if (daemon->port_ == 0 || daemon->admin_port_ == 0) {
    return Status::IOError("cannot parse watchmand startup lines: " + text);
  }
  return daemon;
}

Daemon::~Daemon() {
  if (pid_ > 0) Stop();
}

StatusOr<std::string> Daemon::ScrapeMetrics() const {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IOError("socket: " + watchman::ErrnoString(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(admin_port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
      0) {
    static const char kRequest[] = "GET /metrics HTTP/1.0\r\n\r\n";
    if (::send(fd, kRequest, sizeof(kRequest) - 1, MSG_NOSIGNAL) ==
        static_cast<ssize_t>(sizeof(kRequest) - 1)) {
      char buf[16384];
      ssize_t n;
      while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
        response.append(buf, static_cast<size_t>(n));
      }
    }
  }
  ::close(fd);
  const size_t body = response.find("\r\n\r\n");
  if (response.compare(0, 12, "HTTP/1.0 200") != 0 &&
      response.compare(0, 12, "HTTP/1.1 200") != 0) {
    return Status::IOError("bad /metrics response: " + response.substr(0, 64));
  }
  return response.substr(body == std::string::npos ? 0 : body + 4);
}

std::string Daemon::SchedstatText() const {
  const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
  std::string out;
  DIR* tasks = ::opendir(dir.c_str());
  if (tasks == nullptr) return out;
  while (const dirent* entry = ::readdir(tasks)) {
    if (entry->d_name[0] == '.') continue;
    const std::string line =
        ReadFile(dir + "/" + entry->d_name + "/schedstat");
    if (!line.empty()) out += std::string(entry->d_name) + " " + line;
  }
  ::closedir(tasks);
  return out;
}

uint64_t Daemon::PeakRssKib() const {
  return NumberAfter(ReadFile("/proc/" + std::to_string(pid_) + "/status"),
                     "VmHWM:");
}

Status Daemon::Stop() {
  if (pid_ <= 0) return Status::OK();
  ::kill(pid_, SIGTERM);
  // Drain stdout (the final stats report) so the daemon never blocks on
  // a full pipe while exiting.
  char buf[4096];
  while (::read(stdout_fd_, buf, sizeof(buf)) > 0) {
  }
  ::close(stdout_fd_);
  int wstatus = 0;
  while (::waitpid(pid_, &wstatus, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) return Status::OK();
  // The daemon prints its startup lines before it installs its SIGTERM
  // handler, so a stop right after startup may take the default action.
  if (WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGTERM) {
    return Status::OK();
  }
  return Status::Internal("watchmand exited with status " +
                          std::to_string(wstatus));
}

}  // namespace perfbench
