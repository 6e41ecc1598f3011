// perfbench_load: the watchmand benchmark's load generator.
//
//   perfbench_load run --workload=W --seed=N --seconds=S --trace=0|1
//                      --watchmand=PATH --out=DIR
//   perfbench_load dump --workload=W --seed=N [--queries=Q]
//   perfbench_load relations
//
// `run` spawns watchmand as a child process, drives it over loopback
// with workload W (see perfbench/README.md for why each workload
// exists) and prints one JSON line of raw measurements; the daemon's
// /metrics scrapes and schedstat snapshots go to files in DIR, and
// perfbench/run.py turns all of it into the reported metrics. With
// --trace=1 it alternates untraced and traced loopback slices on one
// daemon, then runs the in-process layer replay (layers.h).
//
// `dump` writes the workload's request stream as encoded wire frames
// (GET, EXECUTE with fill, and refresh invalidations, in stream order)
// to stdout; `relations` checks the TPC-D relation table.

#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "daemon.h"
#include "layers.h"
#include "server/client.h"
#include "server/protocol.h"
#include "stream.h"

namespace perfbench {
namespace {

using watchman::MultiplexedClient;
using watchman::Status;
using watchman::StatusOr;
using watchman::WatchmanClient;
using Clock = std::chrono::steady_clock;

/// GETs each pipelined connection keeps in flight.
constexpr size_t kPipelineWindow = 32;
/// Daemon spawns per run; setup_s is their median.
constexpr int kSetupReps = 5;
/// Sub-windows of an untraced run; the end-to-end timings are their
/// medians, so a disturbance of one sub-window does not move a run.
constexpr int kWindowSlices = 30;
/// Untraced/traced slice pairs of a traced run.
constexpr int kTraceSlices = 4;
/// Daemon worker threads. The run shares one CPU (PinToLastCpu), where
/// more workers only add scheduling noise.
constexpr size_t kWorkers = 2;
constexpr size_t kShards = 8;
constexpr const char* kPolicy = "lnc-ra(k=4)";

struct Workload {
  const char* name;
  /// Traces drawn from the seed; one per blocking connection.
  size_t traces;
  /// Pipelined GET connections over trace 0 (0 = blocking workload).
  size_t pipelined_connections;
};

/// hot_get_pipelined runs one pipelined connection: on the one CPU the
/// run shares, a second connection adds a sender and a reader thread
/// whose interleaving, not the program, sets the batch sizes.
constexpr Workload kWorkloads[] = {
    {"tpcd_serial", 1, 0},
    {"hot_get_pipelined", 1, 1},
    {"tpcd_concurrent", 3, 0},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool Pipelined(const Workload& w) { return w.pipelined_connections > 0; }

/// The client actions of `w` in the order one replayer issues them:
/// the prefill, then the traces interleaved round-robin, connection 0
/// sending a refresh every kRefreshEvery of its queries.
std::vector<Op> MakeOps(const Workload& w, const Stream& stream) {
  std::vector<Op> ops;
  if (Pipelined(w)) {
    for (uint32_t q = 0; q < stream.queries.size(); ++q) {
      ops.push_back({Op::kPrefill, q});
    }
  }
  const size_t length = stream.traces[0].size();
  for (size_t i = 0; i < length; ++i) {
    for (size_t c = 0; c < stream.traces.size(); ++c) {
      if (!Pipelined(w) && c == 0 && i > 0 && i % kRefreshEvery == 0) {
        ops.push_back({Op::kRefresh, 0});
      }
      ops.push_back({Op::kQuery, stream.traces[c][i]});
    }
  }
  return ops;
}

uint64_t CapacityFor(const Workload& w, const Stream& stream) {
  if (!Pipelined(w)) return OnePercentCapacity();
  // Hit-path ceiling: room for every distinct query twice over, so no
  // shard's share of the capacity ever forces an eviction.
  uint64_t bytes = 0;
  for (const Query& q : stream.queries) bytes += q.fill.size();
  return std::max<uint64_t>(2 * bytes, 1 << 20);
}

std::vector<std::string> DaemonArgs(uint64_t capacity) {
  return {"--policy=" + std::string(kPolicy),
          "--capacity=" + std::to_string(capacity),
          "--shards=" + std::to_string(kShards),
          "--workers=" + std::to_string(kWorkers),
          "--compact-idle=0",
          "--log-level=warn"};
}

WatchmanClient::Options ClientOptions(uint16_t port) {
  WatchmanClient::Options options;
  options.port = port;
  return options;
}

/// What one or more connections did during a pass.
struct PassResult {
  uint64_t queries = 0;
  uint64_t wire_requests = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Client-side accounting of the paper's ratios (cache_hit flags and
  /// the trace's costs).
  uint64_t acct_queries = 0;
  uint64_t acct_hits = 0;
  uint64_t acct_cost = 0;
  uint64_t acct_saved = 0;
  std::vector<uint32_t> query_ns;
  /// Client-call spans per request class (traced passes only).
  std::vector<uint32_t> rtt_ns[kNumRequestClasses];

  void Merge(const PassResult& o) {
    queries += o.queries;
    wire_requests += o.wire_requests;
    attempted += o.attempted;
    failed += o.failed;
    acct_queries += o.acct_queries;
    acct_hits += o.acct_hits;
    acct_cost += o.acct_cost;
    acct_saved += o.acct_saved;
    query_ns.insert(query_ns.end(), o.query_ns.begin(), o.query_ns.end());
    for (int c = 0; c < kNumRequestClasses; ++c) {
      rtt_ns[c].insert(rtt_ns[c].end(), o.rtt_ns[c].begin(),
                       o.rtt_ns[c].end());
    }
  }

  void Account(const Query& q, bool hit) {
    ++acct_queries;
    acct_cost += q.cost;
    if (hit) {
      ++acct_hits;
      acct_saved += q.cost;
    }
  }
};

uint32_t ElapsedNs(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint32_t>(std::min<int64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count(),
      UINT32_MAX));
}

/// Which stretch of a connection's trace a pass replays.
struct PassLimits {
  Clock::time_point deadline;
  /// Trace position each connection reaches even past the deadline.
  size_t min_position = 0;
  /// Trace positions below this count toward csr / hit_ratio on a
  /// blocking connection; a pipelined one counts every GET.
  size_t accounting_end = 0;
  bool traced = false;
};

/// One blocking connection replaying its trace with the RemoteWatchman
/// protocol: GET, and on a miss EXECUTE with the fill.
void RunBlocking(const Stream& stream, size_t conn, WatchmanClient& client,
                 size_t* position, const PassLimits& limits,
                 PassResult* out) {
  const std::vector<uint32_t>& trace = stream.traces[conn];
  for (size_t& i = *position;; ++i) {
    if (i >= limits.min_position && Clock::now() >= limits.deadline) {
      break;
    }
    if (conn == 0 && i > 0 && i % kRefreshEvery == 0) {
      for (const char* relation : kRefreshRelations) {
        const Clock::time_point t0 = Clock::now();
        const StatusOr<uint64_t> dropped = client.InvalidateRelation(relation);
        if (limits.traced) {
          out->rtt_ns[kReqInvalidate].push_back(ElapsedNs(t0, Clock::now()));
        }
        ++out->attempted;
        ++out->wire_requests;
        if (!dropped.ok()) ++out->failed;
      }
    }
    const Query& q = stream.queries[trace[i % trace.size()]];
    const Clock::time_point t0 = Clock::now();
    StatusOr<WatchmanClient::FetchResult> got = client.Get(q.text);
    const Clock::time_point t1 = Clock::now();
    ++out->wire_requests;
    bool ok = true;
    bool hit = false;
    Clock::time_point end = t1;
    if (got.ok()) {
      hit = true;
      ok = got->payload == q.fill;
      if (limits.traced) out->rtt_ns[kReqGetHit].push_back(ElapsedNs(t0, t1));
    } else if (got.status().code() == watchman::StatusCode::kNotFound) {
      StatusOr<WatchmanClient::FetchResult> filled =
          client.Execute(q.text, q.fill, q.cost, q.relations);
      end = Clock::now();
      ++out->wire_requests;
      ok = filled.ok() && filled->payload == q.fill;
      hit = filled.ok() && filled->cache_hit;
      if (limits.traced) {
        out->rtt_ns[kReqGetMiss].push_back(ElapsedNs(t0, t1));
        out->rtt_ns[kReqExecute].push_back(ElapsedNs(t1, end));
      }
    } else {
      ok = false;
    }
    ++out->queries;
    ++out->attempted;
    if (!ok) ++out->failed;
    out->query_ns.push_back(ElapsedNs(t0, end));
    if (i < limits.accounting_end) out->Account(q, hit);
  }
}

/// One multiplexed connection keeping kPipelineWindow GETs in flight,
/// in trace order. Every GET must hit and return the fill.
void RunPipelined(const Stream& stream, MultiplexedClient& client,
                  size_t* position, const PassLimits& limits,
                  PassResult* out) {
  struct Inflight {
    MultiplexedClient::Ticket ticket;
    uint32_t query;
    Clock::time_point start;
  };
  const std::vector<uint32_t>& trace = stream.traces[0];
  std::deque<Inflight> inflight;
  bool open = true;
  while (true) {
    while (open && inflight.size() < kPipelineWindow) {
      if (Clock::now() >= limits.deadline) {
        open = false;
        break;
      }
      const uint32_t q = trace[*position % trace.size()];
      ++*position;
      const Clock::time_point start = Clock::now();
      const StatusOr<MultiplexedClient::Ticket> ticket =
          client.StartGet(stream.queries[q].text);
      ++out->attempted;
      ++out->wire_requests;
      if (!ticket.ok()) {
        ++out->failed;
        open = false;
        break;
      }
      inflight.push_back({*ticket, q, start});
    }
    if (inflight.empty()) break;
    const Inflight call = inflight.front();
    inflight.pop_front();
    const StatusOr<watchman::WireResponse> reply = client.Await(call.ticket);
    const uint32_t ns = ElapsedNs(call.start, Clock::now());
    const Query& q = stream.queries[call.query];
    const bool ok = reply.ok() && reply->code == watchman::StatusCode::kOk &&
                    reply->cache_hit && reply->payload == q.fill;
    ++out->queries;
    if (!ok) ++out->failed;
    out->query_ns.push_back(ns);
    if (limits.traced) out->rtt_ns[kReqGetHit].push_back(ns);
    out->Account(q, ok);
  }
}

/// The connections of one run, kept across its passes.
struct Connections {
  std::vector<std::unique_ptr<WatchmanClient>> blocking;
  std::vector<std::unique_ptr<MultiplexedClient>> pipelined;
  std::vector<size_t> positions;
};

Status Connect(const Workload& w, const Stream& stream, uint16_t port,
               Connections* conns) {
  const WatchmanClient::Options options = ClientOptions(port);
  if (Pipelined(w)) {
    for (size_t c = 0; c < w.pipelined_connections; ++c) {
      StatusOr<std::unique_ptr<MultiplexedClient>> client =
          MultiplexedClient::Connect(options);
      if (!client.ok()) return client.status();
      conns->pipelined.push_back(std::move(*client));
      // Connections start at evenly spaced trace offsets.
      conns->positions.push_back(c * stream.traces[0].size() /
                                 w.pipelined_connections);
    }
  } else {
    for (size_t c = 0; c < w.traces; ++c) {
      StatusOr<std::unique_ptr<WatchmanClient>> client =
          WatchmanClient::Connect(options);
      if (!client.ok()) return client.status();
      conns->blocking.push_back(std::move(*client));
      conns->positions.push_back(0);
    }
  }
  return Status::OK();
}

/// Runs every connection on its own thread until `limits` are met.
PassResult RunPass(const Workload& w, const Stream& stream,
                   Connections* conns, const PassLimits& limits) {
  const size_t n = conns->positions.size();
  std::vector<PassResult> results(n);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      if (Pipelined(w)) {
        RunPipelined(stream, *conns->pipelined[c], &conns->positions[c],
                     limits, &results[c]);
      } else {
        RunBlocking(stream, c, *conns->blocking[c], &conns->positions[c],
                    limits, &results[c]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  PassResult total;
  for (const PassResult& r : results) total.Merge(r);
  return total;
}

/// Set-up EXECUTEs of every distinct query, then a check that all of
/// them were admitted.
Status Prefill(const Stream& stream, uint16_t port) {
  StatusOr<std::unique_ptr<WatchmanClient>> client =
      WatchmanClient::Connect(ClientOptions(port));
  if (!client.ok()) return client.status();
  for (const Query& q : stream.queries) {
    StatusOr<WatchmanClient::FetchResult> filled =
        (*client)->Execute(q.text, q.fill, q.cost, q.relations);
    if (!filled.ok()) return filled.status();
    if (filled->payload != q.fill) return Status::Internal("prefill echo");
  }
  StatusOr<watchman::WireStats> stats = (*client)->Stats();
  if (!stats.ok()) return stats.status();
  if (stats->entry_count != stream.queries.size()) {
    return Status::Internal(
        "prefill cached " + std::to_string(stats->entry_count) + " of " +
        std::to_string(stream.queries.size()) + " queries");
  }
  return Status::OK();
}

double Percentile(std::vector<uint32_t> values, double q) {
  if (values.empty()) return 0;
  const size_t k = std::min(values.size() - 1,
                            static_cast<size_t>(q * values.size()));
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k] / 1000.0;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double CpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream(path) << text;
}

/// One JSON object, built field by field.
class Json {
 public:
  Json& Num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return Raw(key, buf);
  }
  Json& Int(const char* key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
        quoted += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        quoted += ' ';
      } else {
        quoted += c;
      }
    }
    return Raw(key, quoted + "\"");
  }
  Json& Raw(const char* key, const std::string& v) {
    text_ += text_.empty() ? "{" : ",";
    text_ += "\"" + std::string(key) + "\":" + v;
    return *this;
  }
  std::string Done() const { return text_.empty() ? "{}" : text_ + "}"; }

 private:
  std::string text_;
};

std::string PassJson(const PassResult& r, double window_s) {
  Json j;
  j.Num("window_s", window_s)
      .Int("queries", r.queries)
      .Int("wire_requests", r.wire_requests)
      .Int("attempted", r.attempted)
      .Int("failed", r.failed)
      .Num("query_p50_us", Percentile(r.query_ns, 0.5))
      .Num("query_p99_us", Percentile(r.query_ns, 0.99))
      .Int("acct_queries", r.acct_queries)
      .Int("acct_hits", r.acct_hits)
      .Int("acct_cost", r.acct_cost)
      .Int("acct_saved", r.acct_saved);
  auto rtt = [](const std::vector<uint32_t>& ns) {
    Json j;
    j.Int("count", ns.size())
        .Num("p50_us", Percentile(ns, 0.5))
        .Num("p99_us", Percentile(ns, 0.99));
    return j.Done();
  };
  static const char* const kRtt[kNumRequestClasses] = {
      "get_hit", "get_miss", "execute", "invalidate_relation"};
  for (int c = 0; c < kNumRequestClasses; ++c) {
    j.Raw(kRtt[c], rtt(r.rtt_ns[c]));
  }
  std::vector<uint32_t> gets = r.rtt_ns[kReqGetHit];
  gets.insert(gets.end(), r.rtt_ns[kReqGetMiss].begin(),
              r.rtt_ns[kReqGetMiss].end());
  j.Raw("get", rtt(gets));
  return j.Done();
}

std::string LayersJson(const LayerReport& r) {
  Json p50;
  for (int k = 0; k < kNumSpanKinds; ++k) {
    p50.Num(SpanKindName(static_cast<SpanKind>(k)), r.p50_ns[k]);
  }
  Json classes;
  for (int c = 0; c < kNumRequestClasses; ++c) {
    Json cls;
    for (int k = 0; k < kNumSpanKinds; ++k) {
      cls.Num(SpanKindName(static_cast<SpanKind>(k)), r.p50_by_class[c][k]);
    }
    classes.Raw(SpanKindName(static_cast<SpanKind>(c)), cls.Done());
  }
  Json j;
  j.Raw("p50_ns", p50.Done())
      .Raw("p50_ns_by_class", classes.Done())
      .Int("window_requests", r.window_requests)
      .Int("wire_bytes", r.wire_bytes)
      .Int("store_bytes", r.store_bytes)
      .Num("layer_sum_us", r.layer_sum_us)
      .Num("clock_overhead_ns", r.clock_overhead_ns)
      .Int("wrong_payloads", r.wrong_payloads);
  return j.Done();
}

std::string Kernel() {
  utsname u{};
  return ::uname(&u) == 0 ? u.release : "unknown";
}

struct RunArgs {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string watchmand;
  std::string out;
};

/// Writes the daemon's /metrics body to `path` (empty on failure).
void ScrapeTo(const Daemon& daemon, const std::string& path) {
  const StatusOr<std::string> metrics = daemon.ScrapeMetrics();
  WriteFile(path, metrics.ok() ? *metrics : "");
}

/// STATS lookups, or 0 when the daemon does not answer.
uint64_t Lookups(WatchmanClient& control) {
  StatusOr<watchman::WireStats> stats = control.Stats();
  return stats.ok() ? stats->lookups : 0;
}

/// Pins this process, and so the daemon it spawns, to the last CPU it
/// may run on: a closed-loop request that wakes a thread on another,
/// idle virtual CPU pays the hypervisor's wake-up latency, which varies
/// from run to run far more than the program's own cost. Returns the
/// CPU, or -1 when the affinity calls fail.
int PinToLastCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) last = cpu;
  }
  if (last < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0 ? last : -1;
}

int Run(const RunArgs& args) {
  const Workload& w = *args.workload;
  const int cpu = PinToLastCpu();
  const Stream stream = MakeStream(args.seed, w.traces, kTraceQueries);
  const uint64_t capacity = CapacityFor(w, stream);
  const std::vector<std::string> daemon_args = DaemonArgs(capacity);
  const std::string log_path = args.out + "/daemon.log";

  // Set-up: spawn to ready (plus the prefill), kSetupReps times; the
  // last daemon serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    if (daemon) {
      const Status stopped = daemon->Stop();
      if (!stopped.ok()) {
        std::fprintf(stderr, "%s\n", stopped.ToString().c_str());
        return 1;
      }
    }
    const Clock::time_point t0 = Clock::now();
    StatusOr<std::unique_ptr<Daemon>> spawned =
        Daemon::Spawn(args.watchmand, daemon_args, log_path);
    if (!spawned.ok()) {
      std::fprintf(stderr, "%s\n", spawned.status().ToString().c_str());
      return 1;
    }
    daemon = std::move(*spawned);
    if (Pipelined(w)) {
      const Status filled = Prefill(stream, daemon->port());
      if (!filled.ok()) {
        std::fprintf(stderr, "prefill: %s\n", filled.ToString().c_str());
        return 1;
      }
    }
    setup_s.push_back(Seconds(Clock::now() - t0));
  }

  Connections conns;
  StatusOr<std::unique_ptr<WatchmanClient>> control =
      WatchmanClient::Connect(ClientOptions(daemon->port()));
  Status connected = control.ok() ? Connect(w, stream, daemon->port(), &conns)
                                  : control.status();
  if (!connected.ok()) {
    std::fprintf(stderr, "connect: %s\n", connected.ToString().c_str());
    return 1;
  }

  Json out;
  out.Str("workload", w.name)
      .Int("seed", args.seed)
      .Int("trace", args.trace ? 1 : 0)
      .Str("daemon_args", [&] {
        std::string joined;
        for (const std::string& a : daemon_args) joined += a + " ";
        return joined + "--port=0 --admin-port=0";
      }())
      .Str("startup_line", daemon->startup_line())
      .Str("backend", daemon->backend())
      .Str("compiler", PERFBENCH_COMPILER)
      .Str("cxx_flags", PERFBENCH_CXX_FLAGS)
      .Str("kernel", Kernel())
      .Int("nproc", static_cast<uint64_t>(::sysconf(_SC_NPROCESSORS_ONLN)))
      .Raw("cpu", std::to_string(cpu));
  std::string setup_list;
  for (double s : setup_s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.9g", setup_list.empty() ? "" : ",",
                  s);
    setup_list += buf;
  }
  out.Raw("setup_s", "[" + setup_list + "]");

  // Untraced runs measure kWindowSlices sub-windows; by the end of the
  // last one each TPC-D connection has also completed its first trace,
  // so csr and hit_ratio cover the paper's 17,000 queries. Traced runs
  // alternate untraced and traced slices on one daemon, so warm-up and
  // drift fall on both alike. The daemon's schedstat is snapshotted
  // around every slice (schedstat_<i>.txt).
  const bool tpcd = !Pipelined(w);
  const int slices = args.trace ? 2 * kTraceSlices : kWindowSlices;
  const double slice_s = args.seconds / slices;
  PassLimits limits;
  limits.accounting_end = tpcd ? kTraceQueries : SIZE_MAX;
  PassResult untraced;
  PassResult traced;
  std::string untraced_slices;
  double untraced_s = 0;
  double traced_s = 0;
  double client_cpu_s = 0;
  if (args.trace) ScrapeTo(*daemon, args.out + "/metrics_start.txt");
  const uint64_t lookups = Lookups(**control);
  WriteFile(args.out + "/schedstat_0.txt", daemon->SchedstatText());
  for (int i = 0; i < slices; ++i) {
    limits.traced = args.trace && i % 2 == 1;
    limits.min_position =
        tpcd && !args.trace && i == slices - 1 ? kTraceQueries : 0;
    const double cpu = CpuSeconds();
    const Clock::time_point start = Clock::now();
    limits.deadline = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(slice_s));
    const PassResult slice = RunPass(w, stream, &conns, limits);
    const double elapsed = Seconds(Clock::now() - start);
    WriteFile(args.out + "/schedstat_" + std::to_string(i + 1) + ".txt",
              daemon->SchedstatText());
    if (limits.traced) {
      traced.Merge(slice);
      traced_s += elapsed;
    } else {
      untraced.Merge(slice);
      untraced_s += elapsed;
      client_cpu_s += CpuSeconds() - cpu;
      untraced_slices += (untraced_slices.empty() ? "" : ",") +
                         PassJson(slice, elapsed);
    }
  }
  out.Int("lookups_delta", Lookups(**control) - lookups)
      .Int("slices", static_cast<uint64_t>(slices))
      .Raw("untraced", PassJson(untraced, untraced_s))
      .Raw("untraced_slices", "[" + untraced_slices + "]")
      .Num("client_cpu_s", client_cpu_s);
  if (args.trace) {
    ScrapeTo(*daemon, args.out + "/metrics_end.txt");
    out.Raw("traced", PassJson(traced, traced_s));
  }
  out.Int("peak_rss_kib", daemon->PeakRssKib());
  conns = Connections{};
  control->reset();
  const Status stopped = daemon->Stop();
  if (!stopped.ok()) {
    std::fprintf(stderr, "%s\n", stopped.ToString().c_str());
    return 1;
  }

  if (args.trace) {
    LayerConfig config;
    config.policy = kPolicy;
    config.capacity_bytes = capacity;
    config.shards = kShards;
    config.threads = kWorkers;
    const LayerReport layers = ReplayLayers(stream, MakeOps(w, stream), config,
                                            args.out + "/spans.csv");
    out.Raw("layers", LayersJson(layers));
  }
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

/// Encoded request stream of `w` for `seed`: every GET and fill
/// EXECUTE a replay can send, and the refreshes, in stream order.
int Dump(const Workload& w, uint64_t seed, size_t queries) {
  const Stream stream = MakeStream(seed, w.traces, queries);
  std::string wire;
  uint64_t id = 0;
  for (const Op& op : MakeOps(w, stream)) {
    watchman::WireRequest request;
    request.request_id = ++id;
    if (op.kind == Op::kRefresh) {
      request.op = watchman::OpCode::kInvalidateRelation;
      for (const char* relation : kRefreshRelations) {
        request.relation = relation;
        watchman::AppendRequest(request, &wire);
      }
      continue;
    }
    const Query& q = stream.queries[op.query];
    request.query_text = q.text;
    if (op.kind == Op::kQuery) {
      request.op = watchman::OpCode::kGet;
      watchman::AppendRequest(request, &wire);
    }
    request.op = watchman::OpCode::kExecute;
    request.has_fill = true;
    request.fill_payload = q.fill;
    request.fill_cost = q.cost;
    request.fill_relations = q.relations;
    watchman::AppendRequest(request, &wire);
  }
  std::fwrite(wire.data(), 1, wire.size(), stdout);
  return 0;
}

/// Prints each TPC-D template with the relations it reads; fails when
/// the table misses one.
int Relations() {
  int missing = 0;
  for (const std::string& name : TpcdTemplateNames()) {
    const std::vector<std::string>* relations = TemplateRelations(name);
    std::string list;
    for (const std::string& r : relations ? *relations
                                          : std::vector<std::string>{}) {
      list += (list.empty() ? "" : ",") + r;
    }
    std::printf("%s %s\n", name.c_str(), relations ? list.c_str() : "MISSING");
    missing += relations == nullptr;
  }
  return missing == 0 ? 0 : 1;
}

bool Flag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.compare(0, prefix.size(), prefix) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s run|dump|relations [flags]\n", argv[0]);
    return 2;
  }
  const std::string mode = argv[1];
  RunArgs args;
  size_t dump_queries = kTraceQueries;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (Flag(arg, "workload", &v)) {
      args.workload = FindWorkload(v);
      if (args.workload == nullptr) {
        std::fprintf(stderr, "unknown workload %s\n", v.c_str());
        return 2;
      }
    } else if (Flag(arg, "seed", &v)) {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(arg, "seconds", &v)) {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (Flag(arg, "trace", &v)) {
      args.trace = v == "1";
    } else if (Flag(arg, "watchmand", &v)) {
      args.watchmand = v;
    } else if (Flag(arg, "out", &v)) {
      args.out = v;
    } else if (Flag(arg, "queries", &v)) {
      dump_queries = std::strtoull(v.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (mode == "relations") return Relations();
  if (args.workload == nullptr) {
    std::fprintf(stderr, "--workload is required\n");
    return 2;
  }
  if (mode == "dump") return Dump(*args.workload, args.seed, dump_queries);
  if (mode == "run" && args.seconds > 0 && !args.watchmand.empty() &&
      !args.out.empty()) {
    return Run(args);
  }
  std::fprintf(stderr, "run needs --seconds, --watchmand and --out\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
