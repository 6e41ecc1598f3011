#include "layers.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "server/protocol.h"
#include "sim/policy_config.h"
#include "util/hash.h"
#include "util/string_util.h"
#include "watchman/payload_store.h"
#include "watchman/watchman.h"

namespace perfbench {

using watchman::OpCode;
using watchman::Status;
using watchman::StatusOr;
using watchman::WireRequest;
using watchman::WireResponse;

const char* SpanKindName(SpanKind kind) {
  static const char* const kNames[kNumSpanKinds] = {
      "request.get_hit",
      "request.get_miss",
      "request.execute",
      "request.invalidate_relation",
      "protocol.encode_request",
      "protocol.decode_request",
      "protocol.encode_response",
      "protocol.decode_response",
      "keys.compress",
      "keys.signature",
      "facade.get_hit",
      "facade.get_miss",
      "facade.execute_fill",
      "facade.invalidate_relation",
      "cache.hit",
      "cache.miss",
      "payload_store.get",
      "payload_store.put",
  };
  return kind < kNumSpanKinds ? kNames[kind] : "root";
}

namespace {

using Clock = std::chrono::steady_clock;

/// Replays per traced run; the fastest one is reported.
constexpr int kReplayPasses = 3;

/// Parent placeholder of a child span until its request's root class
/// is known; also the parent recorded for root spans.
constexpr uint8_t kRoot = kNumSpanKinds;

struct Span {
  uint32_t request = 0;
  uint8_t kind = 0;
  uint8_t parent = kRoot;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Spans in memory, one vector per recording thread.
class Recorder {
 public:
  explicit Recorder(Clock::time_point origin) : origin_(origin) {
    spans_.reserve(1 << 18);
  }
  uint64_t Now() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             origin_)
            .count());
  }
  void Add(uint32_t request, uint8_t kind, uint8_t parent, uint64_t start,
           uint64_t end) {
    spans_.push_back(Span{request, kind, parent, start, end});
  }
  std::vector<Span>& spans() { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// The fill the facade's executor returns, staged per call exactly like
/// the daemon stages a client's EXECUTE fill.
thread_local const Query* t_fill = nullptr;

double Median(std::vector<double>* values) {
  if (values->empty()) return 0;
  auto mid = values->begin() + static_cast<std::ptrdiff_t>(values->size() / 2);
  std::nth_element(values->begin(), mid, values->end());
  return *mid;
}

/// Median cost of one back-to-back clock read pair.
double ClockOverheadNs(const Recorder& rec) {
  std::vector<double> samples(10001);
  for (double& sample : samples) {
    const uint64_t a = rec.Now();
    const uint64_t b = rec.Now();
    sample = static_cast<double>(b - a);
  }
  return Median(&samples);
}

/// The daemon's share of a request: decoding it, the facade call (key
/// derivation, cache and payload store included) and encoding the
/// reply. Encoding the request and decoding the reply are client work.
bool IsServerSide(uint8_t kind) {
  return kind == kDecodeRequest || kind == kEncodeResponse ||
         (kind >= kFacadeGetHit && kind <= kFacadeInvalidateRelation);
}

class Replayer {
 public:
  Replayer(const LayerConfig& config, const watchman::PolicyConfig& policy,
           Clock::time_point origin)
      : facade_(MakeFacadeOptions(config, policy), &FillExecutor),
        rec_(origin) {}

  /// One wire request through the codec, the key derivation and the
  /// facade. Returns the decoded response.
  StatusOr<WireResponse> Send(const WireRequest& request, const Query* query,
                              bool window, uint32_t* id_out) {
    const uint32_t id = next_request_++;
    *id_out = id;
    const size_t first_span = rec_.spans().size();
    const uint64_t root_start = rec_.Now();
    uint64_t t0 = rec_.Now();
    wire_.clear();
    watchman::AppendRequest(request, &wire_);
    uint64_t t1 = rec_.Now();
    rec_.Add(id, kEncodeRequest, kRoot, t0, t1);
    uint64_t bytes = wire_.size();

    t0 = rec_.Now();
    std::string_view body;
    size_t frame_size = 0;
    const StatusOr<bool> framed = watchman::ExtractFrame(
        wire_, watchman::kDefaultMaxFrameBytes, &body, &frame_size);
    const Status decoded = framed.ok() && *framed
                               ? watchman::DecodeRequestInto(body, &decoded_)
                               : Status::Corruption("request frame");
    t1 = rec_.Now();
    rec_.Add(id, kDecodeRequest, kRoot, t0, t1);
    if (!decoded.ok()) return decoded;

    if (!decoded_.query_text.empty()) {
      t0 = rec_.Now();
      watchman::CompressQueryIdInto(decoded_.query_text, &query_id_);
      t1 = rec_.Now();
      const watchman::Signature signature =
          watchman::ComputeSignature(query_id_);
      const uint64_t t2 = rec_.Now();
      signature_sink_ ^= signature.value;
      rec_.Add(id, kCompress, kRoot, t0, t1);
      rec_.Add(id, kSignature, kRoot, t1, t2);
    }

    response_.Reset(decoded_.op);
    response_.request_id = decoded_.request_id;
    const uint8_t request_class = Serve(id, query, window);

    t0 = rec_.Now();
    wire_.clear();
    watchman::AppendResponse(response_, &wire_);
    t1 = rec_.Now();
    rec_.Add(id, kEncodeResponse, kRoot, t0, t1);
    bytes += wire_.size();

    t0 = rec_.Now();
    StatusOr<WireResponse> reply = Status::Corruption("response frame");
    const StatusOr<bool> reply_framed = watchman::ExtractFrame(
        wire_, watchman::kDefaultMaxFrameBytes, &body, &frame_size);
    if (reply_framed.ok() && *reply_framed) {
      reply = watchman::DecodeResponse(body);
    }
    t1 = rec_.Now();
    rec_.Add(id, kDecodeResponse, kRoot, t0, t1);
    rec_.Add(id, request_class, kRoot, root_start, rec_.Now());

    std::vector<Span>& spans = rec_.spans();
    for (size_t i = first_span; i + 1 < spans.size(); ++i) {
      if (spans[i].parent == kRoot) spans[i].parent = request_class;
    }
    request_class_.push_back(request_class);
    window_.push_back(window);
    if (window) {
      ++report_.window_requests;
      report_.wire_bytes += bytes;
    }
    return reply;
  }

  void RunQuery(const Query& query, bool prefill, uint32_t* get_id) {
    WireRequest request;
    uint32_t id = 0;
    if (!prefill) {
      request.op = OpCode::kGet;
      request.request_id = next_request_;
      request.query_text = query.text;
      StatusOr<WireResponse> got = Send(request, &query, true, &id);
      *get_id = id;
      if (got.ok() && got->code == watchman::StatusCode::kOk) {
        if (got->payload != query.fill) ++report_.wrong_payloads;
        return;
      }
    }
    request = WireRequest{};
    request.op = OpCode::kExecute;
    request.request_id = next_request_;
    request.query_text = query.text;
    request.has_fill = true;
    request.fill_payload = query.fill;
    request.fill_cost = query.cost;
    request.fill_relations = query.relations;
    StatusOr<WireResponse> filled = Send(request, &query, !prefill, &id);
    if (prefill) *get_id = id;
    if (!filled.ok() || filled->code != watchman::StatusCode::kOk ||
        filled->payload != query.fill) {
      ++report_.wrong_payloads;
    }
  }

  void Refresh() {
    for (const char* relation : kRefreshRelations) {
      WireRequest request;
      request.op = OpCode::kInvalidateRelation;
      request.request_id = next_request_;
      request.relation = relation;
      uint32_t id = 0;
      const StatusOr<WireResponse> reply = Send(request, nullptr, true, &id);
      if (!reply.ok() || reply->code != watchman::StatusCode::kOk) {
        ++report_.wrong_payloads;
      }
    }
  }

  Recorder& recorder() { return rec_; }
  LayerReport& report() { return report_; }
  const std::vector<uint8_t>& request_class() const { return request_class_; }
  const std::vector<bool>& window() const { return window_; }

 private:
  static watchman::Watchman::Options MakeFacadeOptions(
      const LayerConfig& config, const watchman::PolicyConfig& policy) {
    watchman::Watchman::Options options;
    options.capacity_bytes = config.capacity_bytes;
    options.policy = policy;
    options.num_shards = config.shards;
    return options;
  }

  static StatusOr<watchman::Watchman::ExecutionResult> FillExecutor(
      const std::string& query_text) {
    if (t_fill == nullptr) return Status::NotFound("no fill: " + query_text);
    watchman::Watchman::ExecutionResult result;
    result.payload = t_fill->fill;
    result.cost = t_fill->cost;
    result.relations = t_fill->relations;
    return result;
  }

  /// The facade call of the decoded request, plus the payload-store
  /// call the facade makes for it. Returns the request's class.
  uint8_t Serve(uint32_t id, const Query* query, bool window) {
    uint64_t t0 = rec_.Now();
    switch (decoded_.op) {
      case OpCode::kGet: {
        const Status status =
            facade_.GetCachedInto(decoded_.query_text, &response_.payload);
        const uint64_t t1 = rec_.Now();
        if (!status.ok()) {
          response_.code = status.code();
          response_.message = status.message();
          rec_.Add(id, kFacadeGetMiss, kRoot, t0, t1);
          return kReqGetMiss;
        }
        response_.cache_hit = true;
        rec_.Add(id, kFacadeGetHit, kRoot, t0, t1);
        t0 = rec_.Now();
        store_.GetInto(query_id_, &store_scratch_);
        rec_.Add(id, kStoreGet, kFacadeGetHit, t0, rec_.Now());
        if (window) report_.store_bytes += store_scratch_.size();
        return kReqGetHit;
      }
      case OpCode::kExecute: {
        t_fill = query;
        StatusOr<std::string> payload = facade_.Execute(decoded_.query_text);
        t_fill = nullptr;
        rec_.Add(id, kFacadeExecuteFill, kRoot, t0, rec_.Now());
        if (payload.ok()) {
          response_.payload = std::move(*payload);
        } else {
          response_.code = payload.status().code();
          response_.message = payload.status().message();
        }
        if (facade_.IsCached(decoded_.query_text)) {
          t0 = rec_.Now();
          store_.Put(query_id_, decoded_.fill_payload);
          rec_.Add(id, kStorePut, kFacadeExecuteFill, t0, rec_.Now());
          if (window) report_.store_bytes += decoded_.fill_payload.size();
        }
        return kReqExecute;
      }
      default: {
        response_.dropped = facade_.InvalidateRelation(decoded_.relation);
        rec_.Add(id, kFacadeInvalidateRelation, kRoot, t0, rec_.Now());
        return kReqInvalidate;
      }
    }
  }

  watchman::Watchman facade_;
  watchman::MemoryPayloadStore store_;
  Recorder rec_;
  LayerReport report_;
  uint32_t next_request_ = 0;
  std::string wire_;
  std::string query_id_;
  std::string store_scratch_;
  WireRequest decoded_;
  WireResponse response_;
  /// Consumes every timed signature so the call cannot be elided.
  uint64_t signature_sink_ = 0;
  std::vector<uint8_t> request_class_;
  std::vector<bool> window_;
};

/// Replays the queries of `ops` against a replica of the daemon's
/// sharded cache with `threads` threads (prefills first, on one
/// thread), recording cache.hit / cache.miss spans.
std::vector<Span> ReplayCache(const Stream& stream, const std::vector<Op>& ops,
                              const std::vector<uint32_t>& op_request,
                              const LayerConfig& config,
                              const watchman::PolicyConfig& policy,
                              Clock::time_point origin) {
  std::vector<watchman::QueryDescriptor> descriptors;
  descriptors.reserve(stream.queries.size());
  for (const Query& query : stream.queries) {
    descriptors.push_back(watchman::QueryDescriptor::Make(
        watchman::CompressQueryId(query.text), query.fill.size(), query.cost));
  }
  std::unique_ptr<watchman::ShardedQueryCache> cache =
      watchman::MakeShardedCache(policy, config.capacity_bytes, config.shards);
  std::atomic<watchman::Timestamp> tick{0};

  Recorder prefill(origin);
  std::vector<size_t> queries;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == Op::kPrefill) {
      const uint64_t t0 = prefill.Now();
      cache->Reference(descriptors[ops[i].query], ++tick);
      prefill.Add(op_request[i], kCacheMiss, kFacadeExecuteFill, t0,
                  prefill.Now());
    } else if (ops[i].kind == Op::kQuery) {
      queries.push_back(i);
    }
  }

  const size_t threads = std::max<size_t>(1, config.threads);
  std::vector<std::unique_ptr<Recorder>> recorders;
  for (size_t t = 0; t < threads; ++t) {
    recorders.push_back(std::make_unique<Recorder>(origin));
  }
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Recorder& rec = *recorders[t];
      for (size_t j = t; j < queries.size(); j += threads) {
        const size_t i = queries[j];
        const watchman::QueryDescriptor& d = descriptors[ops[i].query];
        const uint64_t t0 = rec.Now();
        if (cache->TryReferenceCached(d, ++tick)) {
          rec.Add(op_request[i], kCacheHit, kFacadeGetHit, t0, rec.Now());
        } else {
          cache->Reference(d, ++tick);
          rec.Add(op_request[i], kCacheMiss, kFacadeGetMiss, t0, rec.Now());
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  std::vector<Span> spans = std::move(prefill.spans());
  for (const auto& rec : recorders) {
    spans.insert(spans.end(), rec->spans().begin(), rec->spans().end());
  }
  return spans;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out, "request,span,parent,start_ns,end_ns\n");
  for (const Span& span : spans) {
    std::fprintf(out, "%u,%s,%s,%llu,%llu\n", span.request,
                 SpanKindName(static_cast<SpanKind>(span.kind)),
                 SpanKindName(static_cast<SpanKind>(span.parent)),
                 static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns));
  }
  std::fclose(out);
}

/// One replay of `ops` on a fresh facade, cache replica and store.
LayerReport ReplayOnce(const Stream& stream, const std::vector<Op>& ops,
                       const LayerConfig& config,
                       const watchman::PolicyConfig& policy,
                       std::vector<Span>* spans_out) {
  const Clock::time_point origin = Clock::now();
  Replayer replayer(config, policy, origin);
  std::vector<uint32_t> op_request(ops.size(), 0);
  for (size_t i = 0; i < ops.size(); ++i) {
    switch (ops[i].kind) {
      case Op::kQuery:
      case Op::kPrefill:
        replayer.RunQuery(stream.queries[ops[i].query],
                          ops[i].kind == Op::kPrefill, &op_request[i]);
        break;
      case Op::kRefresh:
        replayer.Refresh();
        break;
    }
  }
  std::vector<Span>& spans = *spans_out;
  spans = std::move(replayer.recorder().spans());
  const std::vector<Span> cache_spans =
      ReplayCache(stream, ops, op_request, config, policy, origin);
  spans.insert(spans.end(), cache_spans.begin(), cache_spans.end());

  LayerReport report = replayer.report();
  report.clock_overhead_ns = ClockOverheadNs(replayer.recorder());
  const std::vector<uint8_t>& request_class = replayer.request_class();
  const std::vector<bool>& window = replayer.window();
  std::vector<double> all[kNumSpanKinds];
  std::vector<double> by_class[kNumRequestClasses][kNumSpanKinds];
  double window_layer_ns = 0;
  for (const Span& span : spans) {
    const double ns = std::max(
        0.0, static_cast<double>(span.end_ns - span.start_ns) -
                 report.clock_overhead_ns);
    all[span.kind].push_back(ns);
    const uint8_t cls = request_class[span.request];
    by_class[cls][span.kind].push_back(ns);
    if (window[span.request] && span.parent < kNumRequestClasses &&
        IsServerSide(span.kind)) {
      window_layer_ns += ns;
    }
  }
  for (int kind = 0; kind < kNumSpanKinds; ++kind) {
    report.p50_ns[kind] = Median(&all[kind]);
    for (int cls = 0; cls < kNumRequestClasses; ++cls) {
      report.p50_by_class[cls][kind] = Median(&by_class[cls][kind]);
    }
  }
  if (report.window_requests > 0) {
    report.layer_sum_us = window_layer_ns /
                          static_cast<double>(report.window_requests) / 1000.0;
  }
  return report;
}

}  // namespace

LayerReport ReplayLayers(const Stream& stream, const std::vector<Op>& ops,
                         const LayerConfig& config,
                         const std::string& spans_path) {
  StatusOr<watchman::PolicyConfig> policy =
      watchman::ParsePolicy(config.policy);
  if (!policy.ok()) {
    std::fprintf(stderr, "bad policy %s\n", config.policy.c_str());
    std::abort();
  }
  // The fastest of kReplayPasses replays: interference from outside the
  // process only ever slows a replay down.
  LayerReport best;
  std::vector<Span> best_spans;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    std::vector<Span> spans;
    const LayerReport report = ReplayOnce(stream, ops, config, *policy, &spans);
    if (pass == 0 || report.layer_sum_us < best.layer_sum_us) {
      best = report;
      best_spans = std::move(spans);
    }
  }
  WriteSpans(spans_path, best_spans);
  return best;
}

}  // namespace perfbench
