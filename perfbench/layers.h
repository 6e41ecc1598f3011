// The traced in-process replay: the workload's own request stream sent
// through the public call of each layer watchmand stacks on a request
// (protocol codec, key derivation, facade, sharded cache, payload
// store), with one span per call. The daemon is not involved; the
// loopback passes give the end-to-end numbers these spans explain.

#ifndef WATCHMAN_PERFBENCH_LAYERS_H_
#define WATCHMAN_PERFBENCH_LAYERS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stream.h"

namespace perfbench {

/// One client action of the workload, in the order a replay issues it.
struct Op {
  enum Kind : uint8_t {
    kQuery,    // GET, then EXECUTE with the fill on a miss
    kPrefill,  // set-up EXECUTE with the fill (outside the timed window)
    kRefresh,  // INVALIDATE_RELATION of every kRefreshRelations entry
  };
  Kind kind = kQuery;
  uint32_t query = 0;  // index into Stream::queries (kQuery, kPrefill)
};

/// Span kinds. The first four are request roots; every other span's
/// parent is its request's root, except cache and payload-store spans,
/// whose parent is the facade call that performs the same work inside
/// the daemon.
enum SpanKind : uint8_t {
  kReqGetHit,
  kReqGetMiss,
  kReqExecute,
  kReqInvalidate,
  kEncodeRequest,
  kDecodeRequest,
  kEncodeResponse,
  kDecodeResponse,
  kCompress,
  kSignature,
  kFacadeGetHit,
  kFacadeGetMiss,
  kFacadeExecuteFill,
  kFacadeInvalidateRelation,
  kCacheHit,
  kCacheMiss,
  kStoreGet,
  kStorePut,
  kNumSpanKinds,
};

inline constexpr int kNumRequestClasses = 4;

const char* SpanKindName(SpanKind kind);

struct LayerConfig {
  std::string policy;
  uint64_t capacity_bytes = 0;
  size_t shards = 0;
  /// Threads replaying the cache replica (the daemon's worker count).
  size_t threads = 1;
};

struct LayerReport {
  /// Median span duration per kind, in ns, clock overhead removed; 0
  /// for kinds with no span. `p50_by_class` restricts to spans whose
  /// request root is class c (kReqGetHit..kReqInvalidate).
  double p50_ns[kNumSpanKinds] = {};
  double p50_by_class[kNumRequestClasses][kNumSpanKinds] = {};
  /// Wire requests of the timed window (set-up prefills excluded).
  uint64_t window_requests = 0;
  /// Request + response frame bytes, and payload bytes copied into and
  /// out of the store, over the window requests.
  uint64_t wire_bytes = 0;
  uint64_t store_bytes = 0;
  /// Mean server-side in-process time (request decode, facade call,
  /// response encode) per window request, in us.
  double layer_sum_us = 0;
  double clock_overhead_ns = 0;
  /// Responses whose payload differs from the generated fill.
  uint64_t wrong_payloads = 0;
};

/// Replays `ops` and writes every span to `spans_path` (CSV) at the end.
LayerReport ReplayLayers(const Stream& stream, const std::vector<Op>& ops,
                         const LayerConfig& config,
                         const std::string& spans_path);

}  // namespace perfbench

#endif  // WATCHMAN_PERFBENCH_LAYERS_H_
