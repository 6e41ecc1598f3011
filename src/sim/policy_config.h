// Policy configuration and factory: the single place that knows how to
// construct every cache policy the experiments compare.

#ifndef WATCHMAN_SIM_POLICY_CONFIG_H_
#define WATCHMAN_SIM_POLICY_CONFIG_H_

#include <memory>
#include <string>

#include "cache/query_cache.h"
#include "cache/sharded_query_cache.h"
#include "util/clock.h"
#include "util/status.h"

namespace watchman {

/// The cache policies available to experiments.
enum class PolicyKind {
  kLru,       // vanilla LRU (paper baseline)
  kLruK,      // LRU-K [OOW93]
  kLfu,       // least frequently used
  kLcs,       // largest cached set first (ADMS)
  kGds,       // GreedyDual-Size (post-paper baseline)
  kLncR,      // paper: replacement only
  kLncRA,     // paper: replacement + admission
  kInfinite,  // unbounded cache (upper bound "inf" in the figures)
};

/// Parsed policy configuration.
struct PolicyConfig {
  PolicyKind kind = PolicyKind::kLru;
  /// History depth K for kLruK / kLncR / kLncRA.
  size_t k = 4;
  /// Retained reference information on eviction/rejection.
  bool retain_reference_info = true;
  /// LNC aging period (0 = exact decision-time profits).
  Duration aging_period = 0;
};

/// Human-readable name ("lru", "lru-2", "lnc-ra(k=4)", ...).
std::string PolicyName(const PolicyConfig& config);

/// Constructs the cache. For kInfinite, `capacity_bytes` is ignored and
/// an effectively unbounded LRU is returned.
std::unique_ptr<QueryCache> MakeCache(const PolicyConfig& config,
                                      uint64_t capacity_bytes);

/// Constructs a thread-safe sharded front-end running `config` on every
/// shard (the factory the Watchman facade and the concurrency benches
/// use). `num_shards` is normalized to a power of two.
std::unique_ptr<ShardedQueryCache> MakeShardedCache(
    const PolicyConfig& config, uint64_t capacity_bytes, size_t num_shards);

/// Parses a policy name: "lru", "lru-k", "lfu", "lcs", "gds", "lnc-r",
/// "lnc-ra", "inf", plus the parameterized forms PolicyName() emits --
/// "lru-<k>", "lnc-r(k=<k>)", "lnc-ra(k=<k>)" with k in [1, 999999] --
/// so ParsePolicy(PolicyName(c)) round-trips. Malformed or out-of-range
/// k values are InvalidArgument.
StatusOr<PolicyConfig> ParsePolicy(const std::string& name);

}  // namespace watchman

#endif  // WATCHMAN_SIM_POLICY_CONFIG_H_
