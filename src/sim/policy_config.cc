#include "sim/policy_config.h"

#include <optional>
#include <string_view>

#include "cache/gds_cache.h"
#include "cache/lcs_cache.h"
#include "cache/lfu_cache.h"
#include "cache/lnc_cache.h"
#include "cache/lru_cache.h"
#include "cache/lru_k_cache.h"

namespace watchman {

std::string PolicyName(const PolicyConfig& config) {
  switch (config.kind) {
    case PolicyKind::kLru:
      return "lru";
    case PolicyKind::kLruK:
      return "lru-" + std::to_string(config.k);
    case PolicyKind::kLfu:
      return "lfu";
    case PolicyKind::kLcs:
      return "lcs";
    case PolicyKind::kGds:
      return "gds";
    case PolicyKind::kLncR:
      return "lnc-r(k=" + std::to_string(config.k) + ")";
    case PolicyKind::kLncRA:
      return "lnc-ra(k=" + std::to_string(config.k) + ")";
    case PolicyKind::kInfinite:
      return "inf";
  }
  return "?";
}

std::unique_ptr<QueryCache> MakeCache(const PolicyConfig& config,
                                      uint64_t capacity_bytes) {
  switch (config.kind) {
    case PolicyKind::kLru:
      return std::make_unique<LruCache>(capacity_bytes);
    case PolicyKind::kLruK: {
      LruKCache::LruKOptions opts;
      opts.capacity_bytes = capacity_bytes;
      opts.k = config.k;
      opts.retain_history = config.retain_reference_info;
      return std::make_unique<LruKCache>(opts);
    }
    case PolicyKind::kLfu:
      return std::make_unique<LfuCache>(capacity_bytes);
    case PolicyKind::kLcs:
      return std::make_unique<LcsCache>(capacity_bytes);
    case PolicyKind::kGds:
      return std::make_unique<GdsCache>(capacity_bytes);
    case PolicyKind::kLncR:
    case PolicyKind::kLncRA: {
      LncOptions opts;
      opts.capacity_bytes = capacity_bytes;
      opts.k = config.k;
      opts.admission = config.kind == PolicyKind::kLncRA;
      opts.retain_reference_info = config.retain_reference_info;
      opts.aging_period = config.aging_period;
      return std::make_unique<LncCache>(opts);
    }
    case PolicyKind::kInfinite:
      return std::make_unique<LruCache>(uint64_t{1} << 62);
  }
  return nullptr;
}

std::unique_ptr<ShardedQueryCache> MakeShardedCache(
    const PolicyConfig& config, uint64_t capacity_bytes, size_t num_shards) {
  ShardedQueryCache::Options options;
  options.capacity_bytes = capacity_bytes;
  options.num_shards = num_shards;
  return std::make_unique<ShardedQueryCache>(
      options, [config](uint64_t shard_capacity) {
        return MakeCache(config, shard_capacity);
      });
}

namespace {

/// Parses a strictly positive decimal k (at most 6 digits).
bool ParseK(std::string_view digits, size_t* k) {
  if (digits.empty() || digits.size() > 6) return false;
  size_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<size_t>(c - '0');
  }
  if (value == 0) return false;
  *k = value;
  return true;
}

}  // namespace

StatusOr<PolicyConfig> ParsePolicy(const std::string& name) {
  PolicyConfig config;
  const auto invalid = [&name] {
    return Status::InvalidArgument(
        "unknown policy: " + name +
        " (expected lru, lru-k, lru-<k>, lfu, lcs, gds, lnc-r[(k=<k>)], "
        "lnc-ra[(k=<k>)], inf)");
  };

  // Split off an explicit history depth: PolicyName() emits "lru-<k>"
  // for LRU-K and "<base>(k=<k>)" for the LNC policies, and both must
  // round-trip through this parser.
  std::string base = name;
  std::optional<size_t> k;
  const size_t paren = name.find('(');
  if (paren != std::string::npos) {
    size_t parsed = 0;
    if (name.back() != ')') return invalid();
    const std::string_view inner(name.data() + paren + 1,
                                 name.size() - paren - 2);
    if (inner.substr(0, 2) != "k=" || !ParseK(inner.substr(2), &parsed)) {
      return invalid();
    }
    base = name.substr(0, paren);
    k = parsed;
  } else if (name.size() > 4 && name.compare(0, 4, "lru-") == 0 &&
             name != "lru-k") {
    size_t parsed = 0;
    if (!ParseK(std::string_view(name).substr(4), &parsed)) return invalid();
    base = "lru-k";
    k = parsed;
  }

  if (base == "lru") {
    config.kind = PolicyKind::kLru;
  } else if (base == "lru-k") {
    config.kind = PolicyKind::kLruK;
  } else if (base == "lfu") {
    config.kind = PolicyKind::kLfu;
  } else if (base == "lcs") {
    config.kind = PolicyKind::kLcs;
  } else if (base == "gds") {
    config.kind = PolicyKind::kGds;
  } else if (base == "lnc-r") {
    config.kind = PolicyKind::kLncR;
  } else if (base == "lnc-ra") {
    config.kind = PolicyKind::kLncRA;
  } else if (base == "inf") {
    config.kind = PolicyKind::kInfinite;
  } else {
    return invalid();
  }
  if (k.has_value()) {
    if (config.kind != PolicyKind::kLruK && config.kind != PolicyKind::kLncR &&
        config.kind != PolicyKind::kLncRA) {
      return invalid();  // k makes no sense for history-less policies
    }
    config.k = *k;
  }
  return config;
}

}  // namespace watchman
