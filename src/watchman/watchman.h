// Watchman: the public library API.
//
// The paper (section 3) implements WATCHMAN as a library of routines
// linked with an application such as a data warehouse manager. This
// facade reproduces that design: the application submits query text and
// an executor callback; Watchman compresses the text into a query ID,
// looks the retrieved set up by signature + exact match, returns the
// cached payload on a hit, and on a miss invokes the executor, records
// the cost, and offers the retrieved set to the configured admission
// policy.
//
// Beyond the paper's base design the facade also provides:
//  * any replacement policy (section 5's competitors included) via the
//    PolicyConfig factory, defaulting to the paper's LNC-RA;
//  * a thread-safe execution path: the cache is partitioned into
//    signature-hashed shards with per-shard locks, warehouse executions
//    run outside all shard locks, and concurrent identical missed
//    queries are collapsed into a single execution (single-flight);
//  * query normalization (section 6 future work): an optional canonical
//    form that identifies queries differing in predicate order;
//  * cache coherence (section 3): executors may report the relations a
//    query touched, and InvalidateRelation() evicts the dependent sets
//    when the warehouse is updated -- across all shards;
//  * pluggable payload storage (section 3): retrieved sets live in main
//    memory by default, or on secondary storage via FilePayloadStore.
//
// Threading model: Execute(), Query(), IsCached(), Invalidate(),
// InvalidateRelation() and the statistics accessors may be called from
// any thread. Configuration (SetAdmissionListener, construction options)
// must happen before concurrent use. A user-supplied clock or payload
// store must itself be thread-safe when Execute() is called
// concurrently; the built-in defaults are.

#ifndef WATCHMAN_WATCHMAN_WATCHMAN_H_
#define WATCHMAN_WATCHMAN_WATCHMAN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/sharded_query_cache.h"
#include "obs/metrics.h"
#include "sim/policy_config.h"
#include "util/circuit_breaker.h"
#include "util/clock.h"
#include "util/mutex.h"
#include "util/single_flight.h"
#include "util/status.h"
#include "watchman/payload_store.h"

namespace watchman {

/// Top-level cache manager.
class Watchman {
 public:
  /// What a query execution produces: the retrieved set (payload), the
  /// execution cost in logical block reads, and optionally the
  /// relations the query read (enables invalidation). The cost may come
  /// from a query optimizer or from DBMS performance statistics
  /// (paper section 2.1).
  struct ExecutionResult {
    std::string payload;
    uint64_t cost = 1;
    std::vector<std::string> relations;
  };

  /// Executes a query against the underlying warehouse. May be invoked
  /// from any thread that calls Execute(), but never twice concurrently
  /// for the same query text (single-flight).
  using Executor =
      std::function<StatusOr<ExecutionResult>(const std::string& query_text)>;

  /// Receives the query ID of every newly cached retrieved set -- the
  /// hook the buffer-manager hint channel attaches to (paper §3).
  using AdmissionListener = std::function<void(const std::string& query_id)>;

  struct Options {
    /// Cache capacity for retrieved-set payloads, in bytes.
    uint64_t capacity_bytes = 64ull << 20;
    /// Reference-history depth K.
    size_t k = 4;
    /// LNC-A admission control (disable for plain LNC-R).
    bool admission = true;
    /// Retained reference information (section 2.4).
    bool retain_reference_info = true;
    /// Replacement policy. When unset, an LNC policy is assembled from
    /// the k / admission / retain_reference_info fields above; when set,
    /// it wins and those legacy fields are ignored.
    std::optional<PolicyConfig> policy;
    /// Cache shards (normalized to a power of two). 1 keeps the exact
    /// unsharded decision sequence; use >= number of worker threads for
    /// concurrent serving.
    size_t num_shards = 1;
    /// Use the conjunct-order canonical form instead of the plain
    /// compressed query ID (catches reordered WHERE predicates).
    bool normalize_queries = false;
    /// Payload storage; defaults to MemoryPayloadStore.
    std::unique_ptr<PayloadStore> payload_store;
    /// Clock used for reference timestamps; defaults to an internal
    /// monotonic counter advanced by 1 microsecond per query, which is
    /// sufficient for rate estimation. Supply a simulation clock for
    /// reproducible experiments.
    std::function<Timestamp()> clock;
    /// Record facade-level observability metrics (single-flight dedups,
    /// admitted/rejected cost+profit distributions). Off-path only --
    /// the hit path is never instrumented here -- but embedders chasing
    /// the last nanosecond can disable it.
    bool metrics = true;
    /// Payload-store circuit breaker: after `failure_threshold`
    /// consecutive store failures (Put or Get errors other than
    /// NotFound) the facade stops calling the store for `cooldown_ms`,
    /// serving misses uncached (pass-through) and reporting cached
    /// entries whose payload is unreachable as misses. A threshold of 0
    /// disables the breaker.
    CircuitBreaker::Options store_breaker;
  };

  /// Facade-level observability: what the admission decision actually
  /// did to the miss stream. The profit histograms record the paper's
  /// profit metric cost/size scaled to parts-per-million
  /// (cost * 1e6 / result_bytes), so admitted vs rejected distributions
  /// are comparable on one log scale. Updated only on the miss path;
  /// all members are safe to read concurrently.
  struct FacadeMetrics {
    /// Warehouse executions actually run (single-flight leaders).
    obs::Counter executions;
    /// Callers served by another caller's in-flight execution.
    obs::Counter dedup_hits;
    obs::LogHistogram admitted_cost;
    obs::LogHistogram rejected_cost;
    obs::LogHistogram admitted_profit_ppm;
    obs::LogHistogram rejected_profit_ppm;
    /// Degradation counters (always recorded, independent of
    /// Options::metrics -- operators need these precisely when things
    /// go wrong). Executor failures: the warehouse callback returned an
    /// error or threw (the exception is converted to a typed Status
    /// instead of unwinding through the caller). Store failures: payload
    /// store Put/Get errors other than NotFound. Degraded pass-through:
    /// misses served fresh but uncached because the store failed, its
    /// breaker was open, or entry allocation failed.
    obs::Counter executor_failures;
    obs::Counter store_failures;
    obs::Counter degraded_passthrough;
  };

  /// `executor` must be valid for the lifetime of the Watchman.
  Watchman(Options options, Executor executor);

  /// Looks up the retrieved set of `query_text`, executing the query on
  /// a miss. Returns the payload (from cache or fresh). Executor errors
  /// surface as their Status; an executor that THROWS is converted to
  /// an Internal status (counted in FacadeMetrics::executor_failures)
  /// rather than unwinding -- a daemon worker thread must never die to
  /// one bad warehouse callback. Failed executions are not cached.
  ///
  /// Thread-safe: the lookup takes only the owning shard's lock, the
  /// miss executes with no lock held, and concurrent misses on the same
  /// query share one execution.
  StatusOr<std::string> Execute(const std::string& query_text);

  /// Alias of Execute() (the paper-era name).
  StatusOr<std::string> Query(const std::string& query_text) {
    return Execute(query_text);
  }

  /// Hit-only probe: returns the cached retrieved set of `query_text`,
  /// recording the reference exactly like a hit in Execute(); NotFound
  /// -- with no lookup counted and nothing executed -- when the set is
  /// absent or its payload is not (or no longer) published. This is the daemon's GET op: a remote caller probes, and
  /// on NotFound materializes the result itself and offers it back
  /// through an Execute() miss-fill, so the two round trips together
  /// count as one reference, like one local Execute().
  StatusOr<std::string> GetCached(const std::string& query_text);

  /// GetCached() into a caller-owned buffer, reusing its capacity: the
  /// daemon serves GET into per-connection response scratch, so the
  /// remote hit path allocates nothing at steady state.
  Status GetCachedInto(const std::string& query_text, std::string* out);

  /// True if the retrieved set of `query_text` is currently cached.
  bool IsCached(const std::string& query_text) const;

  /// Cache coherence: drops the retrieved set of `query_text`.
  /// Returns true if it was cached.
  bool Invalidate(const std::string& query_text);

  /// Cache coherence: drops every cached retrieved set whose execution
  /// reported reading `relation`, on whichever shards they live.
  /// Returns the number of sets dropped.
  size_t InvalidateRelation(const std::string& relation);

  /// Registers the admission listener (replaces any previous one). Call
  /// before serving concurrently.
  void SetAdmissionListener(AdmissionListener listener);

  /// Shrink-to-fit pass over the cache's metadata (signature tables,
  /// entry arenas, retained-info stores): long-lived daemons whose
  /// working set shrank stop pinning peak-size index structures. Takes
  /// each shard's lock in turn; call at quiescent moments.
  void CompactMetadata() { cache_->Compact(); }

  CacheStats stats() const { return cache_->stats(); }
  uint64_t used_bytes() const { return cache_->used_bytes(); }
  uint64_t capacity_bytes() const { return cache_->capacity_bytes(); }
  size_t cached_set_count() const { return cache_->entry_count(); }
  size_t retained_info_count() const { return cache_->retained_count(); }
  uint64_t invalidations() const { return invalidations_.load(); }
  size_t num_shards() const { return cache_->num_shards(); }
  std::string policy_name() const { return cache_->name(); }
  const PayloadStore& payload_store() const { return *payloads_; }
  const ShardedQueryCache& cache() const { return *cache_; }
  const FacadeMetrics& facade_metrics() const { return metrics_; }
  /// The warehouse executor this facade was built with.
  const Executor& executor() const { return executor_; }
  /// The payload-store breaker, for observability (state/trips/rejects).
  const CircuitBreaker& store_breaker() const { return store_breaker_; }
  /// Breaker state at this instant: 0 closed, 1 open, 2 half-open.
  int store_breaker_state() const;

  double cost_savings_ratio() const {
    return cache_->stats().cost_savings_ratio();
  }
  double hit_ratio() const { return cache_->stats().hit_ratio(); }

 private:
  /// What one single-flight execution produced, shared by all callers:
  /// the executor's result and the invalidation epoch observed before
  /// it ran (detects updates that raced with the execution).
  struct FlightOutcome {
    StatusOr<ExecutionResult> result = Status::Internal("not executed");
    uint64_t epoch_at_start = 0;
  };

  Timestamp NowTick();
  /// Runs the warehouse executor with fault-point and exception
  /// containment: a throwing executor becomes an Internal status.
  StatusOr<ExecutionResult> RunExecutor(const std::string& query_text);
  std::string MakeQueryId(const std::string& query_text) const;
  /// MakeQueryId into a caller-owned buffer (per-thread scratch reuse).
  void MakeQueryIdInto(const std::string& query_text, std::string* out) const;
  void ForgetDependencies(const std::string& query_id);
  void RegisterDependencies(const std::string& query_id,
                            const std::vector<std::string>& relations);

  /// Records this call's one reference for `desc` and, when the set is
  /// cached, publishes the payload and coherence bookkeeping. Drops the
  /// entry again if any of its relations was invalidated after
  /// `epoch_at_start` (the execution read pre-update data).
  void OfferToCache(const QueryDescriptor& desc,
                    const ExecutionResult& result, uint64_t epoch_at_start,
                    Timestamp now);

  /// True if the query itself or any of `relations` was invalidated
  /// after `epoch`.
  bool InvalidatedSince(const std::string& query_id,
                        const std::vector<std::string>& relations,
                        uint64_t epoch) const;

  /// Drops one in-flight-execution guard; when the last one goes, the
  /// per-relation invalidation-epoch records are pruned (no overlapping
  /// execution can reference them anymore).
  void ReleaseInflightOffer();

  Status GetPayloadInto(const std::string& query_id, std::string* out);
  bool HasPayload(const std::string& query_id) const;
  Status PutPayload(const std::string& query_id, const std::string& payload);
  void ErasePayload(const std::string& query_id);

  Options options_;
  Executor executor_;
  std::unique_ptr<ShardedQueryCache> cache_;
  std::unique_ptr<PayloadStore> payloads_;
  /// Guards payloads_ (the built-in stores are not thread-safe):
  /// concurrent Gets share the lock -- PayloadStore::Get must therefore
  /// be safe to call concurrently with itself, which both built-in
  /// stores are -- while Put/Erase are exclusive. (The pointee, not the
  /// unique_ptr, is the guarded object; the analysis tracks the lock
  /// sites in the payload helpers rather than a PT_GUARDED_BY member.)
  /// Lock order: shard lock, then this (the hit path fetches and the
  /// eviction listener erases under the shard lock); never take a shard
  /// lock while holding it.
  mutable SharedMutex payload_mu_;
  /// Trips on consecutive store failures; while open, Put/Get short-
  /// circuit and misses are served uncached (Options::store_breaker).
  CircuitBreaker store_breaker_;
  /// Guards dependents_ / reads_. Lock order: shard lock, then this
  /// (taken by the eviction listener); never call into the cache while
  /// holding it.
  mutable Mutex coherence_mu_;
  /// relation -> query IDs of cached sets that read it.
  std::unordered_map<std::string, std::unordered_set<std::string>>
      dependents_ GUARDED_BY(coherence_mu_);
  /// query ID -> relations it read (only for cached sets).
  std::unordered_map<std::string, std::vector<std::string>> reads_
      GUARDED_BY(coherence_mu_);
  /// relation / query ID -> epoch of its latest invalidation (coherence
  /// vs. in-flight executions); pruned when no execution is in flight.
  std::unordered_map<std::string, uint64_t> relation_invalidation_epoch_
      GUARDED_BY(coherence_mu_);
  std::unordered_map<std::string, uint64_t> query_invalidation_epoch_
      GUARDED_BY(coherence_mu_);
  AdmissionListener admission_listener_;
  /// Miss-path observability (Options::metrics).
  FacadeMetrics metrics_;
  /// Collapses concurrent executions of the same missed query.
  SingleFlight<std::string, std::shared_ptr<const FlightOutcome>> flights_;
  std::atomic<Timestamp> internal_clock_{0};
  std::atomic<uint64_t> invalidations_{0};
  /// Bumped by every relation invalidation.
  std::atomic<uint64_t> invalidation_epoch_{0};
  /// Executions currently between epoch snapshot and cache offer; the
  /// relation-epoch records are pruned whenever this drains to zero.
  std::atomic<int64_t> inflight_offers_{0};
};

}  // namespace watchman

#endif  // WATCHMAN_WATCHMAN_WATCHMAN_H_
