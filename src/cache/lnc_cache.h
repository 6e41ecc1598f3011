// LNC-R / LNC-RA: the paper's cache replacement and admission algorithms
// (Figure 1).
//
// Replacement (LNC-R): victims are selected in the order
// R_1 < R_2 < ... < R_K, where R_i holds the cached sets with exactly i
// recorded references arranged by ascending profit
//
//   profit(RS_i) = lambda_i * c_i / s_i ,   lambda_i = K / (t - t_K).
//
// Sets with fewer references are replaced earlier because their rate
// estimates are less reliable (paper section 2.1).
//
// Admission (LNC-A): a missed set RS_i with candidate victim list
// C = LNC-R(s_i) is admitted only if profit(RS_i) > profit(C); for sets
// with no past reference information the estimated profit
// e-profit = c_i / s_i is used on both sides (eqs. 4-8). Per Figure 1, a
// set that fits into the available free space is cached without an
// admission test.
//
// Retained reference information (section 2.4): timestamps, size and cost
// of evicted and admission-rejected sets are retained, and dropped when
// their profit falls below the least profit among all cached sets.
//
// Profit maintenance is lazy. Victim order is a LazyOrderedVictimIndex
// keyed by (reference-count bucket, log-quantized profit). A hit
// re-evaluates only the touched entry, and even that usually skips the
// tree re-key because the quantized level did not move. Untouched
// entries keep the profit of their last evaluation; since EstimateRate
// profits only *decay* between references, every stored key is an
// upper bound of the entry's current profit, and the victim-selection
// walk on a miss re-validates candidates at decision time: it
// recomputes each candidate's profit at `now`, re-keys it in place (the
// fresh key can only move toward the eviction end, so the walk order
// remains the ascending prefix of current keys -- see
// CollectVictimsValidatedInto) and folds it into the admission sums.
// The retained-info sweep reads a bounded, revalidated front of the
// index (ApproxMinCachedProfit) instead of walking every entry.
//
// The cost of laziness is bounded, documented staleness: selection
// ranks un-walked entries by their last-evaluated profit (an upper
// bound) rather than a decision-time profit, and the retained-info
// sweep threshold is an upper bound of the true minimum cached profit
// (so retained records are dropped at least as eagerly as the paper's
// rule). The eager reference implementation, which re-ages every key
// round-robin and sweeps by full walk, lives in the tests
// (tests/support/eager_lnc_cache.h); the fig4/fig5 metrics of the two
// agree within the tolerance asserted by
// tests/sim/lazy_eager_sim_test.cc.

#ifndef WATCHMAN_CACHE_LNC_CACHE_H_
#define WATCHMAN_CACHE_LNC_CACHE_H_

#include <optional>
#include <string>
#include <vector>

#include "cache/query_cache.h"
#include "cache/retained_info.h"

namespace watchman {

/// Configuration of the LNC family.
struct LncOptions {
  uint64_t capacity_bytes = 0;

  /// Reference-history depth K (paper experiments use K = 4).
  size_t k = 4;

  /// Enables the LNC-A admission algorithm; with it the cache is LNC-RA,
  /// without it plain LNC-R (which admits everything that fits).
  bool admission = true;

  /// Enables retained reference information (section 2.4).
  bool retain_reference_info = true;

  /// Retained-info sweep cadence, in references.
  uint64_t sweep_interval = 64;

  /// Profit evaluation mode. In exact mode profits are evaluated with
  /// the decision-time clock (the reference behaviour). With a non-zero
  /// aging period, rate estimates are refreshed only every `aging_period`
  /// (the paper's "updated ... at fixed time periods" reduced-overhead
  /// variant); see the ablation bench.
  Duration aging_period = 0;

  /// Log-quantization granularity of lazily stored profit keys: levels
  /// per profit doubling. Two profits within a ratio of
  /// 2^(1/quant_steps) (~4.4% at the default 16) share a level and a
  /// re-evaluation between them skips the tree re-key. 0 = exact keys
  /// (every changed profit re-keys).
  uint32_t profit_quant_steps = 16;
};

/// The integrated LNC cache (LNC-R when admission is disabled, LNC-RA
/// when enabled).
class LncCache : public QueryCache {
 public:
  explicit LncCache(const LncOptions& options);

  std::string name() const override;

  /// Profit of a cached entry at time `now` (exposed for tests and the
  /// retained-info drop rule): lambda * c / s, with e-profit = c / s as
  /// the fallback when no rate estimate exists yet.
  double EntryProfit(const Entry& entry, Timestamp now) const;

  /// Least profit among all cached sets at `now`, by exact O(n) full
  /// walk; +infinity for an empty cache. Not used by the cache itself:
  /// it is the exact ground truth the tests hold
  /// ApproxMinCachedProfit() against.
  double MinCachedProfit(Timestamp now);

  /// Retained-info sweep threshold: the minimum profit over a bounded
  /// prefix (kMinProfitProbe entries) of the victim index, re-evaluated
  /// at `now` and re-keyed in place (revalidated front). Always within
  /// [MinCachedProfit(now), smallest re-evaluated prefix profit]: an
  /// upper bound of the true minimum, so SweepBelowProfit drops a
  /// superset of what the paper's exact rule would drop -- retained
  /// metadata still self-scales with cache pressure. Equals
  /// MinCachedProfit exactly whenever the true minimum-profit entry
  /// sits within the probed prefix (in particular whenever the cache
  /// holds at most kMinProfitProbe entries).
  double ApproxMinCachedProfit(Timestamp now);

  /// Prefix length of the ApproxMinCachedProfit() probe.
  static constexpr size_t kMinProfitProbe = 8;

  size_t retained_count() const override { return retained_.size(); }
  uint64_t retained_metadata_bytes() const {
    return retained_.ApproxMetadataBytes();
  }

  /// Tree re-keys performed / skipped by lazy profit maintenance
  /// (observability: the skip ratio is what quantization buys).
  uint64_t profit_rekeys() const { return by_profit_.rekeys(); }
  uint64_t profit_refreshes_skipped() const {
    return by_profit_.refreshes_skipped();
  }

  const LncOptions& options() const { return opts_; }

 protected:
  void OnHit(Entry* entry, Timestamp now) override;
  void OnMiss(const QueryDescriptor& d, Timestamp now) override;
  void OnInsert(Entry* entry, Timestamp now) override;
  void OnEvict(Entry* entry) override;
  Status CheckPolicyIndex() const override;
  void OnCompact() override;

 private:
  /// Aggregates of one candidate list, accumulated during the selection
  /// walk so the admission comparison does not re-walk the candidates
  /// (eqs. 5 and 8 as running sums).
  struct CandidateAggregates {
    double rate_cost_sum = 0.0;  // sum of lambda_i * c_i (eq. 5 numerator)
    double cost_sum = 0.0;       // sum of c_i (eq. 8 numerator)
    double size_sum = 0.0;       // sum of s_i (shared denominator)

    double profit() const { return rate_cost_sum / size_sum; }
    double estimated_profit() const { return cost_sum / size_sum; }
  };

  /// lambda estimate honouring the aging mode: exact mode uses `now`,
  /// aging mode uses the last refresh tick.
  std::optional<double> Rate(const ReferenceHistory& history,
                             Timestamp now) const;

  /// The LNC-R candidate-selection function (Figure 1): a minimal list
  /// of victims in (reference-count bucket, ascending profit) order
  /// whose sizes sum to at least `bytes_needed`, collected into the
  /// reusable scratch vector. The walk revalidates each candidate's
  /// profit at `now` (re-keying stale entries in place) and accumulates
  /// the rate/cost/size sums the admission test needs, so each
  /// candidate's rate is estimated exactly once per miss.
  void SelectCandidates(uint64_t bytes_needed, Timestamp now,
                        CandidateAggregates* agg);

  void RetainEntryInfo(const Entry& entry);
  void MaybeSweep(Timestamp now);

  LncOptions opts_;
  ProfitRetainedStore retained_;
  uint64_t references_since_sweep_ = 0;
  /// Aging mode: the clock value profits are currently evaluated at.
  Timestamp aging_tick_ = 0;
  /// Victim order: (reference-count bucket, quantized profit at last
  /// evaluation).
  LazyVictimIndex by_profit_;
  /// Reused candidate scratch: SelectCandidates fills it, OnMiss
  /// consumes it before the next miss. Steady-state misses do not
  /// allocate for candidate collection.
  std::vector<Entry*> candidate_scratch_;
};

}  // namespace watchman

#endif  // WATCHMAN_CACHE_LNC_CACHE_H_
