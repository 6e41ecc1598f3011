// Eager LNC-R / LNC-RA: the reference implementation the lazy
// production LncCache (src/cache/lnc_cache.h) is measured against.
//
// Profits are kept as exact keys in an OrderedVictimIndex. Every
// reference re-keys the touched entry and, round-robin, the
// ceil(n / sweep_interval) entries evaluated longest ago, so every key
// is at most sweep_interval references old (rate aging). Victim
// selection walks the keys as stored; the admission test re-walks the
// candidate list for the eq. 5 / eq. 8 sums; the retained-info sweep
// uses the exact minimum cached profit by full walk. This costs
// O(n / sweep_interval) tree re-keys per reference and O(n) per sweep,
// which is why production runs the lazy path instead; the paper-level
// metrics of the two agree within the tolerances asserted by
// tests/sim/lazy_eager_sim_test.cc and tests/cache/lazy_profit_test.cc.
//
// Takes LncOptions; profit_quant_steps does not apply (keys are always
// exact) and aging_period must be 0 (decision-time profits only).

#ifndef WATCHMAN_TESTS_SUPPORT_EAGER_LNC_CACHE_H_
#define WATCHMAN_TESTS_SUPPORT_EAGER_LNC_CACHE_H_

#include <string>
#include <vector>

#include "cache/lnc_cache.h"
#include "cache/query_cache.h"
#include "cache/retained_info.h"

namespace watchman {
namespace testsupport {

class EagerLncCache : public QueryCache {
 public:
  explicit EagerLncCache(const LncOptions& options);

  std::string name() const override;
  size_t retained_count() const override { return retained_.size(); }

 protected:
  void OnHit(Entry* entry, Timestamp now) override;
  void OnMiss(const QueryDescriptor& d, Timestamp now) override;
  void OnInsert(Entry* entry, Timestamp now) override;
  void OnEvict(Entry* entry) override;
  Status CheckPolicyIndex() const override;

 private:
  /// lambda * c / s at `now`, or the e-profit c / s without a rate.
  static double Profit(const Entry& entry, Timestamp now);

  /// Re-keys `entry` with its exact profit at `now`.
  void Rekey(Entry* entry, Timestamp now);

  /// Round-robin aging plus the retained-info sweep; runs on every
  /// reference.
  void MaybeSweep(Timestamp now);

  LncOptions opts_;
  ProfitRetainedStore retained_;
  uint64_t references_since_sweep_ = 0;
  /// Victim order: (reference-count bucket, exact profit).
  VictimIndex by_profit_;
  /// Aging order: front = evaluated longest ago.
  VictimList refresh_queue_;
  std::vector<Entry*> candidates_;
};

}  // namespace testsupport
}  // namespace watchman

#endif  // WATCHMAN_TESTS_SUPPORT_EAGER_LNC_CACHE_H_
