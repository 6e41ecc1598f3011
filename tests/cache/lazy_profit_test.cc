// Tests of LncCache's lazy profit maintenance: the
// LazyOrderedVictimIndex quantization machinery, the staleness
// invariants, the bounded min-profit read that replaced the O(n) sweep
// walk, and differential runs of the lazy implementation against a
// brute-force model (exact) and against the eager reference
// implementation in tests/support/eager_lnc_cache.h (aggregate).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/lnc_cache.h"
#include "cache/query_descriptor.h"
#include "support/eager_lnc_cache.h"
#include "util/hash.h"
#include "util/random.h"

namespace watchman {
namespace {

QueryDescriptor Desc(const std::string& id, uint64_t bytes, uint64_t cost) {
  return QueryDescriptor::Make(id, bytes, cost);
}

LncOptions Opts(uint64_t capacity, size_t k = 4, bool admission = true,
                bool retain = true) {
  LncOptions o;
  o.capacity_bytes = capacity;
  o.k = k;
  o.admission = admission;
  o.retain_reference_info = retain;
  return o;
}

// ------------------------------------------------- quantization basics

struct FakeNode {
  QueryDescriptor desc;
  VictimKey vkey;
  Timestamp vkey_eval = 0;
};

TEST(LazyIndexTest, QuantizeKeyIsMonotoneAndLevelled) {
  LazyOrderedVictimIndex<FakeNode> index(/*quant_steps=*/16);
  // Levels per doubling: quantized keys of p and 2p differ by exactly 16.
  EXPECT_DOUBLE_EQ(index.QuantizeKey(2.0) - index.QuantizeKey(1.0), 16.0);
  EXPECT_DOUBLE_EQ(index.QuantizeKey(8.0) - index.QuantizeKey(1.0), 48.0);
  // Within one level ratio (2^(1/16) ~ 1.044), values may share a level;
  // beyond it they must not.
  EXPECT_NEAR(index.quantization_ratio(), std::exp2(1.0 / 16.0), 1e-12);
  EXPECT_LT(index.QuantizeKey(1.0),
            index.QuantizeKey(1.0 * index.quantization_ratio() * 1.01));
  // Monotone: larger profits never get smaller keys.
  Rng rng(7);
  double prev_value = 1e-9;
  for (int i = 0; i < 1000; ++i) {
    const double value = prev_value * (1.0 + rng.NextDouble());
    EXPECT_GE(index.QuantizeKey(value), index.QuantizeKey(prev_value));
    prev_value = value;
  }
  // Zero and negative values collapse to the floor level (sort first).
  EXPECT_DOUBLE_EQ(index.QuantizeKey(0.0),
                   LazyOrderedVictimIndex<FakeNode>::kFloorLevel);
  EXPECT_LT(index.QuantizeKey(0.0), index.QuantizeKey(1e-300));
}

TEST(LazyIndexTest, ExactModeStoresValuesVerbatim) {
  LazyOrderedVictimIndex<FakeNode> index(/*quant_steps=*/0);
  EXPECT_DOUBLE_EQ(index.QuantizeKey(0.12345), 0.12345);
  EXPECT_DOUBLE_EQ(index.quantization_ratio(), 1.0);
}

TEST(LazyIndexTest, RefreshSkipsTreeRekeyWithinLevel) {
  LazyOrderedVictimIndex<FakeNode> index(/*quant_steps=*/16);
  FakeNode a;
  index.Add(&a, /*bucket=*/1, /*value=*/100.0, /*eval_time=*/10);
  EXPECT_EQ(a.vkey_eval, 10u);

  // 1% drift: same level, no tree re-key, stamp advances.
  EXPECT_FALSE(index.Refresh(&a, 1, 99.0, 20));
  EXPECT_EQ(index.rekeys(), 0u);
  EXPECT_EQ(index.refreshes_skipped(), 1u);
  EXPECT_EQ(a.vkey_eval, 20u);

  // Halving crosses levels: re-key.
  EXPECT_TRUE(index.Refresh(&a, 1, 50.0, 30));
  EXPECT_EQ(index.rekeys(), 1u);

  // Bucket change always re-keys, even with an unchanged value.
  EXPECT_TRUE(index.Refresh(&a, 2, 50.0, 40));
  EXPECT_EQ(index.rekeys(), 2u);
  index.Remove(&a);
}

TEST(LazyIndexTest, OrdersByBucketThenQuantizedLevel) {
  LazyOrderedVictimIndex<FakeNode> index(/*quant_steps=*/16);
  FakeNode low_bucket, cheap, rich;
  index.Add(&rich, 2, 1000.0, 1);
  index.Add(&cheap, 2, 1.0, 1);
  index.Add(&low_bucket, 1, 1e9, 1);  // huge profit, but bucket 1 first
  std::vector<FakeNode*> order;
  for (const auto& item : index) order.push_back(item.node);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], &low_bucket);
  EXPECT_EQ(order[1], &cheap);
  EXPECT_EQ(order[2], &rich);
  for (FakeNode* n : order) index.Remove(n);
}

// ---------------------------------------------- hit-path lazy skipping

TEST(LazyLncTest, SteadyHitsMostlySkipTreeRekeys) {
  // A steadily re-referenced working set keeps near-constant rates, so
  // quantized levels rarely move: the hit path should skip the tree
  // re-key for the overwhelming majority of references.
  LncCache cache(Opts(1 << 20));
  std::vector<QueryDescriptor> descs;
  for (int i = 0; i < 64; ++i) {
    descs.push_back(Desc("q" + std::to_string(i), 100, 1000));
  }
  Timestamp now = 0;
  for (const auto& d : descs) cache.Reference(d, now += 1000);
  for (int round = 0; round < 100; ++round) {
    for (const auto& d : descs) cache.Reference(d, now += 1000);
  }
  EXPECT_TRUE(cache.CheckInvariants().ok());
  const uint64_t rekeys = cache.profit_rekeys();
  const uint64_t skipped = cache.profit_refreshes_skipped();
  // At least 90% of re-evaluations after warmup were skips.
  EXPECT_GT(skipped, 9 * rekeys) << "rekeys " << rekeys << " skipped "
                                 << skipped;
}

// ------------------------------------------- staleness invariant guard

TEST(LazyLncTest, ChurnHoldsStalenessInvariants) {
  // CheckInvariants() (run per reference in assert builds, and here
  // explicitly) verifies the lazy staleness bounds: every stored key
  // equals the entry's quantized profit at its evaluation stamp, the
  // stamp lies within [entry's last reference, cache's last reference],
  // and stored keys upper-bound current profits (monotone decay).
  for (uint32_t quant_steps : {0u, 4u, 16u, 64u}) {
    LncOptions o = Opts(4000, 4, true, true);
    o.profit_quant_steps = quant_steps;
    LncCache cache(o);
    Rng rng(0xA11CE + quant_steps);
    Timestamp t = 0;
    for (int i = 0; i < 4000; ++i) {
      t += 1 + rng.NextBounded(2 * kSecond);
      cache.Reference(Desc("q" + std::to_string(rng.NextBounded(149)),
                           40 + rng.NextBounded(400),
                           1 + rng.NextBounded(100000)),
                      t);
      ASSERT_TRUE(cache.CheckInvariants().ok()) << "step " << i;
    }
    EXPECT_GT(cache.stats().evictions, 0u);
  }
}

// --------------------------------- bounded min-profit read (the sweep)

TEST(LazyLncTest, ApproxMinProfitExactWhenCacheFitsProbe) {
  // With at most kMinProfitProbe cached sets the bounded read covers
  // the whole index: it must equal the full walk exactly.
  LncCache cache(Opts(LncCache::kMinProfitProbe * 100, 4, false));
  Rng rng(42);
  Timestamp t = 0;
  for (int i = 0; i < 200; ++i) {
    t += kSecond;
    cache.Reference(Desc("q" + std::to_string(rng.NextBounded(32)), 100,
                         1 + rng.NextBounded(10000)),
                    t);
    ASSERT_LE(cache.entry_count(), LncCache::kMinProfitProbe);
    const double approx = cache.ApproxMinCachedProfit(t);
    const double exact = cache.MinCachedProfit(t);
    ASSERT_DOUBLE_EQ(approx, exact) << "step " << i;
  }
}

TEST(LazyLncTest, ApproxMinProfitUpperBoundsTrueMinimum) {
  // On a cache larger than the probe the bounded read returns the
  // minimum over the re-evaluated prefix: always >= the true minimum
  // (so SweepBelowProfit drops a superset of the paper's rule -- the
  // retained store still self-scales), and it is an actual profit of
  // some cached set, not an arbitrary stale key.
  LncCache cache(Opts(1 << 16, 4, true, true));
  Rng rng(0xBEE);
  Timestamp t = 0;
  for (int i = 0; i < 6000; ++i) {
    t += 1 + rng.NextBounded(kSecond);
    cache.Reference(Desc("q" + std::to_string(rng.NextBounded(999)),
                         40 + rng.NextBounded(200),
                         1 + rng.NextBounded(100000)),
                    t);
    if (i % 97 == 0 && cache.entry_count() > LncCache::kMinProfitProbe) {
      const double exact = cache.MinCachedProfit(t);
      const double approx = cache.ApproxMinCachedProfit(t);
      ASSERT_GE(approx, exact * (1.0 - 1e-12)) << "step " << i;
    }
  }
  EXPECT_GT(cache.entry_count(), LncCache::kMinProfitProbe);
}

TEST(LazyLncTest, SweepSeesSameMinProfitAsFullWalkAfterEvictionWalks) {
  // Regression test for the sweep threshold: misses keep revalidating
  // the front of the index, so at sweep time the least-profit entry
  // sits in the probed prefix and the bounded read agrees with the
  // full O(n) walk. Constructed workload: a once-hot resident block
  // that stops being referenced (its stale keys decay toward the
  // front) under steady miss pressure.
  LncCache cache(Opts(20000, 2, false, true));
  Timestamp t = 0;
  for (int i = 0; i < 150; ++i) {
    t += kSecond;
    cache.Reference(Desc("hot" + std::to_string(i % 50), 100,
                         10000 + 100 * (i % 50)),
                    t);
  }
  // Miss pressure: distinct one-shot queries forcing eviction walks.
  for (int i = 0; i < 400; ++i) {
    t += kSecond;
    cache.Reference(Desc("cold" + std::to_string(i), 150, 500), t);
    if (i % 10 == 0) {
      const double exact = cache.MinCachedProfit(t);
      const double approx = cache.ApproxMinCachedProfit(t);
      ASSERT_GE(approx, exact * (1.0 - 1e-12));
      // The eviction walks keep the front fresh: the bounded read must
      // agree with the full walk (same minimum, not merely a bound).
      ASSERT_LE(approx, exact * (1.0 + 1e-12)) << "step " << i;
    }
  }
}

// ------------------------- differential: lazy vs brute-force model

// The lazy implementation is verified two ways:
//  * exactly, against LazyLncModel below -- a brute-force executable
//    spec of the lazy semantics (sorted-snapshot victim selection,
//    explicit Figure-1 admission, quantized stale keys with seq
//    tie-breaks, the bounded front probe) that shares no code with the
//    incremental tree index or the revalidating walk it checks;
//  * in aggregate, against the eager reference implementation
//    (testsupport::EagerLncCache): lazy aging deliberately ranks
//    un-walked entries by their last-evaluated profit, so *individual*
//    victim choices can differ from eager's sweep-horizon ranking (both
//    approximate the paper's decision-time ideal); the paper-level
//    metrics must still agree tightly (here and in
//    tests/sim/lazy_eager_sim_test.cc).

/// Brute-force model of lazy LNC-R/RA. Keeps every cached set in a
/// plain vector and sorts a snapshot on demand for victim selection;
/// stale keys, evaluation stamps, quantization levels, seq tie-breaks
/// and the sweep cadence mirror the documented semantics directly.
class LazyLncModel {
 public:
  explicit LazyLncModel(const LncOptions& opts) : opts_(opts) {}

  bool Reference(const QueryDescriptor& d, Timestamp now) {
    now = std::max(now, last_t_);
    last_t_ = now;
    ++stats_.lookups;
    Rec* rec = FindCached(d.query_id());
    if (rec != nullptr) {
      ++stats_.hits;
      stats_.cost_total += rec->cost;
      stats_.cost_saved += rec->cost;
      RecordRef(&rec->refs, now);
      // Hit path: re-evaluate only the touched entry.
      RefreshKey(rec, now);
      MaybeSweep(now);
      return true;
    }
    stats_.cost_total += d.cost;
    if (d.result_bytes == 0 || d.result_bytes > opts_.capacity_bytes) {
      if (d.result_bytes != 0) MaybeSweep(now);  // OnMiss runs the sweep
      return false;
    }
    MaybeSweep(now);
    OnMiss(d, now);
    return false;
  }

  bool Contains(const std::string& id) const {
    for (const Rec& r : cached_) {
      if (r.id == id) return true;
    }
    return false;
  }

  const CacheStats& stats() const { return stats_; }
  size_t retained_count() const { return retained_.size(); }
  uint64_t used_bytes() const { return used_; }

 private:
  struct Rec {
    std::string id;
    uint64_t bytes = 0;
    uint64_t cost = 0;
    std::vector<Timestamp> refs;  // most recent last, size <= k
    uint32_t bucket = 0;          // recorded-reference bucket R_i
    double key = 0.0;             // stored (possibly stale) quantized key
    uint64_t seq = 0;
    Timestamp eval = 0;
  };
  struct Retained {
    std::string id;
    uint64_t bytes = 0;
    uint64_t cost = 0;
    std::vector<Timestamp> refs;
  };

  double Quantize(double profit) const {
    if (opts_.profit_quant_steps == 0) return profit;
    if (!(profit > 0.0)) return -1.0e9;
    const double level = std::floor(
        std::log2(profit) * static_cast<double>(opts_.profit_quant_steps));
    return level < -1.0e9 ? -1.0e9 : level;
  }

  void RecordRef(std::vector<Timestamp>* refs, Timestamp now) {
    refs->push_back(now);
    if (refs->size() > opts_.k) refs->erase(refs->begin());
  }

  static std::optional<double> RateOf(const std::vector<Timestamp>& refs,
                                      Timestamp now) {
    if (refs.empty()) return std::nullopt;
    const Timestamp oldest = refs.front();
    if (now <= oldest) {
      if (refs.size() == 1) return std::nullopt;
      return static_cast<double>(refs.size());
    }
    return static_cast<double>(refs.size()) /
           static_cast<double>(now - oldest);
  }

  static double ProfitOf(const std::vector<Timestamp>& refs, uint64_t cost,
                         uint64_t bytes, Timestamp now) {
    const double cpb =
        static_cast<double>(cost) / static_cast<double>(bytes);
    const auto rate = RateOf(refs, now);
    return rate.has_value() ? *rate * cpb : cpb;
  }

  void RefreshKey(Rec* rec, Timestamp now) {
    const double key =
        Quantize(ProfitOf(rec->refs, rec->cost, rec->bytes, now));
    const uint32_t bucket = static_cast<uint32_t>(rec->refs.size());
    rec->eval = now;
    if (rec->bucket == bucket && rec->key == key) return;  // skip
    rec->bucket = bucket;
    rec->key = key;
    rec->seq = ++seq_;  // a tree re-key reassigns the tie-break seq
  }

  /// Indices of cached_ in ascending stored-key order (the index walk
  /// visits entries in the pre-walk stored order; refreshes only move
  /// already-visited entries earlier).
  std::vector<size_t> StoredOrder() const {
    std::vector<size_t> order(cached_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
      const Rec& x = cached_[a];
      const Rec& y = cached_[b];
      if (x.bucket != y.bucket) return x.bucket < y.bucket;
      if (x.key != y.key) return x.key < y.key;
      return x.seq < y.seq;
    });
    return order;
  }

  void MaybeSweep(Timestamp now) {
    if (++refs_since_sweep_ < opts_.sweep_interval) return;
    refs_since_sweep_ = 0;
    if (!opts_.retain_reference_info || retained_.empty()) return;
    // Bounded front probe: re-evaluate the first kMinProfitProbe
    // entries of the stored order, re-keying them in walk order.
    double min_profit = std::numeric_limits<double>::infinity();
    std::vector<size_t> order = StoredOrder();
    for (size_t i = 0; i < order.size() && i < LncCache::kMinProfitProbe;
         ++i) {
      Rec* rec = &cached_[order[i]];
      min_profit = std::min(
          min_profit, ProfitOf(rec->refs, rec->cost, rec->bytes, now));
      RefreshKey(rec, now);
    }
    if (std::isinf(min_profit)) return;
    for (auto it = retained_.begin(); it != retained_.end();) {
      if (ProfitOf(it->refs, it->cost, it->bytes, now) < min_profit) {
        it = retained_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void OnMiss(const QueryDescriptor& d, Timestamp now) {
    const std::string id(d.query_id());
    std::vector<Timestamp> refs;
    for (auto it = retained_.begin(); it != retained_.end(); ++it) {
      if (it->id == id) {
        refs = it->refs;
        break;
      }
    }
    RecordRef(&refs, now);

    const uint64_t avail =
        used_ >= opts_.capacity_bytes ? 0 : opts_.capacity_bytes - used_;
    if (d.result_bytes <= avail) {
      Insert(d, refs, now);
      return;
    }

    const uint64_t bytes_needed = d.result_bytes - avail;
    std::vector<size_t> order = StoredOrder();
    std::vector<size_t> victims;
    double rate_cost_sum = 0.0, cost_sum = 0.0, size_sum = 0.0;
    uint64_t freed = 0;
    for (size_t i = 0; i < order.size() && freed < bytes_needed; ++i) {
      Rec* rec = &cached_[order[i]];
      const auto rate = RateOf(rec->refs, now);
      rate_cost_sum +=
          (rate.has_value() ? *rate
                            : 1.0 / static_cast<double>(rec->bytes)) *
          static_cast<double>(rec->cost);
      cost_sum += static_cast<double>(rec->cost);
      size_sum += static_cast<double>(rec->bytes);
      RefreshKey(rec, now);
      victims.push_back(order[i]);
      freed += rec->bytes;
    }

    bool admit = true;
    if (opts_.admission) {
      const auto rate = RateOf(refs, now);
      if (rate.has_value()) {
        admit = *rate * static_cast<double>(d.cost) /
                    static_cast<double>(d.result_bytes) >
                rate_cost_sum / size_sum;
      } else {
        admit = static_cast<double>(d.cost) /
                    static_cast<double>(d.result_bytes) >
                cost_sum / size_sum;
      }
    }

    if (admit) {
      // Evict victims (largest index first so erasing is stable).
      std::sort(victims.begin(), victims.end());
      for (size_t v = victims.size(); v-- > 0;) {
        Rec rec = std::move(cached_[victims[v]]);
        cached_.erase(cached_.begin() +
                      static_cast<std::ptrdiff_t>(victims[v]));
        used_ -= rec.bytes;
        ++stats_.evictions;
        if (opts_.retain_reference_info) {
          Retain(rec.id, rec.bytes, rec.cost, rec.refs);
        }
      }
      Insert(d, refs, now);
    } else {
      ++stats_.admission_rejections;
      if (opts_.retain_reference_info) {
        Retain(id, d.result_bytes, d.cost, refs);
      }
    }
  }

  void Insert(const QueryDescriptor& d, const std::vector<Timestamp>& refs,
              Timestamp now) {
    Rec rec;
    rec.id = std::string(d.query_id());
    rec.bytes = d.result_bytes;
    rec.cost = d.cost;
    rec.refs = refs;
    rec.key = Quantize(ProfitOf(refs, rec.cost, rec.bytes, now));
    rec.bucket = static_cast<uint32_t>(refs.size());
    rec.seq = ++seq_;
    rec.eval = now;
    used_ += rec.bytes;
    ++stats_.insertions;
    cached_.push_back(std::move(rec));
    if (opts_.retain_reference_info) {
      for (auto it = retained_.begin(); it != retained_.end(); ++it) {
        if (it->id == d.query_id()) {
          retained_.erase(it);
          break;
        }
      }
    }
  }

  void Retain(const std::string& id, uint64_t bytes, uint64_t cost,
              const std::vector<Timestamp>& refs) {
    for (Retained& r : retained_) {
      if (r.id == id) {
        r = Retained{id, bytes, cost, refs};
        return;
      }
    }
    retained_.push_back(Retained{id, bytes, cost, refs});
  }

  Rec* FindCached(std::string_view id) {
    for (Rec& r : cached_) {
      if (r.id == id) return &r;
    }
    return nullptr;
  }

  LncOptions opts_;
  std::vector<Rec> cached_;
  std::vector<Retained> retained_;
  CacheStats stats_;
  uint64_t used_ = 0;
  uint64_t seq_ = 0;
  uint64_t refs_since_sweep_ = 0;
  Timestamp last_t_ = 0;
};

struct ModelCase {
  uint64_t seed;
  uint32_t quant_steps;
  bool admission;
  uint64_t capacity = 30000;  // bytes
};

/// "seed1_q16_adm": the case's test-name suffix and printout. Without
/// PrintTo gtest prints the struct as a byte dump that includes its
/// uninitialized padding, and the ctest names built from that printout
/// change between builds.
std::string ModelCaseName(const ModelCase& c) {
  return "seed" + std::to_string(c.seed) + "_q" +
         std::to_string(c.quant_steps) + (c.admission ? "_adm" : "_noadm");
}

void PrintTo(const ModelCase& c, std::ostream* os) { *os << ModelCaseName(c); }

class LazyModelDifferentialTest
    : public testing::TestWithParam<ModelCase> {};

TEST_P(LazyModelDifferentialTest, MatchesBruteForceModelExactly) {
  const ModelCase param = GetParam();
  LncOptions opts = Opts(param.capacity, 4, param.admission, true);
  opts.profit_quant_steps = param.quant_steps;
  LncCache cache(opts);
  LazyLncModel model(opts);

  Rng rng(param.seed);
  Timestamp now = 0;
  for (int i = 0; i < 6000; ++i) {
    now += 1 + rng.NextBounded(kSecond);
    const uint64_t q = rng.NextBounded(211);
    const uint64_t bytes = 60 + (Fnv1a64("s" + std::to_string(q)) % 300);
    const uint64_t cost =
        uint64_t{1} << (Fnv1a64("c" + std::to_string(q)) % 20);
    const QueryDescriptor d = Desc("q" + std::to_string(q), bytes, cost);
    const bool hit_cache = cache.Reference(d, now);
    const bool hit_model = model.Reference(d, now);
    ASSERT_EQ(hit_cache, hit_model)
        << "step " << i << " query " << d.query_id();
    const CacheStats& a = cache.stats();
    const CacheStats& b = model.stats();
    ASSERT_EQ(a.insertions, b.insertions) << "step " << i;
    ASSERT_EQ(a.evictions, b.evictions) << "step " << i;
    ASSERT_EQ(a.admission_rejections, b.admission_rejections)
        << "step " << i;
    ASSERT_EQ(cache.used_bytes(), model.used_bytes()) << "step " << i;
    ASSERT_EQ(cache.retained_count(), model.retained_count())
        << "step " << i;
  }
  // Final membership identical.
  for (int q = 0; q < 211; ++q) {
    const std::string id = "q" + std::to_string(q);
    ASSERT_EQ(cache.Contains(id), model.Contains(id)) << id;
  }
  EXPECT_GT(cache.stats().evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LazyModelDifferentialTest,
    testing::Values(ModelCase{1, 16, true}, ModelCase{2, 16, true},
                    ModelCase{3, 16, false}, ModelCase{5, 0, true},
                    ModelCase{8, 0, false}, ModelCase{13, 4, true},
                    ModelCase{21, 64, true}, ModelCase{34, 16, true}),
    [](const testing::TestParamInfo<ModelCase>& info) {
      return ModelCaseName(info.param);
    });

TEST(LazyEagerAggregateTest, AdversarialWorkloadStaysWithinTolerance) {
  // Near-equal profits are where quantization and staleness can flip
  // individual victim choices; the aggregate paper metrics must still
  // agree tightly. Workload: narrow cost range, sizes alike, heavy
  // churn.
  for (uint64_t seed : {11u, 22u, 33u}) {
    const LncOptions opts = Opts(20000, 4, true, true);
    LncCache lazy(opts);
    testsupport::EagerLncCache eager(opts);
    Rng rng(seed);
    Timestamp now = 0;
    for (int i = 0; i < 30000; ++i) {
      now += 1 + rng.NextBounded(kSecond / 4);
      const uint64_t q = rng.NextBounded(500);
      const uint64_t bytes = 80 + (Fnv1a64("s" + std::to_string(q)) % 80);
      const uint64_t cost = 900 + (Fnv1a64("c" + std::to_string(q)) % 200);
      const QueryDescriptor d = Desc("q" + std::to_string(q), bytes, cost);
      lazy.Reference(d, now);
      eager.Reference(d, now);
    }
    EXPECT_TRUE(lazy.CheckInvariants().ok());
    EXPECT_TRUE(eager.CheckInvariants().ok());
    EXPECT_NEAR(lazy.stats().cost_savings_ratio(),
                eager.stats().cost_savings_ratio(), 0.02)
        << "seed " << seed;
    EXPECT_NEAR(lazy.stats().hit_ratio(), eager.stats().hit_ratio(), 0.02)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace watchman
