// Differential of the lazy LNC implementation against the eager
// reference implementation (tests/support/eager_lnc_cache.h, the test
// oracle) on the fig4/fig5 workload: the paper-level metrics (cost
// savings ratio, hit ratio) must agree within a tight documented
// tolerance across cache sizes, for both LNC-R and LNC-RA.
//
// Individual victim choices are allowed to differ -- lazy aging ranks
// un-walked entries by their last-evaluated profit while the eager
// implementation re-ages every key within its sweep horizon; both
// approximate the paper's decision-time ideal -- so this test pins the
// metrics the paper reports, not the decision stream (the decision
// stream of the lazy semantics itself is verified exactly against a
// brute-force model in tests/cache/lazy_profit_test.cc).

#include <gtest/gtest.h>

#include <cstdio>

#include "cache/lnc_cache.h"
#include "cache/query_descriptor.h"
#include "sim/simulator.h"
#include "storage/schemas.h"
#include "support/eager_lnc_cache.h"
#include "workload/tpcd_workload.h"

namespace watchman {
namespace {

/// Documented tolerance, calibrated over six trace seeds (see the
/// PR's knob sweep): lazy minus eager CSR/HR is within [-0.035, +0.02]
/// for LNC-RA at every size, and within [-0.035, +0.10] for LNC-R --
/// the upper excursion is systematic and in lazy's favour (ranking by
/// profit-at-last-reference retains once-hot sets longer, which helps
/// LNC-R at mid cache sizes on TPC-D; LNC-A admission mostly cancels
/// the effect). The floor is what matters for "holds the paper's
/// results": lazy never degrades a figure by more than 0.035 absolute.
constexpr double kDegradationTolerance = 0.035;
constexpr double kImprovementToleranceRa = 0.02;
constexpr double kImprovementToleranceR = 0.10;

struct TpcdSetup {
  Database db;
  Trace trace;
};

const TpcdSetup& TpcdFixture() {
  static const TpcdSetup* setup = [] {
    auto* s = new TpcdSetup{MakeTpcdDatabase(), Trace{}};
    WorkloadMix mix = MakeTpcdWorkload(s->db);
    TraceGenOptions opts;
    opts.num_queries = 4000;
    opts.seed = 20260730;
    s->trace = mix.GenerateTrace(opts);
    return s;
  }();
  return *setup;
}

class LazyEagerSimTest
    : public testing::TestWithParam<std::pair<PolicyKind, double>> {};

TEST_P(LazyEagerSimTest, Fig4Fig5MetricsMatchEagerWithinTolerance) {
  const auto [kind, cache_percent] = GetParam();
  const TpcdSetup& setup = TpcdFixture();
  const uint64_t capacity = static_cast<uint64_t>(
      static_cast<double>(setup.db.total_bytes()) * cache_percent / 100.0);

  PolicyConfig lazy;
  lazy.kind = kind;
  lazy.k = 4;
  const RunResult lazy_result = RunSimulation(setup.trace, lazy, capacity);

  LncOptions eager_opts;
  eager_opts.capacity_bytes = capacity;
  eager_opts.k = 4;
  eager_opts.admission = kind == PolicyKind::kLncRA;
  testsupport::EagerLncCache eager(eager_opts);
  for (const QueryEvent& e : setup.trace) {
    eager.Reference(QueryDescriptor::FromEvent(e), e.timestamp);
  }
  ASSERT_TRUE(eager.CheckInvariants().ok());
  const double eager_csr = eager.stats().cost_savings_ratio();
  const double eager_hr = eager.stats().hit_ratio();

  std::printf("  %-12s %4.1f%%: CSR lazy %.4f eager %.4f (d=%+.4f)  "
              "HR lazy %.4f eager %.4f (d=%+.4f)\n",
              lazy_result.policy_name.c_str(), cache_percent,
              lazy_result.cost_savings_ratio, eager_csr,
              lazy_result.cost_savings_ratio - eager_csr,
              lazy_result.hit_ratio, eager_hr,
              lazy_result.hit_ratio - eager_hr);

  const double improvement_tolerance = kind == PolicyKind::kLncRA
                                           ? kImprovementToleranceRa
                                           : kImprovementToleranceR;
  // Figure 4 metric: cost savings ratio.
  EXPECT_GE(lazy_result.cost_savings_ratio, eager_csr - kDegradationTolerance);
  EXPECT_LE(lazy_result.cost_savings_ratio, eager_csr + improvement_tolerance);
  // Figure 5 metric: hit ratio.
  EXPECT_GE(lazy_result.hit_ratio, eager_hr - kDegradationTolerance);
  EXPECT_LE(lazy_result.hit_ratio, eager_hr + improvement_tolerance);
  // Sanity: both runs actually exercised replacement.
  EXPECT_GT(
      lazy_result.stats.evictions + lazy_result.stats.admission_rejections,
      0u);
  EXPECT_GT(eager.stats().evictions + eager.stats().admission_rejections,
            0u);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSizes, LazyEagerSimTest,
    testing::Values(std::make_pair(PolicyKind::kLncR, 0.5),
                    std::make_pair(PolicyKind::kLncR, 2.0),
                    std::make_pair(PolicyKind::kLncRA, 0.5),
                    std::make_pair(PolicyKind::kLncRA, 2.0),
                    std::make_pair(PolicyKind::kLncRA, 5.0)));

}  // namespace
}  // namespace watchman
