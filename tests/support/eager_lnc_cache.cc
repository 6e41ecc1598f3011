#include "support/eager_lnc_cache.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

namespace watchman {
namespace testsupport {

EagerLncCache::EagerLncCache(const LncOptions& options)
    : QueryCache(Options{options.capacity_bytes, options.k}),
      opts_(options) {
  assert(options.aging_period == 0 && "the eager oracle has no aging mode");
}

std::string EagerLncCache::name() const {
  std::string base = opts_.admission ? "eager-lnc-ra" : "eager-lnc-r";
  return base + "(k=" + std::to_string(k()) + ")";
}

double EagerLncCache::Profit(const Entry& entry, Timestamp now) {
  const double cost_per_byte =
      static_cast<double>(entry.desc.cost) /
      static_cast<double>(entry.desc.result_bytes);
  const auto rate = entry.history.EstimateRate(now);
  return rate.has_value() ? *rate * cost_per_byte : cost_per_byte;
}

void EagerLncCache::Rekey(Entry* entry, Timestamp now) {
  by_profit_.Update(entry, static_cast<uint32_t>(entry->history.size()),
                    Profit(*entry, now), 0);
}

void EagerLncCache::MaybeSweep(Timestamp now) {
  if (!refresh_queue_.empty() && opts_.sweep_interval > 0) {
    const size_t batch =
        (entry_count() + opts_.sweep_interval - 1) / opts_.sweep_interval;
    for (size_t i = 0; i < batch; ++i) {
      Entry* e = refresh_queue_.front();
      Rekey(e, now);
      refresh_queue_.MoveToBack(e);
    }
  }
  if (++references_since_sweep_ < opts_.sweep_interval) return;
  references_since_sweep_ = 0;
  if (!opts_.retain_reference_info || retained_.empty()) return;
  double min_profit = std::numeric_limits<double>::infinity();
  for (Entry* e : AllEntries()) {
    min_profit = std::min(min_profit, Profit(*e, now));
  }
  if (std::isinf(min_profit)) return;
  retained_.SweepBelowProfit(min_profit, now);
}

void EagerLncCache::OnHit(Entry* entry, Timestamp now) {
  Rekey(entry, now);
  refresh_queue_.MoveToBack(entry);
  MaybeSweep(now);
}

void EagerLncCache::OnMiss(const QueryDescriptor& d, Timestamp now) {
  MaybeSweep(now);
  if (d.result_bytes > capacity_bytes() || d.result_bytes == 0) {
    CountTooLargeRejection();
    return;
  }

  ReferenceHistory history(k());
  bool had_retained = false;
  if (opts_.retain_reference_info) {
    if (RetainedInfo* info = retained_.Find(d.key)) {
      history = info->history;
      had_retained = true;
    }
  }
  history.Record(now);

  if (d.result_bytes <= available_bytes()) {
    InsertEntry(d, now, &history);
    if (had_retained) retained_.Remove(d.key);
    return;
  }

  CollectVictimsInto(by_profit_, d.result_bytes - available_bytes(),
                     &candidates_);

  bool admit = true;
  if (opts_.admission) {
    // Explicit eq. 5 / eq. 8 sums over the candidate list.
    double rate_cost_sum = 0.0;
    double cost_sum = 0.0;
    double size_sum = 0.0;
    for (const Entry* e : candidates_) {
      const double bytes = static_cast<double>(e->desc.result_bytes);
      const double cost = static_cast<double>(e->desc.cost);
      const auto rate = e->history.EstimateRate(now);
      rate_cost_sum += (rate.has_value() ? *rate : 1.0 / bytes) * cost;
      cost_sum += cost;
      size_sum += bytes;
    }
    const auto rate = history.EstimateRate(now);
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
    for (Entry* victim : candidates_) EvictEntry(victim);
    candidates_.clear();
    InsertEntry(d, now, &history);
    if (opts_.retain_reference_info) retained_.Remove(d.key);
  } else {
    CountAdmissionRejection();
    if (opts_.retain_reference_info) {
      RetainedInfo info;
      info.history = history;
      info.result_bytes = d.result_bytes;
      info.cost = d.cost;
      retained_.Put(d.key, std::move(info));
    }
  }
}

void EagerLncCache::OnInsert(Entry* entry, Timestamp now) {
  by_profit_.Add(entry, static_cast<uint32_t>(entry->history.size()),
                 Profit(*entry, now), 0);
  refresh_queue_.PushBack(entry);
}

void EagerLncCache::OnEvict(Entry* entry) {
  by_profit_.Remove(entry);
  refresh_queue_.Remove(entry);
  if (!opts_.retain_reference_info) return;
  RetainedInfo info;
  info.history = entry->history;
  info.result_bytes = entry->desc.result_bytes;
  info.cost = entry->desc.cost;
  retained_.Put(entry->desc.key, std::move(info));
}

Status EagerLncCache::CheckPolicyIndex() const {
  uint64_t bytes = 0;
  for (const auto& item : by_profit_) {
    if (item.key.bucket != item.node->history.size()) {
      return Status::Internal("eager lnc index bucket out of date");
    }
    bytes += item.node->desc.result_bytes;
  }
  if (refresh_queue_.size() != entry_count()) {
    return Status::Internal("eager lnc refresh queue entry count mismatch");
  }
  return CheckIndexAccounting("eager lnc index", by_profit_.size(), bytes);
}

}  // namespace testsupport
}  // namespace watchman
