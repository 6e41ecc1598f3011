#include "cache/lnc_cache.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

namespace watchman {

LncCache::LncCache(const LncOptions& options)
    : QueryCache(Options{options.capacity_bytes, options.k}),
      opts_(options),
      by_profit_(options.profit_quant_steps) {}

std::string LncCache::name() const {
  std::string base = opts_.admission ? "lnc-ra" : "lnc-r";
  return base + "(k=" + std::to_string(k()) + ")";
}

std::optional<double> LncCache::Rate(const ReferenceHistory& history,
                                     Timestamp now) const {
  Timestamp eval_time = now;
  if (opts_.aging_period > 0) {
    // Reduced-overhead mode: profits are evaluated against the last
    // refresh tick, so between ticks the estimates stay frozen.
    eval_time = std::max(aging_tick_, history.empty() ? 0 : history.last());
  }
  return history.EstimateRate(eval_time);
}

double LncCache::EntryProfit(const Entry& entry, Timestamp now) const {
  assert(entry.desc.result_bytes > 0);
  const double cost_per_byte =
      static_cast<double>(entry.desc.cost) /
      static_cast<double>(entry.desc.result_bytes);
  const auto rate = Rate(entry.history, now);
  if (!rate.has_value()) return cost_per_byte;
  return *rate * cost_per_byte;
}

double LncCache::MinCachedProfit(Timestamp now) {
  double min_profit = std::numeric_limits<double>::infinity();
  for (Entry* e : AllEntries()) {
    min_profit = std::min(min_profit, EntryProfit(*e, now));
  }
  return min_profit;
}

double LncCache::ApproxMinCachedProfit(Timestamp now) {
  double min_profit = std::numeric_limits<double>::infinity();
  size_t probed = 0;
  auto it = by_profit_.begin();
  while (it != by_profit_.end() && probed < kMinProfitProbe) {
    Entry* e = it->node;
    ++it;  // advance before the refresh may re-seat e
    const double profit = EntryProfit(*e, now);
    by_profit_.Refresh(e, static_cast<uint32_t>(e->history.size()), profit,
                       now);
    min_profit = std::min(min_profit, profit);
    ++probed;
  }
  return min_profit;
}

void LncCache::SelectCandidates(uint64_t bytes_needed, Timestamp now,
                                CandidateAggregates* agg) {
  // Bucket R_i: i = number of recorded references (capped at K by the
  // history window). Lower buckets are evicted first; ascending profit
  // within a bucket.
  //
  // The index holds each entry's profit as of its last evaluation, an
  // upper bound of its profit at `now`. Re-validate each candidate at
  // decision time -- the fresh key only moves toward the eviction end,
  // so the walk still visits the ascending prefix of current keys --
  // and fold its rate into the admission aggregates while its history
  // is hot in cache.
  CollectVictimsValidatedInto(
      by_profit_, bytes_needed,
      [this, now, agg](Entry* e) {
        const auto rate = Rate(e->history, now);
        const double bytes = static_cast<double>(e->desc.result_bytes);
        const double cost = static_cast<double>(e->desc.cost);
        // Same association as EntryProfit -- rate * (cost/bytes) -- so
        // the stored key bit-matches a later recomputation.
        const double cost_per_byte = cost / bytes;
        const double profit =
            rate.has_value() ? *rate * cost_per_byte : cost_per_byte;
        by_profit_.Refresh(e, static_cast<uint32_t>(e->history.size()),
                           profit, now);
        // Candidates are cached, so they carry at least one past
        // reference; a missing rate can only mean the entry was
        // inserted at `now` itself. Eq. 5 falls back to lambda = 1/s.
        agg->rate_cost_sum += (rate.has_value() ? *rate : 1.0 / bytes) * cost;
        agg->cost_sum += cost;
        agg->size_sum += bytes;
      },
      &candidate_scratch_);
}

void LncCache::OnHit(Entry* entry, Timestamp now) {
  // Re-evaluate only the touched entry; the quantized level usually has
  // not moved, so most hits skip the tree re-key.
  by_profit_.Refresh(entry, static_cast<uint32_t>(entry->history.size()),
                     EntryProfit(*entry, now), now);
  MaybeSweep(now);
}

void LncCache::OnMiss(const QueryDescriptor& d, Timestamp now) {
  MaybeSweep(now);
  if (d.result_bytes > capacity_bytes() || d.result_bytes == 0) {
    CountTooLargeRejection();
    return;
  }

  // Reconstruct the reference information for RS_i: retained history if
  // available, then record the current reference.
  ReferenceHistory history(k());
  bool had_retained = false;
  if (opts_.retain_reference_info) {
    if (RetainedInfo* info = retained_.Find(d.key)) {
      history = info->history;
      had_retained = true;
    }
  }
  history.Record(now);

  // Figure 1: when the set fits into free space it is cached without an
  // admission test.
  if (d.result_bytes <= available_bytes()) {
    InsertEntry(d, now, &history);
    if (had_retained) retained_.Remove(d.key);
    return;
  }

  const uint64_t bytes_needed = d.result_bytes - available_bytes();
  CandidateAggregates agg;
  SelectCandidates(bytes_needed, now, &agg);

  bool admit = true;
  if (opts_.admission) {
    // LNC-A (Figure 1): with reference information compare profits,
    // otherwise compare estimated profits. The candidates' rates were
    // already estimated during the selection walk -- the aggregates
    // reuse them.
    const auto rate = Rate(history, now);
    if (rate.has_value()) {
      const double profit_rs = *rate * static_cast<double>(d.cost) /
                               static_cast<double>(d.result_bytes);
      admit = profit_rs > agg.profit();
    } else {
      const double e_profit_rs = static_cast<double>(d.cost) /
                                 static_cast<double>(d.result_bytes);
      admit = e_profit_rs > agg.estimated_profit();
    }
  }

  if (admit) {
    for (Entry* victim : candidate_scratch_) EvictEntry(victim);
    candidate_scratch_.clear();
    InsertEntry(d, now, &history);
    if (opts_.retain_reference_info) retained_.Remove(d.key);
  } else {
    CountAdmissionRejection();
    if (opts_.retain_reference_info) {
      // Section 2.4 (last paragraph): sets the admission algorithm
      // rejects also retain their reference information, so a set that
      // is initially rejected can be admitted once enough references
      // accumulate.
      RetainedInfo info;
      info.history = history;
      info.result_bytes = d.result_bytes;
      info.cost = d.cost;
      retained_.Put(d.key, std::move(info));
    }
  }
}

void LncCache::OnInsert(Entry* entry, Timestamp now) {
  by_profit_.Add(entry, static_cast<uint32_t>(entry->history.size()),
                 EntryProfit(*entry, now), now);
}

void LncCache::OnEvict(Entry* entry) {
  by_profit_.Remove(entry);
  RetainEntryInfo(*entry);
}

Status LncCache::CheckPolicyIndex() const {
  uint64_t bytes = 0;
  const Timestamp now = last_reference_time();
  for (const auto& item : by_profit_) {
    const Entry* e = item.node;
    if (item.key.bucket != e->history.size()) {
      return Status::Internal("lnc index bucket out of date");
    }
    bytes += e->desc.result_bytes;
    // Staleness bounds: the evaluation stamp lies between the entry's
    // last reference and the cache's latest reference ...
    if (e->history.empty() || e->vkey_eval < e->history.last() ||
        e->vkey_eval > now) {
      return Status::Internal("lnc key evaluation stamp out of bounds");
    }
    if (opts_.aging_period == 0) {
      // ... the stored key is exactly the entry's quantized profit at
      // its evaluation time (profits are pure functions of the history,
      // which has not changed since vkey_eval) ...
      const double at_eval =
          by_profit_.QuantizeKey(EntryProfit(*e, e->vkey_eval));
      if (item.key.primary != at_eval) {
        return Status::Internal("lnc key does not match eval-time profit");
      }
      // ... and profits only decay, so the stored key is an upper bound
      // of the entry's current quantized profit (the property the
      // revalidated victim walk relies on).
      const double at_now = by_profit_.QuantizeKey(EntryProfit(*e, now));
      if (item.key.primary < at_now) {
        return Status::Internal("lnc key below current profit "
                                "(decay violated)");
      }
    }
  }
  return CheckIndexAccounting("lnc index", by_profit_.size(), bytes);
}

void LncCache::OnCompact() {
  retained_.Compact();
  candidate_scratch_.clear();
  candidate_scratch_.shrink_to_fit();
}

void LncCache::RetainEntryInfo(const Entry& entry) {
  if (!opts_.retain_reference_info) return;
  RetainedInfo info;
  info.history = entry.history;
  info.result_bytes = entry.desc.result_bytes;
  info.cost = entry.desc.cost;
  retained_.Put(entry.desc.key, std::move(info));
}

void LncCache::MaybeSweep(Timestamp now) {
  if (opts_.aging_period > 0 && now >= aging_tick_ + opts_.aging_period) {
    aging_tick_ = now;
  }
  if (++references_since_sweep_ < opts_.sweep_interval) return;
  references_since_sweep_ = 0;
  if (!opts_.retain_reference_info) return;
  if (retained_.empty()) return;
  const double min_profit = ApproxMinCachedProfit(now);
  if (std::isinf(min_profit)) return;
  retained_.SweepBelowProfit(min_profit, now);
}

}  // namespace watchman
