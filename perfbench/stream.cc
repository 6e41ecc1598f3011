#include "stream.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#include "storage/schemas.h"
#include "util/hash.h"
#include "watchman/warehouse.h"
#include "workload/tpcd_workload.h"

namespace perfbench {

using watchman::WorkloadMix;

const std::vector<std::string>* TemplateRelations(const std::string& name) {
  // TPC-D 1.x query definitions: the relations each query's FROM
  // clauses (views and subqueries included) read.
  static const std::map<std::string, std::vector<std::string>> kTable = {
      {"tpcd_q1", {"lineitem"}},
      {"tpcd_q2", {"part", "supplier", "partsupp", "nation", "region"}},
      {"tpcd_q3", {"customer", "orders", "lineitem"}},
      {"tpcd_q4", {"orders", "lineitem"}},
      {"tpcd_q5",
       {"customer", "orders", "lineitem", "supplier", "nation", "region"}},
      {"tpcd_q6", {"lineitem"}},
      {"tpcd_q7", {"supplier", "lineitem", "orders", "customer", "nation"}},
      {"tpcd_q8",
       {"part", "supplier", "lineitem", "orders", "customer", "nation",
        "region"}},
      {"tpcd_q9",
       {"part", "supplier", "lineitem", "partsupp", "orders", "nation"}},
      {"tpcd_q10", {"customer", "orders", "lineitem", "nation"}},
      {"tpcd_q11", {"partsupp", "supplier", "nation"}},
      {"tpcd_q12", {"orders", "lineitem"}},
      {"tpcd_q13", {"customer", "orders"}},
      {"tpcd_q14", {"lineitem", "part"}},
      {"tpcd_q15", {"supplier", "lineitem"}},
      {"tpcd_q16", {"partsupp", "part", "supplier"}},
      {"tpcd_q17", {"lineitem", "part"}},
  };
  const auto it = kTable.find(name);
  return it == kTable.end() ? nullptr : &it->second;
}

namespace {

const WorkloadMix& TpcdMix() {
  static const WorkloadMix mix =
      watchman::MakeTpcdWorkload(watchman::MakeTpcdDatabase());
  return mix;
}

}  // namespace

std::vector<std::string> TpcdTemplateNames() {
  std::vector<std::string> names;
  const WorkloadMix& mix = TpcdMix();
  for (size_t i = 0; i < mix.num_templates(); ++i) {
    names.push_back(mix.tmpl(i).name());
  }
  return names;
}

Stream MakeStream(uint64_t seed, size_t connections,
                  size_t queries_per_connection) {
  const WorkloadMix& mix = TpcdMix();
  Stream stream;
  std::map<std::pair<watchman::TemplateId, uint64_t>, uint32_t> index;
  for (size_t c = 0; c < connections; ++c) {
    watchman::TraceGenOptions options;
    options.num_queries = queries_per_connection;
    options.seed = watchman::HashCombine(seed, c);
    const watchman::Trace trace = mix.GenerateTrace(options);
    std::vector<uint32_t>& out = stream.traces.emplace_back();
    out.reserve(trace.size());
    for (const watchman::QueryEvent& event : trace) {
      const auto key = std::make_pair(event.template_id, event.instance);
      auto [it, inserted] =
          index.emplace(key, static_cast<uint32_t>(stream.queries.size()));
      if (inserted) {
        const watchman::QueryTemplate* tmpl =
            mix.FindTemplate(event.template_id);
        const std::vector<std::string>* relations =
            TemplateRelations(tmpl->name());
        if (relations == nullptr) {
          std::fprintf(stderr, "no relation table entry for %s\n",
                       tmpl->name().c_str());
          std::abort();
        }
        Query query;
        query.text = tmpl->QueryText(event.instance);
        query.fill = watchman::SynthesizePayload(
            watchman::HashCombine(event.template_id, event.instance),
            event.result_bytes);
        query.cost = event.cost_block_reads;
        query.relations = *relations;
        stream.queries.push_back(std::move(query));
      }
      out.push_back(it->second);
    }
  }
  return stream;
}

uint64_t OnePercentCapacity() {
  return watchman::MakeTpcdDatabase().total_bytes() / 100;
}

}  // namespace perfbench
