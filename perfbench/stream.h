// The benchmark's request stream: seeded TPC-D traces (the paper's
// 17-template mix) turned into the query texts, fills and relation
// lists a warehouse front-end would send to watchmand.

#ifndef WATCHMAN_PERFBENCH_STREAM_H_
#define WATCHMAN_PERFBENCH_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One distinct TPC-D query instance and the result the generator
/// computes for it on a miss.
struct Query {
  std::string text;
  /// SynthesizePayload of the instance's result_bytes: the fill offered
  /// on a miss and the payload every hit must return byte for byte.
  std::string fill;
  uint64_t cost = 0;
  /// The TPC-D relations the query's template reads (coherence).
  std::vector<std::string> relations;
};

/// Queries per connection trace: the paper's trace length.
inline constexpr size_t kTraceQueries = 17000;
/// A TPC-D refresh (UF1/UF2) every this many queries of connection 0.
inline constexpr size_t kRefreshEvery = 1000;
/// The relations a refresh updates, invalidated in this order.
inline const char* const kRefreshRelations[] = {"orders", "lineitem"};

struct Stream {
  /// Distinct queries; traces index into this table.
  std::vector<Query> queries;
  /// One trace (indices into `queries`) per connection, each drawn
  /// from its own seed of the same TPC-D mix.
  std::vector<std::vector<uint32_t>> traces;
};

/// The relations read by TPC-D template `name` ("tpcd_q1".."tpcd_q17");
/// nullptr for a template the table does not cover.
const std::vector<std::string>* TemplateRelations(const std::string& name);

/// Every template name of the TPC-D mix, in mix order.
std::vector<std::string> TpcdTemplateNames();

/// Builds `connections` traces of `queries_per_connection` queries from
/// `seed`. The same arguments always give the same stream.
Stream MakeStream(uint64_t seed, size_t connections,
                  size_t queries_per_connection);

/// Capacity the paper calls realistic: 1% of the TPC-D database.
uint64_t OnePercentCapacity();

}  // namespace perfbench

#endif  // WATCHMAN_PERFBENCH_STREAM_H_
