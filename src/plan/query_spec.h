#ifndef HETEX_PLAN_QUERY_SPEC_H_
#define HETEX_PLAN_QUERY_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "jit/hash_table.h"
#include "plan/expr.h"
#include "sim/topology.h"

namespace hetex::plan {

/// \brief One equi-join against a dimension ("build") table.
///
/// The evaluation plans are broadcast hash joins, matching the plans the paper's
/// optimizer picks for SSB (§6.1): the (filtered, projected) build side is
/// broadcast by mem-move to every join participant, each of which builds a local
/// hash table; the probe is fused into the fact pipeline.
struct JoinSpec {
  std::string build_table;
  ExprPtr build_filter;                  ///< may be null
  std::string build_key;                 ///< key column on the build table
  std::vector<std::string> payload;      ///< build columns carried to the probe side
  std::string probe_key;                 ///< key column on the probe (fact) side
  /// Optimizer cardinality estimate of the *filtered* build side (sizes the hash
  /// table, as a codegen engine would from catalog statistics). 0 = table rows.
  uint64_t build_rows_estimate = 0;
};

/// One aggregate of the query's SELECT list.
struct AggSpec {
  ExprPtr value;        ///< ignored for kCount
  jit::AggFunc func;
  std::string name;
};

/// \brief Device-independent logical/physical query description (the paper's
/// Fig. 1a / Fig. 2a stage): scan-filter-join*-aggregate over a star schema.
struct QuerySpec {
  std::string name;
  std::string fact_table;
  ExprPtr fact_filter;                   ///< may be null; over fact columns
  std::vector<JoinSpec> joins;
  std::vector<ExprPtr> group_by;         ///< empty = scalar aggregation
  std::vector<AggSpec> aggs;

  /// Upper bound on distinct groups (sizes the aggregation hash tables; codegen
  /// engines take this from optimizer cardinality estimates).
  uint64_t expected_groups = 1ull << 16;

  /// Product of the group-by key *domain* cardinalities (what a naive dense
  /// cardinality estimator would have to materialize; drives the DBMS G Q4.3
  /// failure emulation). 0 = unknown/small.
  uint64_t group_domain_cardinality = 0;

  /// Feature flag consumed by engine emulations: set when the original SQL used a
  /// string inequality/range predicate (DBMS G cannot execute those — Q2.2, §6.1).
  bool uses_string_range_predicate = false;
};

/// Bits per group-by key when packing several keys into one 64-bit group key.
inline constexpr int kGroupKeyBits = 21;

/// Combines group-by key expressions into a single int64 key expression
/// (key0 in the highest bits). All SSB group keys fit well within 21 bits.
ExprPtr CombineGroupKeys(const std::vector<ExprPtr>& keys);

/// Canonical content key of a query spec: a stable serialization of every
/// field that determines the computed rows (`name`, a display label, is
/// excluded). Two specs with equal keys compute identical results over
/// identical table contents — the serving layer's result cache appends the
/// referenced tables' mutation epochs to this to form its lookup key.
std::string CanonicalSpecKey(const QuerySpec& spec);

/// \brief How and where to run a query (the heterogeneity-aware part of the plan).
struct ExecPolicy {
  enum class Mode { kCpuOnly, kGpuOnly, kHybrid };

  Mode mode = Mode::kHybrid;
  int cpu_workers = -1;            ///< -1: all cores (ignored for kGpuOnly)
  std::vector<int> gpus;           ///< empty: all GPUs (ignored for kCpuOnly)

  /// false = "bare Proteus": no HetExchange operators, single compute unit,
  /// sequential execution (the dashed baselines of Figs 7/8). GPU bare mode reads
  /// host memory via UVA, as the paper's non-HetExchange GPU configuration does.
  bool use_hetexchange = true;

  /// A label only: no engine code reads it. Where the input columns live (the
  /// Fig. 4 regime keeps them in GPU memory) is decided by storage::Table::Place
  /// before the query runs, and the plan reads the placed chunks.
  bool data_on_gpu = false;

  uint64_t block_rows = 128 * 1024;  ///< staging-block granularity in tuples

  /// Router consumer choice: true = virtual-time-aware least-loaded (the paper's
  /// load-balancing behaviour); false = strict round-robin (deterministic tests).
  bool load_balance = true;

  static ExecPolicy CpuOnly(int workers = -1) {
    ExecPolicy p;
    p.mode = Mode::kCpuOnly;
    p.cpu_workers = workers;
    return p;
  }
  static ExecPolicy GpuOnly(std::vector<int> gpus = {}) {
    ExecPolicy p;
    p.mode = Mode::kGpuOnly;
    p.gpus = std::move(gpus);
    return p;
  }
  static ExecPolicy Hybrid(int workers = -1, std::vector<int> gpus = {}) {
    ExecPolicy p;
    p.mode = Mode::kHybrid;
    p.cpu_workers = workers;
    p.gpus = std::move(gpus);
    return p;
  }
  static ExecPolicy Bare(sim::DeviceType type) {
    ExecPolicy p;
    p.mode = type == sim::DeviceType::kCpu ? Mode::kCpuOnly : Mode::kGpuOnly;
    p.cpu_workers = 1;
    p.gpus = {0};
    p.use_hetexchange = false;
    return p;
  }
};

}  // namespace hetex::plan

#endif  // HETEX_PLAN_QUERY_SPEC_H_
