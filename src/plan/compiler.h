#ifndef HETEX_PLAN_COMPILER_H_
#define HETEX_PLAN_COMPILER_H_

#include <map>
#include <string>
#include <vector>

#include "jit/program.h"
#include "plan/analysis.h"
#include "plan/het_plan.h"
#include "plan/query_spec.h"
#include "sim/cost_model.h"
#include "storage/table.h"

namespace hetex::plan {

/// One column of a pipeline's input or output schema, and the code its
/// values travel in (IntCode: each value v as v − base at `width` bytes).
/// The processor binds both per message; the compiled program depends on the
/// width only.
struct ColSlot {
  std::string name;
  uint32_t width = 8;
  int64_t base = 0;
};

/// \brief A device-agnostic compiled pipeline: the fused program plus the schema
/// and state metadata the runtime needs to bind it to an instance.
///
/// The program is generated once; each instance takes a copy and finalizes it
/// through its DeviceProvider (the paper's per-device "pipeline template"
/// instantiation, §4.2).
struct CompiledPipeline {
  jit::PipelineProgram program;
  std::vector<ColSlot> input_cols;
  std::vector<ColSlot> output_cols;      ///< per-tuple emit schema (may be empty)
  std::vector<int> ht_join_slots;        ///< ht slot index -> join id (probes)
  int agg_ht_slot = -1;                  ///< slot of the group-by hash table
  int n_group_vals = 0;                  ///< aggregates folded per group
  jit::AggFunc group_funcs[8] = {};
  uint64_t groups_capacity = 0;
};

/// Aggregation function used when merging partial aggregates (COUNT partials are
/// summed; SUM/MIN/MAX merge with themselves).
jit::AggFunc MergeFunc(jit::AggFunc f);

/// \brief Generates the fused pipeline programs for a query.
///
/// This is the produce()/consume() stage of the paper's §4.1: relational operators
/// contribute straight-line VM code in consume order (filters first, one
/// kFilter per AND conjunct after the loads of every column the predicate
/// reads — GenFilter —, then the probe loops of the joins nested in
/// ProbeOrder, then accumulation), and HetExchange operators define the
/// pipeline boundaries. Literal operands ride in their instructions, and the
/// probe of a unique build key (JoinKeyUnique) stops at its first match.
/// Hash-table random-access size classes are stamped into the code from the
/// modeled table footprints.
class QueryCompiler {
 public:
  QueryCompiler(const QuerySpec& spec, const storage::Catalog& catalog,
                const sim::CostModel& cost_model);

  /// \brief Compiles the fused program of one DAG span (the lowering's entry
  /// point: pipelines are requested per span, not per fixed stage name —
  /// AnalyzePlan cuts the DAG into spans).
  ///
  /// `upstream_schema` is the producer span's emit schema when the span reads
  /// packed intermediate blocks (a build fed by a build-side filter stage)
  /// instead of a table.
  CompiledPipeline CompileSpan(const Span& span,
                               const std::vector<ColSlot>* upstream_schema) const;

  /// Build pipeline of join `j`: filter + key/payload extraction + HT insert.
  /// When `input_schema` is non-null, the pipeline reads that packed schema
  /// (the survivors of a build-side filter stage) and skips the filter.
  CompiledPipeline CompileBuild(
      int join_id, const std::vector<ColSlot>* input_schema = nullptr) const;

  /// The fused fact pipeline: it reads the fact table and runs the filters,
  /// then one probe loop per join nested in ProbeOrder (the loop of join j
  /// reads hash-table slot j), then local aggregation in the innermost body.
  CompiledPipeline CompileProbe() const;

  /// Build-side filter stage of join `join_id` (hybrid plans): the build
  /// filter + a pack emit of the survivors' build key and payload.
  CompiledPipeline CompileBuildFilter(int join_id) const;

  /// Global merge of partial aggregates (the gather pipeline).
  CompiledPipeline CompileGather() const;

  /// Schema of the partial-aggregate messages probe instances emit.
  std::vector<ColSlot> PartialsSchema() const;

  const QuerySpec& spec() const { return *spec_; }

 private:
  const QuerySpec* spec_;
  const storage::Catalog* catalog_;
  const sim::CostModel* cost_model_;
};

}  // namespace hetex::plan

#endif  // HETEX_PLAN_COMPILER_H_
