#ifndef HETEX_CORE_GRAPH_BUILDER_H_
#define HETEX_CORE_GRAPH_BUILDER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/compiler.h"
#include "core/executor.h"
#include "core/runtime.h"
#include "plan/analysis.h"
#include "plan/het_plan.h"

namespace hetex::core {

/// \brief Transport between pipeline spans: one analysed HetPlan exchange
/// (router plus its mem-move / device-crossing converter decoration, or a
/// direct segmenter feed in bare plans) lowered to Edge options.
struct EdgeSpec : plan::Exchange {
  Edge::Options options;
};

/// \brief One runtime stage: a worker group (the merged, identically-programmed
/// spans of every device-type branch fed by the same exchange) plus the edge —
/// and possibly the source driver — feeding it.
struct StageSpec {
  plan::Span span;                      ///< representative span (first branch)
  std::vector<std::vector<int>> branch_nodes;  ///< per-branch span node chains
  std::vector<sim::DeviceId> instances;        ///< concatenated branch placements
  std::vector<plan::Core> cores;               ///< the core of each instance
  EdgeSpec in;
  /// Build stages: index of the build-side filter stage feeding this one in
  /// LoweredSpec::build_filter_stages (-1: segmenter-fed).
  int filter_stage = -1;
};

/// \brief The physical-graph description lowered from a validated HetPlan:
/// what GraphBuilder instantiates and what plan_explorer prints.
struct LoweredSpec {
  /// Join-build stages, each a self-contained source→edge→group graph, or
  /// fed by its build-side filter stage. Each unit runs them one after
  /// another, in this order, before the fact side.
  std::vector<StageSpec> build_stages;
  /// Build-side filter stages (segmenter→edge→group), each run to completion
  /// before the build stage it feeds.
  std::vector<StageSpec> build_filter_stages;
  /// Fact-side stages in consumer→producer order: gather first, then the probe
  /// stage, then (split plans) the filter stage; the last one is segmenter-fed.
  std::vector<StageSpec> fact_stages;
  sim::VTime init_latency = 0;    ///< router bring-up watermark (max over stamps)
  uint64_t channel_capacity = 16;

  int TotalInstances() const;
  int TotalEdges() const;
  std::string ToString() const;
};

/// \brief Lowers a validated HetPlan into the runtime graph and runs it.
///
/// This is the paper's encapsulation contract made executable: the plan — not
/// the engine — decides the execution shape. Analyze() lowers the stages and
/// exchanges plan::AnalyzePlan partitions the DAG into (using only the
/// operators and the parameters BuildHetPlan stamped on them, the same
/// analysis PlanCoster prices); Run() instantiates SourceDrivers, Edges and
/// WorkerGroups from that spec and orchestrates the phased execution (builds
/// one join after another on each unit — a filter-fed build after its filter
/// stage — then the fact graph, each probe instance gated on the hash-table
/// replicas of its own unit). Any
/// plan shape whose spans classify — split filter/probe stages, per-edge
/// policy/placement/granularity mutations — runs without executor changes.
///
/// Scope: the plan governs the *exchange* level (stage structure, placements,
/// DOP, edge policies, block granularity, costs). The relational content of a
/// span is compiled from the QuerySpec by role (CompileSpan), so mutating
/// individual relational nodes inside a span (e.g. deleting a kFilter) does
/// not change the generated pipeline.
class GraphBuilder {
 public:
  /// `session` identifies the owning query on the shared virtual timeline
  /// (hash-table namespace + resource epoch); null = a fresh solo session is
  /// allocated at Run() time.
  GraphBuilder(System* system, const plan::HetPlan* plan,
               const QuerySession* session = nullptr)
      : system_(system), plan_(plan), session_(session) {}

  /// Analyzes the plan (plan::AnalyzePlan) and lowers its exchanges into the
  /// lowered spec. Fails (rather than CHECKs) on shapes the runtime cannot
  /// instantiate, so callers can surface the Status in QueryResult.
  Status Analyze();

  const LoweredSpec& spec() const { return spec_; }

  /// \brief Compiles the fact-chain span pipelines producer→consumer, threading
  /// packed wire schemas (stage B of a split plan reads stage A's emit schema).
  ///
  /// Wire schemas bind positionally; AnalyzePlan admits only chains they
  /// thread through. Shared by Run() and tooling (plan_explorer's tier report)
  /// so both describe the same programs. Returned in fact-stage order
  /// (consumer first).
  std::vector<CompiledPipeline> CompileFactPipelines(
      QueryCompiler* compiler) const;

  /// A build stage's pipelines: the build-side filter stage feeding it (an
  /// empty pipeline when segmenter-fed) and the build, which then reads that
  /// stage's packed survivors. Shared by Run() and tooling like
  /// CompileFactPipelines.
  struct BuildPipelines {
    CompiledPipeline filter;
    CompiledPipeline build;
  };
  BuildPipelines CompileBuildPipelines(const StageSpec& stage,
                                       QueryCompiler* compiler) const;

  /// Instantiates the runtime objects from the analyzed spec and executes the
  /// query, filling `result` (rows, modeled/virtual time, work stats).
  Status Run(QueryCompiler* compiler, QueryResult* result);

 private:
  System* system_;
  const plan::HetPlan* plan_;
  const QuerySession* session_;
  LoweredSpec spec_;
};

}  // namespace hetex::core

#endif  // HETEX_CORE_GRAPH_BUILDER_H_
