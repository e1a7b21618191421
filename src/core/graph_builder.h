#ifndef HETEX_CORE_GRAPH_BUILDER_H_
#define HETEX_CORE_GRAPH_BUILDER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "plan/compiler.h"
#include "core/executor.h"
#include "core/runtime.h"
#include "plan/analysis.h"
#include "plan/het_plan.h"

namespace hetex::core {

/// \brief Lowers a validated HetPlan into the runtime graph and runs it.
///
/// This is the paper's encapsulation contract made executable: the plan — not
/// the engine — decides the execution shape. Analyze() runs plan::AnalyzePlan,
/// which partitions the DAG into stages and exchanges using only the operators
/// and the parameters BuildHetPlan stamped on them (the same analysis
/// PlanCoster prices); Run() instantiates a WorkerGroup per analysed stage, an
/// Edge per exchange (EdgeOptions) and a SourceDriver per segmenter, and
/// orchestrates the phased execution (builds one join after another on each
/// unit — a filter-fed build after its filter stage — then the probe stage,
/// each probe instance gated on the hash-table replicas of its own unit, then
/// the merge of the partials' hash partitions on the probes' cores). Any
/// plan AnalyzePlan accepts — per-edge policy/placement/granularity
/// mutations included — runs without executor changes.
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

  /// Analyzes the plan (plan::AnalyzePlan). Fails (rather than CHECKs) on
  /// shapes the runtime cannot instantiate, so callers can surface the Status
  /// in QueryResult.
  Status Analyze();

  /// The analysed stages Run() instantiates.
  const plan::PlanAnalysis& analysis() const { return analysis_; }

  /// The edge `stage`'s exchange lowers to: the router's policy and control
  /// cost, the crossing latency, a mem-move unless the exchange addresses
  /// memory over UVA, and a unit broadcast on build edges. Run() adds the
  /// session.
  static Edge::Options EdgeOptions(const plan::Stage& stage);

  /// The runtime graph as text: each stage's role, instances and edge.
  std::string Describe() const;

  /// A build stage's pipelines: the build-side filter stage feeding it (an
  /// empty pipeline when segmenter-fed) and the build, which then reads that
  /// stage's packed survivors. Shared by Run() and tooling (plan_explorer's
  /// tier report) so both describe the same programs.
  struct BuildPipelines {
    plan::CompiledPipeline filter;
    plan::CompiledPipeline build;
  };
  BuildPipelines CompileBuildPipelines(const plan::Stage& stage,
                                       plan::QueryCompiler* compiler) const;

  /// Instantiates the runtime objects from the analysed stages and executes
  /// the query, filling `result` (rows, modeled/virtual time, work stats).
  /// A UVA source the placed data makes unreadable (plan::CheckUvaSources)
  /// fails before any stage starts.
  Status Run(plan::QueryCompiler* compiler, QueryResult* result);

 private:
  System* system_;
  const plan::HetPlan* plan_;
  const QuerySession* session_;
  plan::PlanAnalysis analysis_;
};

}  // namespace hetex::core

#endif  // HETEX_CORE_GRAPH_BUILDER_H_
