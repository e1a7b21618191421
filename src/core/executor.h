#ifndef HETEX_CORE_EXECUTOR_H_
#define HETEX_CORE_EXECUTOR_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/query_control.h"
#include "core/system.h"
#include "plan/het_plan.h"
#include "plan/optimizer.h"
#include "plan/query_spec.h"
#include "sim/cost_model.h"

namespace hetex::core {

/// \brief Identity of one in-flight query on the shared virtual timeline.
///
/// `epoch` is the absolute virtual time at which the query arrived at the
/// server. Everything inside the query — instance clocks, block timestamps,
/// the reported latency — stays session-local (starts near zero); the epoch
/// anchors every reservation on a shared resource (PCIe links, DMA engines,
/// GPU kernel streams) at `epoch + session-local time`, so concurrent queries
/// charge each other contention while a query on an idle server behaves
/// exactly as the old rewind-to-zero model did. `query_id` namespaces the
/// query's hash tables in the System-shared HtRegistry.
struct QuerySession {
  uint64_t query_id = 0;
  sim::VTime epoch = 0;
  /// Cooperative cancellation/deadline state (see QueryControl); null for
  /// uncontrolled (solo) sessions. Owned by the scheduler task, outlives the
  /// session.
  const QueryControl* control = nullptr;
};

/// Outcome of a query execution.
struct QueryResult {
  Status status = Status::OK();
  /// Result rows: scalar aggregates = one row of accumulator values; group-bys =
  /// [combined group key, aggregates...], sorted by key.
  std::vector<std::vector<int64_t>> rows;
  sim::VTime modeled_seconds = 0;  ///< virtual-time latency on the modeled server
  double wall_seconds = 0;         ///< host wall-clock of the functional execution
  sim::CostStats stats;            ///< aggregate work counters
  uint64_t query_id = 0;           ///< session id the query ran under
  /// Scheduled queries only: virtual arrival offset relative to the workload
  /// base (as submitted), the absolute epoch the session actually started at,
  /// and the admission queue wait in virtual time (epoch minus arrival).
  /// `queue_wait + modeled_seconds` is the client-observed latency;
  /// `session_epoch + modeled_seconds` orders completions across a batch
  /// (throughput accounting).
  sim::VTime arrival_offset = 0;
  sim::VTime session_epoch = 0;
  sim::VTime queue_wait = 0;
  /// \name Degraded-mode accounting (scheduler recovery path).
  /// A query that hit a fault and recovered reports how: `retries` transient
  /// re-executions (exponential virtual-time backoff), `replanned` when a
  /// device loss forced a re-plan on the surviving device set, `degraded`
  /// when either happened, and `fault` carries the first fault that triggered
  /// recovery (also set when recovery ultimately failed — `status` then holds
  /// the terminal error).
  /// @{
  int retries = 0;
  bool replanned = false;
  bool degraded = false;
  Status fault = Status::OK();
  /// @}
  /// \name Serving-layer reuse accounting (zero/false when reuse is off).
  /// `cache_hit`: the scheduler answered from the result cache — no plan ran,
  /// `modeled_seconds` is the cache lookup cost only. `shared_builds` /
  /// `shared_attaches` count this query's joins that built-and-published vs
  /// attached-to an already-built shared hash-table replica set.
  /// @{
  bool cache_hit = false;
  int shared_builds = 0;
  int shared_attaches = 0;
  /// @}
  /// Probe-stage readiness, one entry per probe unit (a CPU socket or a GPU)
  /// in unit order: the session-local time its probe instances started, i.e.
  /// the latest completion among the hash-table replicas they probe on that
  /// unit. Answers "why did this device start late?" without a trace.
  struct UnitReady {
    sim::DeviceId unit;
    sim::VTime start = 0;
  };
  std::vector<UnitReady> unit_ready;
  /// One entry per (join, unit) replica, in build order: how many instances
  /// built it (`dop`; 0 = attached to a shared build) and the session-local
  /// time it was complete. Answers "which dimension build made this unit
  /// start late?".
  struct BuildDone {
    int join_id = -1;
    sim::DeviceId unit;
    int dop = 0;
    sim::VTime done = 0;
  };
  std::vector<BuildDone> builds;
  /// One fact-phase instance: its core (the unit, and its ordinal among the
  /// stage's instances there, as plan::Core) and its session-local start and
  /// end. A merge instance also counts the result rows it emitted.
  struct CoreSpan {
    sim::DeviceId unit;
    int ordinal = 0;
    sim::VTime start = 0;
    sim::VTime end = 0;
    uint64_t rows = 0;
  };
  /// The probe stage's instances and the partitioned merge's, in stage order.
  /// Merge instance k owns hash partition k of the partial groups and starts
  /// on its core once the core's probe instance ended. `probe_end` is the
  /// latest probe end, so the merge's tail is `modeled_seconds - probe_end`;
  /// `partial_rows` counts the partial groups the probes shipped to it.
  std::vector<CoreSpan> probes;
  std::vector<CoreSpan> merges;
  sim::VTime probe_end = 0;
  uint64_t partial_rows = 0;
};

/// Opaque handle to a query submitted to the concurrent scheduler.
struct QueryHandle {
  uint64_t id = 0;
};

class QueryScheduler;

/// \brief Thin orchestrator: (optimize →) plan → validate → lower → run → collect.
///
/// The executor owns no knowledge of the execution shape. The default entry
/// point — `Execute(spec)` — runs the cost-based optimizer: EnumeratePlans
/// generates the candidate HetPlans the lowering supports, PlanCoster prices
/// each with the virtual-time model, and the cheapest executes. The
/// explicit-policy overload pins the plan shape exactly (benchmarks and
/// shape tests depend on deterministic shapes), bypassing the search.
/// ValidateHetPlan enforces the §3.3 converter rules on every plan, and
/// GraphBuilder lowers the validated DAG into SourceDrivers, Edges and
/// WorkerGroups. Any plan failing validation or lowering surfaces through
/// QueryResult::status instead of executing.
class QueryExecutor {
 public:
  explicit QueryExecutor(System* system);
  ~QueryExecutor();

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  /// Optimizes by default: enumerates, costs and runs the cheapest candidate
  /// under an unconstrained hybrid base policy.
  QueryResult Execute(const plan::QuerySpec& spec);

  /// Plans `spec` under the exact `policy` (no search), then runs the plan.
  QueryResult Execute(const plan::QuerySpec& spec, const plan::ExecPolicy& policy);

  /// Enumerator → coster → picker within the degrees of freedom `base` leaves
  /// open; runs the picked plan. `explain`, when non-null, receives the full
  /// ranked candidate table.
  QueryResult ExecuteOptimized(const plan::QuerySpec& spec,
                               const plan::ExecPolicy& base,
                               plan::OptimizeResult* explain = nullptr);

  /// The optimization pipeline without execution (candidate ranking + cost
  /// breakdowns, for tooling and tests).
  Status Optimize(const plan::QuerySpec& spec, const plan::ExecPolicy& base,
                  plan::OptimizeResult* out) const;

  /// Optimization as seen by a session arriving at absolute virtual time
  /// `epoch`: the coster reads each PCIe link's outstanding backlog beyond the
  /// epoch as a load signal, so plans picked under load account for the
  /// in-flight queries already queued on the interconnects. `Optimize` is this
  /// with epoch = VirtualHorizon() (an idle arrival: zero backlog).
  /// `exclude_gpus`, when non-null, removes those devices from the candidate
  /// space on top of the System health registry's availability at `epoch` —
  /// the scheduler's conservative exclusion set when re-planning after a
  /// kDeviceLost failure.
  Status OptimizeAt(const plan::QuerySpec& spec, const plan::ExecPolicy& base,
                    sim::VTime epoch, plan::OptimizeResult* out,
                    const std::vector<int>* exclude_gpus = nullptr) const;

  /// Human-readable ranked candidate table for `spec` under `base` (the
  /// EXPLAIN path; returns the error text when optimization fails).
  std::string Explain(const plan::QuerySpec& spec, const plan::ExecPolicy& base) const;

  /// Runs a pre-built — possibly hand-mutated — heterogeneity-aware plan.
  /// Changing the plan (router policies, placements, block granularity) changes
  /// the execution without any engine code change.
  ///
  /// The sessionless overload allocates a fresh solo session anchored at the
  /// resource horizon (idle arrival: latency identical to the old
  /// reset-the-clocks model); the session overload is the scheduler's entry
  /// point for concurrent execution on a shared timeline.
  QueryResult ExecutePlan(const plan::QuerySpec& spec, const plan::HetPlan& plan);
  QueryResult ExecutePlan(const plan::QuerySpec& spec, const plan::HetPlan& plan,
                          const QuerySession& session);

  /// \name Concurrent execution
  /// Submits a query to the scheduler (admission-controlled, runs concurrently
  /// with other in-flight queries against this System) and waits for its
  /// result. The scheduler is created on first use with default options; use
  /// `scheduler()` for arrival offsets, pinned policies and admission tuning.
  /// @{
  QueryHandle Submit(const plan::QuerySpec& spec);
  QueryHandle Submit(const plan::QuerySpec& spec, const plan::ExecPolicy& policy);
  QueryResult Wait(QueryHandle handle);
  /// Requests cancellation of a submitted query (see QueryScheduler::Cancel).
  Status Cancel(QueryHandle handle);
  QueryScheduler& scheduler();
  /// @}

 private:
  System* system_;
  std::mutex scheduler_mu_;
  std::unique_ptr<QueryScheduler> scheduler_;
};

}  // namespace hetex::core

#endif  // HETEX_CORE_EXECUTOR_H_
