#ifndef HETEX_PLAN_ANALYSIS_H_
#define HETEX_PLAN_ANALYSIS_H_

#include <cstdint>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "plan/het_plan.h"
#include "plan/query_spec.h"
#include "sim/topology.h"
#include "storage/table.h"

namespace hetex::plan {

/// What a pipeline span computes, classified by its relational content.
enum class StageRole {
  kBuild,        ///< feeds a join hash table (pipeline breaker into state)
  kFilterStage,  ///< filter + pack emit: stage A of a split plan (hash-pack),
                 ///< or a build-side filter stage (span join id >= 0)
  kProbe,        ///< fused filter/probe/local-aggregate stage
  kGather,       ///< global merge of partials, writes the result
};

const char* StageRoleName(StageRole role);

/// \brief One branch of a stage: a maximal run of compute operators between
/// exchange boundaries (routers / segmenters / pack tops), compiled into one
/// pipeline and run by the instances its nodes are stamped with.
struct Span {
  StageRole role = StageRole::kProbe;
  std::vector<int> nodes;                ///< plan node ids, consumer→producer
  std::vector<sim::DeviceId> instances;  ///< placement stamped on the span nodes
  int join_id = -1;  ///< kBuild, build-side kFilterStage: join whose HT it feeds
  /// Consumer-side decoration of the exchange feeding this branch: a kCpu2Gpu
  /// crossing enters it, and (`uva`) that crossing reads producer memory in
  /// place over UVA instead of behind a mem-move.
  bool gpu_entry = false;
  bool uva = false;
};

/// \brief The exchange below a stage: its router (absent in bare plans) with
/// the mem-move / device-crossing decoration on both sides, down to the
/// source segmenter or the producer spans' tops.
struct Exchange {
  int router = -1;     ///< plan node id of the kRouter (-1: bare direct feed)
  int segmenter = -1;  ///< plan node id of the kSegmenter feeding the exchange
  std::vector<int> producer_tops;   ///< top plan nodes of the producer spans
  /// The router's stamped policy and per-message control cost (a bare direct
  /// feed rotates at no cost).
  RouterPolicy policy = RouterPolicy::kRoundRobin;
  double control_cost = 0;
  sim::VTime crossing_latency = 0;  ///< max kGpu2Cpu latency, either side
  bool uva = false;  ///< a crossing on either side addresses memory over UVA
};

/// \brief A core: a unit (a socket, or a GPU) and an ordinal among one
/// stage's instances on that unit. A socket's k-th build-side filter instance
/// and its k-th build instance run on the same core, one stage at a time.
struct Core {
  sim::DeviceId unit;
  int ordinal = 0;

  friend bool operator<(const Core& a, const Core& b) {
    return std::tie(a.unit, a.ordinal) < std::tie(b.unit, b.ordinal);
  }
};

/// \brief One stage: the branches one exchange feeds, run as one worker group.
/// Branches agree on role and join id (they compile to one program); each
/// keeps its own placement and crossing flags.
struct Stage {
  std::vector<Span> branches;            ///< plan order; front() is representative
  std::vector<sim::DeviceId> instances;  ///< concatenated branch placements
  std::vector<Core> cores;               ///< the core of each instance
  Exchange in;
  /// Build stages fed by a build-side filter stage: its index in
  /// PlanAnalysis::build_filter_stages (-1: fed by its own segmenter).
  int filter_stage = -1;

  const Span& span() const { return branches.front(); }
};

/// \brief The execution shape a plan decides: the runtime graph GraphBuilder
/// instantiates and the stages PlanCoster prices are both read from here.
struct PlanAnalysis {
  /// Join-build stages in discovery order, each fed by its own segmenter or
  /// by the build-side filter stage its `filter_stage` names.
  std::vector<Stage> build_stages;
  /// Build-side filter stages (hybrid plans, joins with a build filter): each
  /// reads its dimension through a segmenter, filters it on CPU workers and
  /// packs the survivors' build key and payload (span join id = the join).
  std::vector<Stage> build_filter_stages;
  /// Fact-side stages consumer→producer: gather first, then the probe stage,
  /// then (split plans) the filter stage; the last one is segmenter-fed.
  std::vector<Stage> fact_stages;
  sim::VTime init_latency = 0;  ///< router bring-up watermark (max over stamps)
};

/// \brief Partitions a HetPlan DAG into stages and exchanges, and enforces
/// every structural rule a runnable plan obeys.
///
/// Beyond the span/exchange shape (no cycles, one router or segmenter per
/// exchange, a placement stamp on every span), the rules are: the branches of
/// a stage are stamped consistently; every placement names a device of
/// `topo`; each join has exactly one hash-table replica per device unit it
/// builds on and one on every unit that probes it; no UVA exchange is fed by
/// GPU-placed producers (device-resident blocks cannot be addressed in place);
/// the fact chain ends in a gather, holds no build span, and threads its wire
/// schemas (a probe reads a filter stage or the table, a filter stage reads
/// the table, a gather reads probe partials); a build reads its table or a
/// segmenter-fed filter stage. A plan failing any of them is a Status here,
/// for the lowering and the coster alike.
Result<PlanAnalysis> AnalyzePlan(const HetPlan& plan, const sim::Topology& topo);

/// \brief Rows per scan block of `segmenter` feeding `instances`.
///
/// The stamped granularity (the ExecPolicy default when unstamped), clamped
/// to one staging block of `staging_rows` rows when any instance is a GPU or
/// any chunk of `table` is GPU-resident: a GPU-bound scan block must fit one
/// staging arena block when the mem-move copies it to device memory and one
/// GPU emit bucket when the stage packs output, and a block of device memory
/// crosses to any non-local consumer through a staging block too.
uint64_t ScanBlockRows(const HetOpNode& segmenter,
                       const std::vector<sim::DeviceId>& instances,
                       const storage::Table* table, const sim::Topology& topo,
                       uint64_t staging_rows);

/// \brief Fails with InvalidArgument when a segmenter-fed UVA exchange of
/// `analysis` feeds an instance that cannot address a chunk of the scanned
/// table in place (a GPU reading another GPU's memory): a UVA edge skips the
/// mem-move, so every block must be readable where the table placed it.
///
/// Placement belongs to the data, not the plan, so this is checked against
/// `catalog` by the lowering (before any stage starts) and the coster alike.
Status CheckUvaSources(const HetPlan& plan, const PlanAnalysis& analysis,
                       const storage::Catalog& catalog, const sim::Topology& topo);

/// Rows of `t`: staging rows, or the placed chunk totals when staging was
/// dropped (DropStaging keeps the placed data, and its row counts, intact).
uint64_t TableRows(const storage::Table& t);

/// Slots of `join`'s hash table: the optimizer's build-side estimate with
/// headroom (the build CHECKs on overflow), else the build table's rows.
uint64_t JoinHtCapacity(const JoinSpec& join, const storage::Catalog& catalog);

/// Modeled bytes of `join`'s hash table: entries plus a bucket array of ~2x
/// entries. Picks the random-access size class of its probes and inserts.
uint64_t JoinHtBytes(const JoinSpec& join, const storage::Catalog& catalog);

/// \brief Join ids in the order the fused probe pipeline nests its probe
/// loops: cheapest access per eliminated row first.
///
/// A join ranks by c / (1 - s): c is the CPU cost of one access in its hash
/// table's size class (JoinHtBytes), s = min(1, build_rows_estimate /
/// TableRows(build table)), the catalog estimate that also sizes the table.
/// A join that eliminates nothing (s >= 1) or has no estimate probes last;
/// ties keep spec order. The compiler nests the loops in this order and the
/// coster prices the rows reaching each probe in it. A span compiles to one
/// program for every device kind it runs on, so the rank uses CPU costs.
std::vector<int> ProbeOrder(const QuerySpec& spec, const storage::Catalog& catalog,
                            const sim::CostModel& cost_model);

}  // namespace hetex::plan

#endif  // HETEX_PLAN_ANALYSIS_H_
