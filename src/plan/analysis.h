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
  kFilterStage,  ///< a build-side filter stage: filter + pack emit of the
                 ///< survivors (span join id = the join it feeds)
  kProbe,        ///< fused filter/probe/local-aggregate stage
  kGather,       ///< merge of the partials' hash partitions, writes the result
};

const char* StageRoleName(StageRole role);

/// \brief One branch of a stage: a maximal run of compute operators between
/// exchange boundaries (routers / segmenters / pack tops), compiled into one
/// pipeline and run by the instances its nodes are stamped with.
struct Span {
  StageRole role = StageRole::kProbe;
  std::vector<int> nodes;                ///< plan node ids, consumer→producer
  std::vector<sim::DeviceId> instances;  ///< placement stamped on the span nodes
  int join_id = -1;  ///< kBuild, kFilterStage: join whose HT it feeds
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
  /// The fact side is two stages. The probe stage reads the fact table
  /// through its segmenter and runs the filter, every probe and the local
  /// aggregation in one fused pipeline per instance.
  Stage probe;
  /// The gather merges the hash partitions of the probe's partials and
  /// writes the result.
  Stage gather;
  /// Per-query set-up before any stage starts: the max over the routers'
  /// init_latency stamps (0 for bare plans). A session anchored before the
  /// System's worker-pool bring-up ends waits for it on top.
  sim::VTime init_latency = 0;
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
/// the fact side is a gather reading the partials of one probe stage, which
/// reads its table (any other fact chain, such as a packed producer under the
/// probe, is Unsupported); a build reads its table or a segmenter-fed filter
/// stage. A plan failing any of them is a Status here, for the lowering and
/// the coster alike.
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

/// The code `column` is stored in: its placed code (storage::Column::code,
/// value − base at the narrowest of 1, 2, 4 or 8 bytes its range needs), or
/// 8 bytes with base 0 (an int64 register) when `table` is null or lacks the
/// column. Scans, hash-table fields and packed columns store it in this code.
IntCode ColumnCode(const storage::Table* table, const std::string& column);

/// Bytes one row of `column` takes: ColumnCode(table, column).width.
uint32_t ColumnWidth(const storage::Table* table, const std::string& column);

/// Packed layout of `join`'s hash table: JoinHtCapacity entries, the key and
/// each payload value in its build column's code (ColumnCode). Every
/// replica of the join is created with it.
jit::JoinHashTable::Layout JoinHtLayout(const JoinSpec& join,
                                        const storage::Catalog& catalog);

/// Bytes of `join`'s hash table, exactly what each replica allocates
/// (JoinHtLayout(...).Bytes()). Picks the random-access size class of its
/// probes and inserts.
uint64_t JoinHtBytes(const JoinSpec& join, const storage::Catalog& catalog);

/// True when `join`'s build key is a column declared unique
/// (storage::Column::unique): its probe stops at the first match, so the
/// compiled probe has no iter-next and the coster prices none.
bool JoinKeyUnique(const JoinSpec& join, const storage::Catalog& catalog);

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
