#ifndef HETEX_CORE_PROCESSOR_H_
#define HETEX_CORE_PROCESSOR_H_

#include <map>
#include <memory>
#include <vector>

#include "plan/compiler.h"
#include "core/program_cache.h"
#include "core/runtime.h"

namespace hetex::core {

/// \brief Everything a worker group needs to run one compiled stage.
///
/// One StageConfig is shared by all instances of a group; the instances share
/// one program finalized per device kind and each binds its own state (the
/// paper's per-device pipeline template + per-instance state creation, §4.2).
struct StageConfig {
  plan::StageRole role = plan::StageRole::kProbe;
  plan::CompiledPipeline pipeline;

  /// Owning query session: namespaces this stage's hash tables in the shared
  /// HtRegistry so concurrent queries never collide on (join id, unit).
  uint64_t query_id = 0;

  /// Per-device program cache (the System's): the group's N instances
  /// finalize each distinct span program exactly once.
  ProgramCache* programs = nullptr;

  HtRegistry* hts = nullptr;
  ResultSink* result = nullptr; ///< gather only
  /// Build-side filter stages and probe stages: instance i appends its packed
  /// output (survivors, or partial groups) to (*collect)[i]; GraphBuilder
  /// replays the blocks into the next stage's edge in a fixed order.
  std::vector<std::vector<DataMsg>>* collect = nullptr;

  /// Build stages: the join replica of each unit, created once before the
  /// group starts, and how many of the group's instances insert into it —
  /// more than one pay the bucket-head CAS.
  struct BuildReplica {
    jit::JoinHashTable* ht = nullptr;
    int writers = 0;
  };
  std::map<sim::DeviceId, BuildReplica> build_replicas;

  // Emit configuration.
  uint64_t block_bytes = 1ull << 20;
  /// Probe stages: the merge instances the partial groups are split over,
  /// one hash partition each (MergePartition).
  int merge_partitions = 1;

  // Bare-GPU (UVA) mode: kernels may read host-resident blocks over PCIe;
  // their streamed bytes reserve occupancy on the GPU's link BandwidthServer.
  bool allow_uva = false;
};

/// Creates the block processor for one instance of a stage.
std::unique_ptr<BlockProcessor> MakeVmProcessor(const StageConfig* config);

/// The merge instance, of `partitions`, that owns `group_key`: every probe
/// instance sends a group's partial to the same one.
int MergePartition(int64_t group_key, int partitions);

}  // namespace hetex::core

#endif  // HETEX_CORE_PROCESSOR_H_
