#include "core/processor.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"
#include "jit/device_provider.h"

namespace hetex::core {

namespace {

/// The open output block set (all output columns) being filled by Emit.
struct PackBucket {
  jit::EmitTarget target;
  std::vector<memory::Block*> blocks;
};

class VmProcessor : public BlockProcessor {
 public:
  explicit VmProcessor(const StageConfig* cfg) : cfg_(cfg) {}

  void Init(WorkerInstance& inst) override;
  void ProcessMsg(WorkerInstance& inst, DataMsg& msg) override;
  void Finish(WorkerInstance& inst) override;

 private:
  bool is_gpu(WorkerInstance& inst) const { return inst.device().is_gpu(); }
  uint64_t BucketCapacityRows() const { return cfg_->block_bytes / 8; }

  /// Installs fresh output blocks into `bucket`. On staging exhaustion (arena
  /// timeout or injected spike) the instance notes the error and the bucket's
  /// targets are re-pointed at a throwaway scratch buffer — a kernel in the
  /// middle of an on_full refill keeps a valid write target and finishes; its
  /// output is discarded by the error drain. Returns false on that path.
  bool InstallFresh(WorkerInstance& inst, PackBucket& bucket);
  void InstallScratch(PackBucket& bucket);
  void ReleaseBucketBlocks(WorkerInstance& inst, PackBucket& bucket);
  /// Moves a filled bucket into pending_ as a DataMsg (ready_at patched later).
  void StashBucket(PackBucket& bucket);
  /// Stashes the open bucket if it holds rows, else releases its blocks, and
  /// closes it.
  void FlushBucket(WorkerInstance& inst);
  void PushPending(WorkerInstance& inst, sim::VTime ready_at);
  /// Hands one output message to the stage's collection.
  void Ship(WorkerInstance& inst, DataMsg msg);
  /// Packs the partial groups of one merge partition (`tag`) into blocks
  /// and ships them.
  void EmitRowsDownstream(WorkerInstance& inst,
                          const std::vector<std::vector<int64_t>>& rows,
                          uint64_t tag, sim::VTime ready_at);
  /// Rows of this instance's group-by table (key, aggregates...), or of its
  /// scalar accumulators.
  std::vector<std::vector<int64_t>> AggregateRows() const;

  const StageConfig* cfg_;
  std::shared_ptr<const jit::PipelineProgram> program_;
  std::vector<void*> ht_slots_;
  bool shared_ht_insert_ = false;  ///< build: other instances fill the replica too
  std::unique_ptr<jit::AggHashTable> agg_ht_;
  int64_t instance_accs_[jit::kMaxLocalAccs] = {};
  std::atomic<int64_t>* shared_accs_ = nullptr;  // GPU device-resident accumulators
  std::unique_ptr<PackBucket> bucket_;  ///< open pack output, if any
  std::vector<DataMsg> pending_;
  std::unique_ptr<std::byte[]> scratch_;  ///< failed-refill write target
  bool merged_ = false;  ///< gather: merged at least one partial message
};

void VmProcessor::Init(WorkerInstance& inst) {
  // Cached finalization: the N instances of this span share one compiled
  // program per device kind (finalized exactly once).
  auto r = cfg_->programs->GetOrCompile(inst.provider(), cfg_->pipeline);
  if (!r.ok()) {
    // Validation rejections (e.g. a statically-zero divisor) surface as
    // QueryResult::status: the instance drains its input without executing.
    inst.NoteError(r.status());
    return;
  }
  program_ = std::move(r.value());

  const auto& pipeline = cfg_->pipeline;
  size_t n_slots = pipeline.ht_join_slots.size();
  if (pipeline.agg_ht_slot >= 0) {
    n_slots = std::max(n_slots, static_cast<size_t>(pipeline.agg_ht_slot) + 1);
  }
  ht_slots_.assign(n_slots, nullptr);

  if (cfg_->role == plan::StageRole::kBuild) {
    const StageConfig::BuildReplica& replica =
        cfg_->build_replicas.at(inst.device());
    ht_slots_[0] = replica.ht;
    shared_ht_insert_ = replica.writers > 1;
  } else {
    for (size_t i = 0; i < pipeline.ht_join_slots.size(); ++i) {
      ht_slots_[i] = cfg_->hts->Get(cfg_->query_id, pipeline.ht_join_slots[i],
                                    inst.device());
    }
  }

  if (pipeline.agg_ht_slot >= 0) {
    agg_ht_ = std::make_unique<jit::AggHashTable>(
        &inst.provider().memory_manager(), pipeline.groups_capacity,
        pipeline.n_group_vals, pipeline.group_funcs);
    ht_slots_[pipeline.agg_ht_slot] = agg_ht_.get();
  }

  if (program_->n_local_accs > 0) {
    if (is_gpu(inst)) {
      shared_accs_ = static_cast<std::atomic<int64_t>*>(inst.provider().AllocStateVar(
          program_->n_local_accs * sizeof(int64_t)));
      for (int i = 0; i < program_->n_local_accs; ++i) {
        shared_accs_[i].store(jit::AggIdentity(program_->local_acc_funcs[i]),
                              std::memory_order_relaxed);
      }
    } else {
      for (int i = 0; i < program_->n_local_accs; ++i) {
        instance_accs_[i] = jit::AggIdentity(program_->local_acc_funcs[i]);
      }
    }
  }

  if (cfg_->allow_uva && is_gpu(inst)) {
    // Bare-GPU (UVA) kernels stream their bytes over the PCIe link as real,
    // epoch-anchored occupancy (see GpuProvider::set_uva) instead of a
    // private stream-bandwidth discount.
    static_cast<jit::GpuProvider&>(inst.provider()).set_uva(true);
  }
}

bool VmProcessor::InstallFresh(WorkerInstance& inst, PackBucket& bucket) {
  bucket.blocks.clear();
  bucket.target.cols.clear();
  for (const auto& col : cfg_->pipeline.output_cols) {
    memory::Block* block = inst.provider().GetBuffer();
    if (block == nullptr) {
      for (memory::Block* b : bucket.blocks) inst.provider().ReleaseBuffer(b);
      bucket.blocks.clear();
      inst.NoteError(Status::ResourceExhausted(
          "staging-block acquisition failed while packing output of pipeline '" +
          cfg_->pipeline.program.label + "'"));
      InstallScratch(bucket);
      return false;
    }
    bucket.blocks.push_back(block);
    bucket.target.cols.push_back({block->data, col.width, col.base});
  }
  bucket.target.capacity = BucketCapacityRows();
  bucket.target.ResetCursor();
  return true;
}

void VmProcessor::InstallScratch(PackBucket& bucket) {
  if (scratch_ == nullptr) scratch_ = std::make_unique<std::byte[]>(cfg_->block_bytes);
  bucket.target.cols.clear();
  for (const auto& col : cfg_->pipeline.output_cols) {
    // Every column aliases the one scratch allocation: the data written here
    // is never read (the instance is in error drain), it only has to be a
    // valid in-bounds write target for an already-running kernel.
    bucket.target.cols.push_back({scratch_.get(), col.width, col.base});
  }
  bucket.target.capacity = BucketCapacityRows();
  bucket.target.ResetCursor();
}

void VmProcessor::ReleaseBucketBlocks(WorkerInstance& inst, PackBucket& bucket) {
  for (memory::Block* b : bucket.blocks) inst.provider().ReleaseBuffer(b);
  bucket.blocks.clear();
}

void VmProcessor::StashBucket(PackBucket& bucket) {
  DataMsg msg;
  msg.rows = bucket.target.rows();
  for (size_t i = 0; i < bucket.blocks.size(); ++i) {
    memory::BlockHandle h;
    h.block = bucket.blocks[i];
    h.rows = msg.rows;
    h.bytes = msg.rows * cfg_->pipeline.output_cols[i].width;
    msg.cols.push_back(h);
  }
  bucket.blocks.clear();
  pending_.push_back(std::move(msg));
}

void VmProcessor::FlushBucket(WorkerInstance& inst) {
  if (bucket_ == nullptr) return;
  if (bucket_->target.rows() > 0) {
    StashBucket(*bucket_);
  } else {
    ReleaseBucketBlocks(inst, *bucket_);
  }
  bucket_.reset();
}

void VmProcessor::Ship(WorkerInstance& inst, DataMsg msg) {
  (*cfg_->collect)[inst.id()].push_back(std::move(msg));
}

void VmProcessor::PushPending(WorkerInstance& inst, sim::VTime ready_at) {
  for (auto& msg : pending_) {
    msg.ready_at = ready_at;
    for (auto& h : msg.cols) h.ready_at = ready_at;
    Ship(inst, std::move(msg));
  }
  pending_.clear();
}

void VmProcessor::ProcessMsg(WorkerInstance& inst, DataMsg& msg) {
  if (!inst.error().ok()) return;  // already failed: drain without executing
  merged_ = true;
  const auto& pipeline = cfg_->pipeline;
  HETEX_CHECK(msg.cols.size() == pipeline.input_cols.size())
      << "schema mismatch in " << program_->label << ": got " << msg.cols.size()
      << " cols, want " << pipeline.input_cols.size();

  std::vector<jit::ColumnBinding> bindings(msg.cols.size());
  for (size_t i = 0; i < msg.cols.size(); ++i) {
    const plan::ColSlot& slot = pipeline.input_cols[i];
    bindings[i] = {msg.cols[i].data(), slot.width, slot.base};
    if (is_gpu(inst) && !cfg_->allow_uva) {
      HETEX_CHECK(msg.cols[i].node() == inst.node())
          << "GPU pipeline " << program_->label
          << " received non-local block (mem-move missing?)";
    }
  }

  const bool has_emit = !pipeline.output_cols.empty();
  const bool gpu = is_gpu(inst);
  if (has_emit) {
    if (gpu) {
      // Fresh, pre-sized output per kernel launch: GPU threads append with an
      // atomic cursor; blocks are forwarded after the kernel completes.
      HETEX_CHECK(msg.rows <= BucketCapacityRows())
          << "input block larger than GPU output capacity";
      bucket_ = std::make_unique<PackBucket>();
      bucket_->target.atomic_append = true;
      InstallFresh(inst, *bucket_);
    } else if (bucket_ == nullptr) {
      bucket_ = std::make_unique<PackBucket>();
      bucket_->target.on_full = [this, &inst] {
        StashBucket(*bucket_);
        InstallFresh(inst, *bucket_);
      };
      InstallFresh(inst, *bucket_);
    }
    if (!inst.error().ok()) return;  // bucket install failed: drain from here on
  }

  jit::ExecRequest req;
  req.cols = bindings.data();
  req.n_cols = static_cast<int>(bindings.size());
  req.rows = msg.rows;
  req.emit = has_emit ? &bucket_->target : nullptr;
  req.ht_slots = ht_slots_.data();
  req.instance_accs = instance_accs_;
  req.shared_accs = shared_accs_;
  req.shared_ht_insert = shared_ht_insert_;
  req.earliest = sim::MaxT(inst.clock(), msg.ReadyAt());

  jit::ExecResult result = inst.provider().Execute(*program_, req);
  inst.stats().Add(result.stats);
  inst.set_clock(result.end);
  if (!result.status.ok()) {
    // Runtime failure (e.g. division by zero): record it and stop doing work;
    // remaining input is drained so the pipeline still terminates cleanly.
    inst.NoteError(std::move(result.status));
    return;
  }

  if (gpu) FlushBucket(inst);
  PushPending(inst, inst.clock());
}

void VmProcessor::EmitRowsDownstream(WorkerInstance& inst,
                                     const std::vector<std::vector<int64_t>>& rows,
                                     uint64_t tag, sim::VTime ready_at) {
  if (rows.empty()) return;
  const auto schema_width = rows[0].size();
  const uint64_t cap = BucketCapacityRows();
  size_t next = 0;
  while (next < rows.size()) {
    const uint64_t n = std::min<uint64_t>(cap, rows.size() - next);
    DataMsg msg;
    msg.rows = n;
    msg.ready_at = ready_at;
    msg.tag = tag;
    std::vector<memory::Block*> blocks;
    for (size_t c = 0; c < schema_width; ++c) {
      memory::Block* block = inst.provider().GetBuffer();
      if (block == nullptr) {
        for (memory::Block* b : blocks) inst.provider().ReleaseBuffer(b);
        inst.NoteError(Status::ResourceExhausted(
            "staging-block acquisition failed while emitting partials of "
            "pipeline '" + cfg_->pipeline.program.label + "'"));
        return;
      }
      auto* data = reinterpret_cast<int64_t*>(block->data);
      for (uint64_t r = 0; r < n; ++r) data[r] = rows[next + r][c];
      memory::BlockHandle h;
      h.block = block;
      h.rows = n;
      h.bytes = n * 8;
      h.ready_at = ready_at;
      msg.cols.push_back(h);
      blocks.push_back(block);
    }
    Ship(inst, std::move(msg));
    next += n;
  }
}

std::vector<std::vector<int64_t>> VmProcessor::AggregateRows() const {
  std::vector<std::vector<int64_t>> rows;
  if (agg_ht_ != nullptr) {
    agg_ht_->ForEach([&](int64_t key, const int64_t* accs) {
      std::vector<int64_t> row;
      row.push_back(key);
      for (int i = 0; i < cfg_->pipeline.n_group_vals; ++i) row.push_back(accs[i]);
      rows.push_back(std::move(row));
    });
  } else if (program_->n_local_accs > 0) {
    // GPU instances accumulate into device-resident shared state.
    std::vector<int64_t> row;
    for (int i = 0; i < program_->n_local_accs; ++i) {
      row.push_back(shared_accs_ != nullptr
                        ? shared_accs_[i].load(std::memory_order_relaxed)
                        : instance_accs_[i]);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void VmProcessor::Finish(WorkerInstance& inst) {
  if (!inst.error().ok()) {
    // Failed instance: skip the pipeline-breaker flush (its state is partial),
    // but still run the resource cleanup below.
    if (shared_accs_ != nullptr) {
      inst.provider().FreeStateVar(shared_accs_);
      shared_accs_ = nullptr;
    }
    if (bucket_ != nullptr) ReleaseBucketBlocks(inst, *bucket_);
    bucket_.reset();
    for (auto& msg : pending_) ReleaseMsgBlocks(&inst.system(), msg, inst.node());
    pending_.clear();
    agg_ht_.reset();
    return;
  }
  switch (cfg_->role) {
    case plan::StageRole::kBuild:
      break;  // nothing to flush; GraphBuilder::Run reads the writers' clocks

    case plan::StageRole::kFilterStage:
      // Flush the partially-filled pack blocks.
      FlushBucket(inst);
      PushPending(inst, inst.clock());
      break;

    case plan::StageRole::kProbe: {
      // Pipeline breaker: ship this instance's partial aggregates to the
      // merge (the paper's pipelines 3/8: read local reduction, insert into
      // the gpu2cpu queue / router), split by group hash into one partition
      // per merge instance so each group meets on exactly one of them. The
      // split's hash is charged as compute; a scalar aggregate, or a single
      // merge instance, ships one unsplit partition.
      std::vector<std::vector<int64_t>> partials = AggregateRows();
      const int parts = cfg_->merge_partitions;
      if (agg_ht_ == nullptr || parts <= 1) {
        EmitRowsDownstream(inst, partials, 0, inst.clock());
        break;
      }
      std::vector<std::vector<std::vector<int64_t>>> by_part(parts);
      for (auto& row : partials) {
        by_part[MergePartition(row[0], parts)].push_back(std::move(row));
      }
      sim::CostStats hash;
      hash.ops = partials.size();
      const sim::CostModel& cm = inst.system().cost_model();
      inst.stats().Add(hash);
      inst.set_clock(inst.clock() +
                     cm.ComputeTime(hash, is_gpu(inst) ? cm.gpu : cm.cpu));
      for (int k = 0; k < parts && inst.error().ok(); ++k) {
        EmitRowsDownstream(inst, by_part[k], static_cast<uint64_t>(k), inst.clock());
      }
      break;
    }

    case plan::StageRole::kGather: {
      // One merge instance of several emits only the groups it merged: a
      // scalar aggregate's partials all reach instance 0.
      HETEX_CHECK(cfg_->result != nullptr);
      if (merged_) cfg_->result->AddRows(inst.id(), AggregateRows(), inst.clock());
      break;
    }
  }

  if (shared_accs_ != nullptr) {
    inst.provider().FreeStateVar(shared_accs_);
    shared_accs_ = nullptr;
  }
  // Any never-flushed CPU pack blocks (e.g. zero-output stages) go back.
  if (bucket_ != nullptr) ReleaseBucketBlocks(inst, *bucket_);
  bucket_.reset();
  agg_ht_.reset();
}

}  // namespace

std::unique_ptr<BlockProcessor> MakeVmProcessor(const StageConfig* config) {
  return std::make_unique<VmProcessor>(config);
}

int MergePartition(int64_t group_key, int partitions) {
  return static_cast<int>(HashMix64(static_cast<uint64_t>(group_key)) %
                          static_cast<uint64_t>(partitions));
}

}  // namespace hetex::core
