#include "core/processor.h"

#include <algorithm>

#include "common/logging.h"
#include "jit/device_provider.h"

namespace hetex::core {

namespace {

/// One open output block set (all output columns) being filled by Emit.
struct PackBucket {
  jit::EmitTarget target;
  std::vector<memory::Block*> blocks;
  int bucket_id = 0;
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
  void PushPending(WorkerInstance& inst, sim::VTime ready_at);
  /// Packs arbitrary rows (partials, group dumps) into blocks and pushes them.
  void EmitRowsDownstream(WorkerInstance& inst,
                          const std::vector<std::vector<int64_t>>& rows,
                          sim::VTime ready_at);

  const StageConfig* cfg_;
  std::shared_ptr<const jit::PipelineProgram> program_;
  std::vector<void*> ht_slots_;
  bool shared_ht_insert_ = false;  ///< build: other instances fill the replica too
  std::unique_ptr<jit::AggHashTable> agg_ht_;
  int64_t instance_accs_[jit::kMaxLocalAccs] = {};
  std::atomic<int64_t>* shared_accs_ = nullptr;  // GPU device-resident accumulators
  std::vector<std::unique_ptr<PackBucket>> buckets_;
  std::vector<DataMsg> pending_;
  std::unique_ptr<std::byte[]> scratch_;  ///< failed-refill write target
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
    bucket.target.cols.push_back({block->data, col.width});
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
    bucket.target.cols.push_back({scratch_.get(), col.width});
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
  msg.tag = static_cast<uint64_t>(bucket.bucket_id);
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

void VmProcessor::PushPending(WorkerInstance& inst, sim::VTime ready_at) {
  for (auto& msg : pending_) {
    msg.ready_at = ready_at;
    for (auto& h : msg.cols) h.ready_at = ready_at;
    if (cfg_->collect != nullptr) {
      (*cfg_->collect)[inst.id()].push_back(std::move(msg));
    } else {
      cfg_->out->Push(std::move(msg), inst.node());
    }
  }
  pending_.clear();
}

void VmProcessor::ProcessMsg(WorkerInstance& inst, DataMsg& msg) {
  if (!inst.error().ok()) return;  // already failed: drain without executing
  const auto& pipeline = cfg_->pipeline;
  HETEX_CHECK(msg.cols.size() == pipeline.input_cols.size())
      << "schema mismatch in " << program_->label << ": got " << msg.cols.size()
      << " cols, want " << pipeline.input_cols.size();

  std::vector<jit::ColumnBinding> bindings(msg.cols.size());
  for (size_t i = 0; i < msg.cols.size(); ++i) {
    bindings[i] = {msg.cols[i].data(), pipeline.input_cols[i].width};
    if (is_gpu(inst) && !cfg_->allow_uva) {
      HETEX_CHECK(msg.cols[i].node() == inst.node())
          << "GPU pipeline " << program_->label
          << " received non-local block (mem-move missing?)";
    }
  }

  const bool has_emit = !pipeline.output_cols.empty();
  std::vector<jit::EmitTarget*> targets;
  const bool gpu = is_gpu(inst);
  if (has_emit) {
    if (gpu) {
      // Fresh, pre-sized output per kernel launch: GPU threads append with an
      // atomic cursor; blocks are forwarded after the kernel completes.
      HETEX_CHECK(msg.rows <= BucketCapacityRows())
          << "input block larger than GPU output capacity";
      buckets_.clear();
      for (int bkt = 0; bkt < cfg_->n_buckets; ++bkt) {
        auto bucket = std::make_unique<PackBucket>();
        bucket->bucket_id = bkt;
        bucket->target.atomic_append = true;
        InstallFresh(inst, *bucket);
        buckets_.push_back(std::move(bucket));
      }
    } else if (buckets_.empty()) {
      for (int bkt = 0; bkt < cfg_->n_buckets; ++bkt) {
        auto bucket = std::make_unique<PackBucket>();
        bucket->bucket_id = bkt;
        PackBucket* raw = bucket.get();
        bucket->target.on_full = [this, &inst, raw] {
          StashBucket(*raw);
          InstallFresh(inst, *raw);
        };
        InstallFresh(inst, *bucket);
        buckets_.push_back(std::move(bucket));
      }
    }
    if (!inst.error().ok()) return;  // bucket install failed: drain from here on
    targets.reserve(buckets_.size());
    for (auto& bucket : buckets_) targets.push_back(&bucket->target);
  }

  jit::ExecRequest req;
  req.cols = bindings.data();
  req.n_cols = static_cast<int>(bindings.size());
  req.rows = msg.rows;
  req.emit = targets.empty() ? nullptr : targets[0];
  req.emit_targets = targets.empty() ? nullptr : targets.data();
  req.n_emit_targets = static_cast<int>(targets.size());
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

  if (has_emit && gpu) {
    for (auto& bucket : buckets_) {
      if (bucket->target.rows() > 0) {
        StashBucket(*bucket);
      } else {
        ReleaseBucketBlocks(inst, *bucket);
      }
    }
    buckets_.clear();
  }
  PushPending(inst, inst.clock());
}

void VmProcessor::EmitRowsDownstream(WorkerInstance& inst,
                                     const std::vector<std::vector<int64_t>>& rows,
                                     sim::VTime ready_at) {
  if (rows.empty()) return;
  const auto schema_width = rows[0].size();
  const uint64_t cap = BucketCapacityRows();
  size_t next = 0;
  while (next < rows.size()) {
    const uint64_t n = std::min<uint64_t>(cap, rows.size() - next);
    DataMsg msg;
    msg.rows = n;
    msg.ready_at = ready_at;
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
    cfg_->out->Push(std::move(msg), inst.node());
    next += n;
  }
}

void VmProcessor::Finish(WorkerInstance& inst) {
  if (!inst.error().ok()) {
    // Failed instance: skip the pipeline-breaker flush (its state is partial),
    // but still run the resource cleanup below.
    if (shared_accs_ != nullptr) {
      inst.provider().FreeStateVar(shared_accs_);
      shared_accs_ = nullptr;
    }
    for (auto& bucket : buckets_) ReleaseBucketBlocks(inst, *bucket);
    buckets_.clear();
    for (auto& msg : pending_) ReleaseMsgBlocks(&inst.system(), msg, inst.node());
    pending_.clear();
    agg_ht_.reset();
    return;
  }
  switch (cfg_->role) {
    case plan::StageRole::kBuild:
      break;  // nothing to flush; GraphBuilder::Run reads the writers' clocks

    case plan::StageRole::kFilterStage: {
      // Flush the partially-filled hash-pack blocks.
      for (auto& bucket : buckets_) {
        if (bucket->target.rows() > 0) {
          StashBucket(*bucket);
        } else {
          ReleaseBucketBlocks(inst, *bucket);
        }
      }
      buckets_.clear();
      PushPending(inst, inst.clock());
      break;
    }

    case plan::StageRole::kProbe: {
      // Pipeline breaker: ship this instance's partial aggregates downstream
      // (the paper's pipelines 3/8: read local reduction, insert into the
      // gpu2cpu queue / router).
      std::vector<std::vector<int64_t>> partials;
      if (agg_ht_ != nullptr) {
        agg_ht_->ForEach([&](int64_t key, const int64_t* accs) {
          std::vector<int64_t> row;
          row.push_back(key);
          for (int i = 0; i < cfg_->pipeline.n_group_vals; ++i) {
            row.push_back(accs[i]);
          }
          partials.push_back(std::move(row));
        });
      } else if (program_->n_local_accs > 0) {
        std::vector<int64_t> row;
        for (int i = 0; i < program_->n_local_accs; ++i) {
          row.push_back(shared_accs_ != nullptr
                            ? shared_accs_[i].load(std::memory_order_relaxed)
                            : instance_accs_[i]);
        }
        partials.push_back(std::move(row));
      }
      EmitRowsDownstream(inst, partials, inst.clock());
      break;
    }

    case plan::StageRole::kGather: {
      HETEX_CHECK(cfg_->result != nullptr);
      if (agg_ht_ != nullptr) {
        std::vector<std::vector<int64_t>> rows;
        agg_ht_->ForEach([&](int64_t key, const int64_t* accs) {
          std::vector<int64_t> row;
          row.push_back(key);
          for (int i = 0; i < cfg_->pipeline.n_group_vals; ++i) {
            row.push_back(accs[i]);
          }
          rows.push_back(std::move(row));
        });
        std::sort(rows.begin(), rows.end());
        for (auto& row : rows) cfg_->result->AddRow(std::move(row), inst.clock());
      } else if (program_->n_local_accs > 0) {
        // GPU-placed gathers accumulate into device-resident shared state
        // (same split as the kProbe partials path above).
        std::vector<int64_t> row;
        for (int i = 0; i < program_->n_local_accs; ++i) {
          row.push_back(shared_accs_ != nullptr
                            ? shared_accs_[i].load(std::memory_order_relaxed)
                            : instance_accs_[i]);
        }
        cfg_->result->AddRow(std::move(row), inst.clock());
      }
      break;
    }
  }

  if (shared_accs_ != nullptr) {
    inst.provider().FreeStateVar(shared_accs_);
    shared_accs_ = nullptr;
  }
  // Any never-flushed CPU pack blocks (e.g. zero-output stages) go back.
  for (auto& bucket : buckets_) ReleaseBucketBlocks(inst, *bucket);
  buckets_.clear();
  agg_ht_.reset();
}

}  // namespace

std::unique_ptr<BlockProcessor> MakeVmProcessor(const StageConfig* config) {
  return std::make_unique<VmProcessor>(config);
}

}  // namespace hetex::core
