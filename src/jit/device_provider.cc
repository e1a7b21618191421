#include "jit/device_provider.h"

#include <algorithm>
#include <array>
#include <mutex>

#include "common/logging.h"
#include "jit/codegen.h"
#include "jit/kernel_cache.h"
#include "jit/vectorizer.h"

namespace hetex::jit {

namespace {

/// True when the opcode computes regs[a] = f(regs[b], regs[c]).
bool IsBinaryAluOp(OpCode op) {
  switch (op) {
    case OpCode::kAdd:
    case OpCode::kSub:
    case OpCode::kMul:
    case OpCode::kDiv:
    case OpCode::kCmpLt:
    case OpCode::kCmpLe:
    case OpCode::kCmpGt:
    case OpCode::kCmpGe:
    case OpCode::kCmpEq:
    case OpCode::kCmpNe:
    case OpCode::kAnd:
    case OpCode::kOr:
      return true;
    default:
      return false;
  }
}

}  // namespace

Status ValidateProgram(const PipelineProgram& program) {
  const int n = static_cast<int>(program.code.size());
  const int n_regs = program.n_regs;
  auto err = [&program](const std::string& what, int pc) {
    return Status::Internal("pipeline '" + program.label + "': " + what +
                            " at pc " + std::to_string(pc));
  };
  if (n == 0 || program.code.back().op != OpCode::kEnd) {
    return Status::Internal("pipeline '" + program.label + "' missing kEnd");
  }
  if (n_regs < 0 || n_regs > kMaxRegs) {
    return Status::Internal("pipeline '" + program.label +
                            "': register pressure exceeds VM register file");
  }
  if (program.n_local_accs < 0 || program.n_local_accs > kMaxLocalAccs) {
    return Status::Internal("pipeline '" + program.label +
                            "': local accumulator count out of range");
  }

  auto reg_ok = [n_regs](int r) { return r >= 0 && r < n_regs; };
  auto window_ok = [n_regs](int first, int count) {
    return count >= 0 && first >= 0 && first + count <= n_regs;
  };
  auto slot_ok = [](int s) { return s >= 0 && s < kMaxHtSlots; };

  // Registers that can hold a zero constant (conservative: any kConst 0 ever
  // written to the register taints it for the whole program, so a jump cannot
  // smuggle a zero past a linear scan).
  std::array<bool, kMaxRegs> zero_const{};
  for (const Instr& in : program.code) {
    if (in.op == OpCode::kConst && in.imm == 0 && in.a >= 0 && in.a < kMaxRegs) {
      zero_const[in.a] = true;
    }
  }

  for (int pc = 0; pc < n; ++pc) {
    const Instr& in = program.code[pc];
    switch (in.op) {
      case OpCode::kConst:
        if (!reg_ok(in.a)) return err("register out of range", pc);
        break;
      case OpCode::kLoadCol:
        if (!reg_ok(in.a)) return err("register out of range", pc);
        if (in.b < 0) return err("negative input column", pc);
        break;
      case OpCode::kShl:
      case OpCode::kNot:
      case OpCode::kHash:
        if (!reg_ok(in.a) || !reg_ok(in.b)) {
          return err("register out of range", pc);
        }
        break;
      case OpCode::kFilter:
        if (!reg_ok(in.a)) return err("register out of range", pc);
        break;
      case OpCode::kJmp:
        if (in.a < 0) return err("jump to unbound label", pc);
        if (in.a >= n) return err("jump out of range", pc);
        break;
      case OpCode::kJmpIfFalse:
      case OpCode::kJmpIfNeg:
        if (!reg_ok(in.a)) return err("register out of range", pc);
        if (in.b < 0) return err("jump to unbound label", pc);
        if (in.b >= n) return err("jump out of range", pc);
        break;
      case OpCode::kHtInsert:
        if (!slot_ok(in.a)) return err("hash-table slot out of range", pc);
        if (!reg_ok(in.b)) return err("register out of range", pc);
        if (in.d > 8 || !window_ok(in.c, in.d)) {
          return err("payload register window out of range", pc);
        }
        break;
      case OpCode::kHtProbeInit:
      case OpCode::kHtIterNext:
        if (!reg_ok(in.a) || !reg_ok(in.b)) {
          return err("register out of range", pc);
        }
        if (!slot_ok(in.c)) return err("hash-table slot out of range", pc);
        break;
      case OpCode::kHtLoadPayload:
        if (!reg_ok(in.b)) return err("register out of range", pc);
        if (!slot_ok(in.c)) return err("hash-table slot out of range", pc);
        if (in.d > 8 || !window_ok(in.a, in.d)) {
          return err("payload register window out of range", pc);
        }
        break;
      case OpCode::kAggLocal:
        if (in.a < 0 || in.a >= program.n_local_accs) {
          return err("local accumulator out of range", pc);
        }
        if (!reg_ok(in.b)) return err("register out of range", pc);
        break;
      case OpCode::kGroupByAgg:
        if (!slot_ok(in.a)) return err("hash-table slot out of range", pc);
        if (!reg_ok(in.b)) return err("register out of range", pc);
        if (in.d < 1 || in.d > 8 || !window_ok(in.c, in.d)) {
          return err("aggregate register window out of range", pc);
        }
        break;
      case OpCode::kEmit:
        if (!window_ok(in.a, in.b)) {
          return err("emit register window out of range", pc);
        }
        if (in.d != 0 && !reg_ok(in.c)) {
          return err("register out of range", pc);
        }
        break;
      case OpCode::kEnd:
        break;
      default:
        if (IsBinaryAluOp(in.op)) {
          if (!reg_ok(in.a) || !reg_ok(in.b) || !reg_ok(in.c)) {
            return err("register out of range", pc);
          }
          if (in.op == OpCode::kDiv && zero_const[in.c]) {
            return err("divisor register can hold a zero constant", pc);
          }
        } else {
          return err("unknown opcode", pc);
        }
        break;
    }
  }
  return Status::OK();
}

Status DeviceProvider::ConvertToMachineCode(PipelineProgram* program) {
  // IR verification before backend lowering.
  HETEX_RETURN_NOT_OK(ValidateProgram(*program));
  program->finalized = true;

  // Tier selection: attempt the vectorized batch backend; fall back to the row
  // interpreter for shapes the vectorizer cannot prove.
  program->tier = ExecTier::kInterpreter;
  program->vec.reset();
  program->native.reset();
  if (tier_policy() == TierPolicy::kForceInterpreter) {
    program->tier_reason = "interpreter: tier policy forces tier 0";
    return Status::OK();
  }

  VectorizeResult vec = TryVectorize(*program);
  if (vec.program != nullptr) {
    program->tier = ExecTier::kVectorized;
    program->vec = std::move(vec.program);
    program->tier_reason = "vectorized";
  } else {
    program->tier_reason = "interpreter: " + vec.reason;
  }
  if (tier_policy() == TierPolicy::kForceVectorized) {
    program->tier_reason += " (tier policy caps at tier 1)";
    return Status::OK();
  }

  // Tier 2: hand the program to the C++ codegen backend when a kernel cache is
  // attached. Unprovable shapes and compile failures fall back to the tier
  // chosen above with a counted, named reason; a still-compiling kernel serves
  // that tier too until Run() observes the published entry point.
  if (KernelCache* cache = kernel_cache(); cache != nullptr) {
    GenerateResult gen = GenerateSource(*program);
    if (gen.source.empty()) {
      program->tier_reason += "; codegen fallback: " + gen.reason;
    } else {
      program->native = cache->GetOrBuild(gen, program->label);
      if (program->native->ready()) {
        program->tier = ExecTier::kNative;
        program->tier_reason = program->EffectiveTierReason();
      }
    }
  }
  return Status::OK();
}

void* CpuProvider::AllocStateVar(uint64_t bytes) {
  auto r = mem_->manager(node_).Allocate(bytes);
  HETEX_CHECK(r.ok()) << r.status().ToString();
  return r.value();
}

void CpuProvider::FreeStateVar(void* ptr) { mem_->manager(node_).Free(ptr); }

memory::Block* CpuProvider::GetBuffer() {
  return blocks_->Acquire(node_, node_, nullptr, stop_flag());
}

void CpuProvider::ReleaseBuffer(memory::Block* block) {
  blocks_->Release(block, node_);
}

ExecResult CpuProvider::Execute(const PipelineProgram& program, ExecRequest& req) {
  ExecCtx ctx;
  ctx.cols = req.cols;
  ctx.n_cols = req.n_cols;
  ctx.emit = req.emit;
  ctx.emit_targets = req.emit_targets;
  ctx.n_emit_targets = req.n_emit_targets;
  ctx.local_accs = req.instance_accs;
  ctx.ht_slots = req.ht_slots;
  ctx.atomic_group_update = false;  // single thread per worker: atomics elided
  ctx.atomic_ht_insert = req.shared_ht_insert;  // unless others insert too
  ExecResult result;
  ctx.stats = &result.stats;
  ctx.row_begin = 0;   // threadIdInWorker -> 0
  ctx.row_step = 1;    // #threadsInWorker -> 1

  result.status = Run(program, ctx, req.rows);

  const sim::CostModel& cm = topo_->cost_model();
  // Fluid share of the socket's DRAM bandwidth: the block's bytes drain
  // against every execution-phase interval overlapping it *in virtual time*
  // on the socket's timeline — this query's own workers (the deterministic
  // per-group count) plus whichever other sessions' intervals the block
  // actually crosses, integrated piecewise as the overlap changes
  // (sim::DramServer::BlockEnd). When nothing overlaps, the closed-form solo
  // arithmetic below is used verbatim, so uncontended results stay
  // bit-identical to the within-query fluid share.
  const sim::DramServer& dram = topo_->socket_dram(socket_);
  const sim::VTime start_abs = session_epoch() + req.earliest;
  sim::VTime end_abs;
  if (dram.BlockEnd(session_id(), socket_concurrency_,
                    cm.BandwidthBytes(result.stats, cm.cpu),
                    cm.ComputeTime(result.stats, cm.cpu), start_abs,
                    &end_abs)) {
    result.end = req.earliest + (end_abs - start_abs);
  } else {
    const double bw =
        std::min(cm.cpu_core_bw, cm.cpu_socket_bw / socket_concurrency_);
    result.end = req.earliest + cm.WorkCost(result.stats, cm.cpu, bw);
  }
  return result;
}

void* GpuProvider::AllocStateVar(uint64_t bytes) {
  auto r = mem_->manager(node_).Allocate(bytes);
  HETEX_CHECK(r.ok()) << r.status().ToString();
  return r.value();
}

void GpuProvider::FreeStateVar(void* ptr) { mem_->manager(node_).Free(ptr); }

memory::Block* GpuProvider::GetBuffer() {
  return blocks_->Acquire(node_, node_, nullptr, stop_flag());
}

void GpuProvider::ReleaseBuffer(memory::Block* block) {
  blocks_->Release(block, node_);
}

namespace {
/// Kernels over at most this many rows run on the launching thread: handing
/// them to the simulation workers costs more host time than it saves. (On a
/// 4-core host the 13 GPU-only SSB queries simulate 1.1-5x faster on the
/// launching thread with 512-2048-row kernels, as fast with 4096, and 10-15%
/// slower with 8192 rows and more.)
constexpr uint64_t kOnCallerRows = 4096;
}  // namespace

ExecResult GpuProvider::Execute(const PipelineProgram& program, ExecRequest& req) {
  if (sim::FaultInjector* fault = fault_injector();
      fault != nullptr && fault->enabled()) {
    // Device loss / transient launch failure fires before the kernel reserves
    // anything on the device stream: a failed launch leaves no timeline
    // residue, and the error drains through the worker group like any runtime
    // failure.
    Status st = fault->OnGpuExecute(gpu_->id(), session_epoch() + req.earliest);
    if (!st.ok()) {
      ExecResult result;
      result.status = std::move(st);
      result.end = req.earliest;
      return result;
    }
  }
  if (req.emit != nullptr) {
    HETEX_CHECK(req.emit->atomic_append)
        << "GPU pipelines append to output blocks with device atomics";
  }
  std::mutex err_mu;
  Status first_error;
  // Logical thread t < passes runs the rows of every thread it stands for,
  // t, t + passes, ...: the grid-stride loops of those threads read exactly
  // the rows t, t + passes, t + 2 * passes, .... Per-row work adds up the same
  // either way, so the counters do not change, and a pass charges the
  // neighborhood-reduction atomics of the thread-block leaders among its
  // threads. The program then runs once per simulation worker and launch,
  // not once per logical thread.
  const int passes = gpu_->sim_threads();
  auto kernel = [&](const sim::KernelCtx& kctx) {
    if (kctx.thread_id >= passes) return;
    ExecCtx ctx;
    ctx.cols = req.cols;
    ctx.n_cols = req.n_cols;
    ctx.emit = req.emit;
    ctx.emit_targets = req.emit_targets;
    ctx.n_emit_targets = req.n_emit_targets;
    ctx.ht_slots = req.ht_slots;
    ctx.atomic_group_update = true;  // workerScopedAtomic -> device atomic
    ctx.atomic_ht_insert = true;
    ctx.stats = kctx.stats;
    ctx.row_begin = static_cast<uint64_t>(kctx.thread_id);  // threadIdInWorker
    ctx.row_step = static_cast<uint64_t>(passes);

    int64_t local_accs[kMaxLocalAccs];
    for (int i = 0; i < program.n_local_accs; ++i) {
      local_accs[i] = AggIdentity(program.local_acc_funcs[i]);
    }
    ctx.local_accs = local_accs;

    const Status st = Run(program, ctx, req.rows);
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(err_mu);
      if (first_error.ok()) first_error = st;
      return;
    }

    if (program.n_local_accs > 0) {
      HETEX_CHECK(req.shared_accs != nullptr)
          << "GPU pipeline with accumulators needs device-resident state";
      // Neighborhood (thread-block) reduction: every thread folds its value, only
      // the leaders' atomics are charged — the Fig. 3 cost profile.
      uint64_t leaders = 0;
      for (int t = kctx.thread_id; t < kctx.num_threads; t += passes) {
        leaders += t % kctx.block_dim == 0;
      }
      FlushLocalAccsAtomic(program, local_accs, req.shared_accs, leaders,
                           kctx.stats);
    }
  };

  sim::GpuDevice::LaunchOptions opts;
  opts.earliest = req.earliest;
  opts.epoch = session_epoch();
  opts.on_caller = req.rows <= kOnCallerRows;
  if (uva_) {
    // Zero-copy reads stream over this GPU's PCIe link: charge the bytes as
    // real link occupancy so concurrent sessions contend with them.
    opts.uva_link = &topo_->pcie_link(topo_->PcieLinkOf(gpu_->id()));
  }
  auto launch = gpu_->LaunchKernel(kernel, gpu_->default_grid(),
                                   sim::GpuDevice::kDefaultBlockDim, opts);
  ExecResult result;
  result.status = std::move(first_error);
  result.stats = launch.stats;
  result.end = launch.end;
  return result;
}

}  // namespace hetex::jit
