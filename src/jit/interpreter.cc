#include "jit/interpreter.h"

#include "jit/codegen.h"
#include "jit/vectorizer.h"

namespace hetex::jit {

namespace {

/// Bumps the random-access counter matching a size class.
inline void CountAccess(sim::CostStats* stats, uint8_t cls, uint64_t n = 1) {
  switch (cls) {
    case 0: stats->near_accesses += n; break;
    case 1: stats->mid_accesses += n; break;
    default: stats->far_accesses += n; break;
  }
}

/// The right operand of binary ALU instruction `in`: a register, or the
/// literal in literal mode.
inline int64_t Rhs(const Instr& in, const int64_t* regs) {
  return in.lit ? in.imm : regs[in.c];
}

}  // namespace

Status RunRows(const PipelineProgram& program, ExecCtx& ctx, uint64_t rows) {
  HETEX_CHECK(program.finalized) << "pipeline '" << program.label
                                 << "' executed before ConvertToMachineCode";
  const Instr* code = program.code.data();
  sim::CostStats* stats = ctx.stats;
  int64_t* regs = ctx.regs;
  uint64_t ops = 0;
  uint64_t tuples = 0;
  Status status;

  for (uint64_t row = ctx.row_begin; row < rows; row += ctx.row_step) {
    ++tuples;
    int pc = 0;
    while (true) {
      const Instr& in = code[pc];
      ++ops;
      switch (in.op) {
        case OpCode::kConst:
          regs[in.a] = in.imm;
          ++pc;
          break;
        case OpCode::kLoadCol: {
          const ColumnBinding& col = ctx.cols[in.b];
          regs[in.a] = col.Load(row);
          stats->bytes_read += col.width;
          ++pc;
          break;
        }
        case OpCode::kAdd: regs[in.a] = regs[in.b] + Rhs(in, regs); ++pc; break;
        case OpCode::kSub: regs[in.a] = regs[in.b] - Rhs(in, regs); ++pc; break;
        case OpCode::kMul: regs[in.a] = regs[in.b] * Rhs(in, regs); ++pc; break;
        case OpCode::kDiv: {
          const int64_t divisor = Rhs(in, regs);
          if (divisor == 0) {
            status =
                Status::Internal("division by zero in pipeline '" + program.label +
                                 "'");
            goto done;
          }
          regs[in.a] = regs[in.b] / divisor;
          ++pc;
          break;
        }
        case OpCode::kShl: regs[in.a] = regs[in.b] << in.imm; ++pc; break;
        case OpCode::kCmpLt: regs[in.a] = regs[in.b] < Rhs(in, regs); ++pc; break;
        case OpCode::kCmpLe: regs[in.a] = regs[in.b] <= Rhs(in, regs); ++pc; break;
        case OpCode::kCmpGt: regs[in.a] = regs[in.b] > Rhs(in, regs); ++pc; break;
        case OpCode::kCmpGe: regs[in.a] = regs[in.b] >= Rhs(in, regs); ++pc; break;
        case OpCode::kCmpEq: regs[in.a] = regs[in.b] == Rhs(in, regs); ++pc; break;
        case OpCode::kCmpNe: regs[in.a] = regs[in.b] != Rhs(in, regs); ++pc; break;
        case OpCode::kAnd:
          regs[in.a] = (regs[in.b] != 0) && (Rhs(in, regs) != 0);
          ++pc;
          break;
        case OpCode::kOr:
          regs[in.a] = (regs[in.b] != 0) || (Rhs(in, regs) != 0);
          ++pc;
          break;
        case OpCode::kNot: regs[in.a] = regs[in.b] == 0; ++pc; break;
        case OpCode::kFilter:
          if (regs[in.a] == 0) goto next_tuple;
          ++pc;
          break;
        case OpCode::kJmp: pc = in.a; break;
        case OpCode::kJmpIfFalse:
          pc = (regs[in.a] == 0) ? in.b : pc + 1;
          break;
        case OpCode::kHtInsert: {
          auto* ht = static_cast<JoinHashTable*>(ctx.ht_slots[in.a]);
          if (!ht->Insert(regs[in.b], &regs[in.c])) {
            status = ht->OverCapacity(program.label);
            goto done;
          }
          CountAccess(stats, in.cls);
          // A replica written by one CPU worker elides the CAS (single thread
          // per worker, paper Fig. 3); GPUs and shared CPU replicas pay it.
          if (ctx.atomic_ht_insert) ++stats->atomics;
          stats->bytes_written += ht->layout().stride();
          ++pc;
          break;
        }
        case OpCode::kHtProbeInit: {
          auto* ht = static_cast<JoinHashTable*>(ctx.ht_slots[in.c]);
          uint64_t hops = 0;
          regs[in.a] = ht->FindKeyFrom(ht->ProbeHead(regs[in.b]), regs[in.b], &hops);
          CountAccess(stats, in.cls, 1 + hops);
          pc = regs[in.a] < 0 ? in.d : pc + 1;  // a miss skips the loop
          break;
        }
        case OpCode::kHtIterNext: {
          auto* ht = static_cast<JoinHashTable*>(ctx.ht_slots[in.c]);
          uint64_t hops = 0;
          regs[in.a] =
              ht->FindKeyFrom(ht->NextEntry(regs[in.a]), regs[in.b], &hops);
          CountAccess(stats, in.cls, hops);
          pc = regs[in.a] >= 0 ? in.d : pc + 1;  // a match reruns the body
          break;
        }
        case OpCode::kHtLoadPayload: {
          auto* ht = static_cast<JoinHashTable*>(ctx.ht_slots[in.c]);
          for (int i = 0; i < in.d; ++i) {
            regs[in.a + i] = ht->PayloadAt(regs[in.b], i);
          }
          ++pc;
          break;
        }
        case OpCode::kAggLocal:
          AggApply(static_cast<AggFunc>(in.c), &ctx.local_accs[in.a], regs[in.b]);
          ++pc;
          break;
        case OpCode::kGroupByAgg: {
          auto* ht = static_cast<AggHashTable*>(ctx.ht_slots[in.a]);
          uint64_t probes = 0;
          if (!ht->Update(regs[in.b], &regs[in.c], ctx.atomic_group_update,
                          &probes)) {
            status = ht->OverCapacity(program.label);
            goto done;
          }
          CountAccess(stats, in.cls, probes);
          if (ctx.atomic_group_update) stats->atomics += in.d;
          ++pc;
          break;
        }
        case OpCode::kEmit:
          ctx.emit->Append(&regs[in.a], in.b, stats);
          ++pc;
          break;
        case OpCode::kEnd:
          goto next_tuple;
      }
    }
  next_tuple:;
  }

done:
  stats->ops += ops;
  stats->tuples += tuples;
  return status;
}

Status Run(const PipelineProgram& program, ExecCtx& ctx, uint64_t rows) {
  // Tier-up check: a background compile publishes the native entry point with
  // a release store; observing it here (acquire) hot-swaps execution to the
  // compiled kernel without blocking any query on the compiler.
  if (program.native != nullptr && program.native->ready()) {
    return RunNative(program, ctx, rows);
  }
  if (program.tier == ExecTier::kVectorized && program.vec != nullptr) {
    return RunRowsVectorized(program, ctx, rows);
  }
  return RunRows(program, ctx, rows);
}

void FlushLocalAccsAtomic(const PipelineProgram& program, const int64_t* local_accs,
                          std::atomic<int64_t>* shared_accs, uint64_t leaders,
                          sim::CostStats* stats) {
  for (int i = 0; i < program.n_local_accs; ++i) {
    // Partial accumulators merge, they don't re-apply: a COUNT partial is a
    // value to SUM into the shared counter, not one more element to count.
    const AggFunc f = program.local_acc_funcs[i] == AggFunc::kCount
                          ? AggFunc::kSum
                          : program.local_acc_funcs[i];
    AggApplyAtomic(f, &shared_accs[i], local_accs[i]);
  }
  stats->atomics += leaders * static_cast<uint64_t>(program.n_local_accs);
}

}  // namespace hetex::jit
