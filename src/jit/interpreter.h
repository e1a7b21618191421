#ifndef HETEX_JIT_INTERPRETER_H_
#define HETEX_JIT_INTERPRETER_H_

#include <cstdint>

#include "common/status.h"
#include "jit/exec_ctx.h"
#include "jit/program.h"

namespace hetex::jit {

/// \brief Executes a fused pipeline program over rows [row_begin, rows) with
/// stride row_step of the currently bound input block (tier 0: row interpreter).
///
/// This is the "generated code": one tight dispatch loop per tuple, all
/// intermediates in registers, no materialization between fused operators. Cost
/// counters (tuples, micro-ops, random accesses by size class, atomics, bytes)
/// are accumulated into ctx.stats as a side effect of execution, which is what
/// drives the virtual-time model.
///
/// Returns a runtime error (instead of invoking UB) on a zero divisor; counters
/// accumulated up to the fault are still applied.
Status RunRows(const PipelineProgram& program, ExecCtx& ctx, uint64_t rows);

/// Tier dispatch: runs a finalized program through the execution tier
/// ConvertToMachineCode installed on it (the vectorized batch backend when the
/// program's shape was proven, the row interpreter otherwise). Both tiers
/// produce identical results and identical CostStats.
Status Run(const PipelineProgram& program, ExecCtx& ctx, uint64_t rows);

/// Folds per-thread local accumulators into shared (device-resident) accumulators
/// with worker-scoped atomics — the tail of the paper's Listing 1 pipeline 9
/// (neighborhood reduce + leader atomic). `leaders` is the number of
/// neighborhood leaders the folded threads include: only a leader's atomics
/// are charged, modeling the warp-level reduction's cost profile.
void FlushLocalAccsAtomic(const PipelineProgram& program, const int64_t* local_accs,
                          std::atomic<int64_t>* shared_accs, uint64_t leaders,
                          sim::CostStats* stats);

}  // namespace hetex::jit

#endif  // HETEX_JIT_INTERPRETER_H_
