#ifndef HETEX_JIT_VECTORIZER_H_
#define HETEX_JIT_VECTORIZER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "jit/exec_ctx.h"
#include "jit/program.h"

namespace hetex::jit {

/// Rows per vectorized batch. Large enough to amortize per-primitive dispatch,
/// small enough that a batch's register file stays cache-resident.
inline constexpr int kVecBatchRows = 1024;

/// \brief One primitive of a vectorized pipeline: a straight-line instruction
/// executed over a whole selection at once, or a nested probe loop.
///
/// Primitives keep the original `Instr` so operand decoding (and the cost-model
/// size class) is shared with the row interpreter — the vectorizer only changes
/// the execution granularity, never the semantics.
struct VecStep {
  enum class Kind : uint8_t {
    kConst,
    kLoadCol,    ///< width branch hoisted to one per batch
    kBin,        ///< add/sub/mul/div/shl/cmp*/and/or — fused per-batch loop
    kNot,
    kFilter,     ///< shrinks the selection vector
    kHtInsert,
    kHtLoadPayload,
    kAggLocal,
    kGroupByAgg,
    kEmit,       ///< batched append
    kLoop,       ///< match-list-expanding probe loop (see VecLoop)
  };

  Kind kind;
  Instr in;           ///< original instruction (operands, imm, size class)
  int loop_idx = -1;  ///< kLoop: index into VectorProgram::loops
};

/// \brief A probe loop lowered to match-list expansion.
///
/// The row interpreter runs `kHtProbeInit / body / kHtIterNext` per tuple (a
/// miss branches past the body, each further match back into it); the
/// vectorized tier instead walks each selected lane's whole bucket chain once,
/// expanding the matches into a child lane set (in lane-major order,
/// preserving the interpreter's tuple-major processing order), and then runs
/// the body primitives over the expanded lanes. A unique build key's probe has
/// no kHtIterNext: it expands at most one match per lane.
struct VecLoop {
  Instr probe;  ///< the kHtProbeInit (a=iter reg, b=key reg, c=ht slot, cls)
  bool unique = false;  ///< no kHtIterNext: the walk stops at the first match
  std::vector<VecStep> body;
  /// Registers the body reads before writing (copied into the expanded lanes).
  std::vector<int16_t> live_in;
  /// True when something after the loop reads the iterator register (the
  /// expansion must then materialize the interpreter's value: -1, or a
  /// unique key's match).
  bool iter_read_after = false;
  /// True when the body subtree loads input columns (the expansion must then
  /// carry original row numbers into the child lanes).
  bool needs_rows = false;
};

/// \brief A pipeline program lowered to the vectorized batch tier.
struct VectorProgram {
  std::vector<VecStep> top;
  std::vector<VecLoop> loops;
  int n_regs = 0;
  int max_loop_depth = 0;  ///< nesting depth (sizes the per-depth lane states)
};

/// Result of a vectorization attempt: either the lowered program, or the reason
/// the program shape could not be proven vectorizable (fallback is never
/// silent — the caller logs it and the counters below record it).
struct VectorizeResult {
  std::shared_ptr<const VectorProgram> program;  ///< null on fallback
  std::string reason;                            ///< fallback reason when null
};

/// \brief Attempts to lower a validated pipeline program to vector primitives.
///
/// Handles the shapes the query compiler generates: straight-line code with
/// filters, plus the canonical probe-loop idiom (including nesting). Any other
/// control flow — stray jumps, filters inside probe loops, registers written in
/// a loop body and read after it — makes the program fall back to the row
/// interpreter.
VectorizeResult TryVectorize(const PipelineProgram& program);

/// Executes a vectorized program over rows [ctx.row_begin, rows) with stride
/// ctx.row_step. Produces identical results and identical CostStats to
/// RunRows() on the same program; returns a runtime error (e.g. division by
/// zero) instead of invoking UB.
Status RunRowsVectorized(const PipelineProgram& program, ExecCtx& ctx,
                         uint64_t rows);

/// Frees the calling thread's batch buffers, which RunRowsVectorized keeps
/// per thread across calls. A pooled worker calls it when its instance ends,
/// so a parked thread holds none.
void ReleaseThreadBatchBuffers();

/// Process-wide vectorizer telemetry (attempts/fallbacks are per
/// ConvertToMachineCode call; Reset is for tests).
struct VectorizerCounters {
  uint64_t attempts = 0;
  uint64_t vectorized = 0;
  uint64_t fallbacks = 0;
};
VectorizerCounters GetVectorizerCounters();
void ResetVectorizerCounters();

}  // namespace hetex::jit

#endif  // HETEX_JIT_VECTORIZER_H_
