#ifndef HETEX_JIT_PROGRAM_H_
#define HETEX_JIT_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "jit/hash_table.h"

namespace hetex::jit {

/// \brief Instruction set of the pipeline register machine.
///
/// This is the lowering target of the produce()/consume() code generation — the
/// stand-in for LLVM IR in this reproduction. A pipeline's
/// operators are fused into one straight-line program executed once per tuple;
/// all intermediate values live in VM registers (register pipelining), and the
/// only materialization points are Emit (into the pipeline's output block) and
/// hash-table state — i.e. the pipeline breakers.
enum class OpCode : uint8_t {
  kConst,       ///< regs[a] = imm
  kLoadCol,     ///< regs[a] = input column b at the current row (width-extended)
  kAdd,         ///< regs[a] = regs[b] + rhs
  kSub,         ///< regs[a] = regs[b] - rhs
  kMul,         ///< regs[a] = regs[b] * rhs
  kDiv,         ///< regs[a] = regs[b] / rhs  (rhs must be nonzero)
  kShl,         ///< regs[a] = regs[b] << imm
  kCmpLt,       ///< regs[a] = regs[b] <  rhs
  kCmpLe,       ///< regs[a] = regs[b] <= rhs
  kCmpGt,       ///< regs[a] = regs[b] >  rhs
  kCmpGe,       ///< regs[a] = regs[b] >= rhs
  kCmpEq,       ///< regs[a] = regs[b] == rhs
  kCmpNe,       ///< regs[a] = regs[b] != rhs
  kAnd,         ///< regs[a] = regs[b] && rhs
  kOr,          ///< regs[a] = regs[b] || rhs
  kNot,         ///< regs[a] = !regs[b]
  kFilter,      ///< if (!regs[a]) end this tuple
  kJmp,         ///< pc = a (label-resolved)
  kJmpIfFalse,  ///< if (!regs[a]) pc = b
  kHtInsert,    ///< join HT slot a: insert key regs[b], payload regs[c..c+d)
  kHtProbeInit, ///< regs[a] = first entry matching key regs[b] in join HT slot c;
                ///< a miss (-1) branches to pc = d, the probe loop's exit.
                ///< imm = the slot's JoinHashTable::Layout::WidthCode()
  kHtIterNext,  ///< regs[a] = next entry matching key regs[b] in join HT slot c,
                ///< starting after entry regs[a]; a match branches back to
                ///< pc = d, the loop body (absent when the build key is unique)
  kHtLoadPayload, ///< regs[a..a+d) = payload of entry regs[b] in join HT slot c
  kAggLocal,    ///< local_accs[a] = func(c)(local_accs[a], regs[b])
  kGroupByAgg,  ///< agg HT slot a: fold regs[c..c+d) into group key regs[b]
  kEmit,        ///< append regs[a..a+b) to the output block
  kEnd,         ///< end of tuple program
};

/// True for the two-operand ALU opcodes, regs[a] = regs[b] op rhs, whose
/// right operand `rhs` is regs[c] or, in literal mode (Instr::lit), imm.
inline bool IsBinaryAlu(OpCode op) {
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

/// One VM instruction. `cls` carries the random-access size class (0 near / 1 mid /
/// 2 far) for hash-table opcodes, assigned at codegen time from the table's
/// modeled footprint. `lit` is the operand mode of a binary ALU opcode: its
/// right operand is the literal `imm` instead of regs[c], so a comparison
/// against a constant is one instruction.
struct Instr {
  OpCode op;
  uint8_t cls = 0;
  int16_t a = 0;
  int16_t b = 0;
  int16_t c = 0;
  int16_t d = 0;
  int64_t imm = 0;
  bool lit = false;
};

/// The operand holding `in`'s branch target (a label id until
/// ProgramBuilder::Finalize patches it to a pc), or null for a non-branching
/// opcode.
inline const int16_t* BranchTarget(const Instr& in) {
  switch (in.op) {
    case OpCode::kJmp: return &in.a;
    case OpCode::kJmpIfFalse: return &in.b;
    case OpCode::kHtProbeInit:
    case OpCode::kHtIterNext: return &in.d;
    default: return nullptr;
  }
}
inline int16_t* BranchTarget(Instr& in) {
  return const_cast<int16_t*>(BranchTarget(static_cast<const Instr&>(in)));
}

inline constexpr int kMaxRegs = 64;
inline constexpr int kMaxLocalAccs = 8;
inline constexpr int kMaxHtSlots = 16;

/// \brief Execution tier a finalized program was lowered to.
///
/// `ConvertToMachineCode` is the tiering point: it validates the program,
/// attempts to lower it to the vectorized batch backend, and (when a kernel
/// cache is configured) hands the program to the tier-2 codegen backend, which
/// emits a specialized C++ translation unit, compiles it out of process and
/// dlopens the result. Shapes a backend cannot prove fall back one tier down
/// (tracked and logged, never silent).
enum class ExecTier : uint8_t {
  kInterpreter,  ///< per-tuple switch-dispatch bytecode loop (tier 0)
  kVectorized,   ///< fused batch primitives over selection vectors (tier 1)
  kNative,       ///< JIT-compiled native kernel, dlopen-ed from the kernel cache (tier 2)
};

/// Tier selection policy of a provider (set system-wide; parity suites pin
/// tier 0 / tier 1 to diff them against the auto-tiered run).
enum class TierPolicy : uint8_t { kAuto, kForceInterpreter, kForceVectorized };

struct VectorProgram;  // defined in jit/vectorizer.h
struct NativeKernel;   // defined in jit/codegen.h

/// \brief A fused, device-agnostic pipeline program plus its state metadata.
///
/// The same program is specialized to a device by the DeviceProvider that executes
/// it (grid-stride bounds, atomic vs plain accumulation) — the paper's Fig. 3
/// "same blueprint, two specializations" property.
struct PipelineProgram {
  std::vector<Instr> code;
  int n_regs = 0;
  int n_local_accs = 0;
  AggFunc local_acc_funcs[kMaxLocalAccs] = {};
  int n_input_cols = 0;
  int n_output_cols = 0;
  bool finalized = false;   ///< set by DeviceProvider::ConvertToMachineCode
  std::string label;        ///< for plan/debug printing

  /// Binding schema: byte width of each input column the runtime will bind
  /// positionally. Filled by the ProgramCache (and the uncached processor
  /// path) before finalization; the tier-2 codegen specializes column loads to
  /// these widths, and programs without them fall back with a named reason.
  std::vector<uint32_t> input_widths;

  // Set by ConvertToMachineCode (the tiering point). All tiers produce
  // identical results and identical CostStats; only the harness speed differs.
  ExecTier tier = ExecTier::kInterpreter;
  std::shared_ptr<const VectorProgram> vec;  ///< non-null iff tier == kVectorized
  std::string tier_reason;  ///< finalize-time tier decision + fallback reason

  /// Tier-2 kernel handle (null when codegen is off or fell back). The kernel
  /// may still be compiling in the background: Run() serves `tier` until the
  /// kernel publishes ready, then hot-swaps to the native entry point — the
  /// tier-up never blocks a query on the compiler.
  std::shared_ptr<NativeKernel> native;

  /// The tier execution would dispatch to right now (native once the
  /// background compile has published, the finalize-time tier before that).
  ExecTier EffectiveTier() const;
  /// Human-readable tier line reflecting the live native state.
  std::string EffectiveTierReason() const;

  std::string ToString() const;
};

/// \brief Incremental builder used by operators' consume() implementations.
///
/// Supports forward labels so that codegen can emit probe loops the way a real
/// JIT emits basic blocks.
class ProgramBuilder {
 public:
  ProgramBuilder() = default;

  int AllocReg() {
    HETEX_CHECK(next_reg_ < kMaxRegs) << "pipeline uses too many registers";
    return next_reg_++;
  }

  int AllocLocalAcc(AggFunc func) {
    HETEX_CHECK(n_local_accs_ < kMaxLocalAccs);
    local_funcs_[n_local_accs_] = func;
    return n_local_accs_++;
  }

  /// Creates an unbound label; Bind() fixes its position; jumps are patched at
  /// Finalize().
  int NewLabel() {
    labels_.push_back(-1);
    return static_cast<int>(labels_.size()) - 1;
  }

  void Bind(int label) {
    HETEX_CHECK(labels_.at(label) == -1) << "label bound twice";
    labels_[label] = static_cast<int>(code_.size());
  }

  /// Emits an instruction; for branching opcodes the target operand
  /// (BranchTarget) holds a label id until Finalize() patches it.
  void Emit(Instr instr) { code_.push_back(instr); }

  void EmitOp(OpCode op, int a = 0, int b = 0, int c = 0, int d = 0,
              int64_t imm = 0, int cls = 0) {
    Emit(Instr{op, static_cast<uint8_t>(cls), static_cast<int16_t>(a),
               static_cast<int16_t>(b), static_cast<int16_t>(c),
               static_cast<int16_t>(d), imm});
  }

  /// Emits binary ALU opcode `op` in literal mode: regs[a] = regs[b] op imm.
  void EmitLit(OpCode op, int a, int b, int64_t imm) {
    HETEX_CHECK(IsBinaryAlu(op)) << "literal operand on a non-binary opcode";
    Instr in{op, 0, static_cast<int16_t>(a), static_cast<int16_t>(b), 0, 0, imm};
    in.lit = true;
    Emit(in);
  }

  int pc() const { return static_cast<int>(code_.size()); }

  /// Patches labels and moves the code into a program.
  PipelineProgram Finalize(std::string label_text);

 private:
  std::vector<Instr> code_;
  std::vector<int> labels_;
  int next_reg_ = 0;
  int n_local_accs_ = 0;
  AggFunc local_funcs_[kMaxLocalAccs] = {};
};

}  // namespace hetex::jit

#endif  // HETEX_JIT_PROGRAM_H_
