#include "jit/program.h"

#include <sstream>

namespace hetex::jit {

namespace {
const char* OpName(OpCode op) {
  switch (op) {
    case OpCode::kConst: return "const";
    case OpCode::kLoadCol: return "load_col";
    case OpCode::kAdd: return "add";
    case OpCode::kSub: return "sub";
    case OpCode::kMul: return "mul";
    case OpCode::kDiv: return "div";
    case OpCode::kShl: return "shl";
    case OpCode::kCmpLt: return "cmp_lt";
    case OpCode::kCmpLe: return "cmp_le";
    case OpCode::kCmpGt: return "cmp_gt";
    case OpCode::kCmpGe: return "cmp_ge";
    case OpCode::kCmpEq: return "cmp_eq";
    case OpCode::kCmpNe: return "cmp_ne";
    case OpCode::kAnd: return "and";
    case OpCode::kOr: return "or";
    case OpCode::kNot: return "not";
    case OpCode::kFilter: return "filter";
    case OpCode::kJmp: return "jmp";
    case OpCode::kJmpIfFalse: return "jmp_if_false";
    case OpCode::kHtInsert: return "ht_insert";
    case OpCode::kHtProbeInit: return "ht_probe_init";
    case OpCode::kHtIterNext: return "ht_iter_next";
    case OpCode::kHtLoadPayload: return "ht_load_payload";
    case OpCode::kAggLocal: return "agg_local";
    case OpCode::kGroupByAgg: return "group_by_agg";
    case OpCode::kEmit: return "emit";
    case OpCode::kEnd: return "end";
  }
  return "?";
}
}  // namespace

std::string PipelineProgram::ToString() const {
  std::ostringstream os;
  os << "pipeline '" << label << "' (" << n_regs << " regs, " << n_local_accs
     << " accs)\n";
  int pc = 0;
  for (const Instr& i : code) {
    os << "  " << pc++ << ": " << OpName(i.op) << " a=" << i.a << " b=" << i.b
       << " c=" << i.c << " d=" << i.d;
    if (i.lit) {
      os << " lit=" << i.imm;
    } else if (i.imm != 0) {
      os << " imm=" << i.imm;
    }
    if (i.cls != 0) os << " cls=" << static_cast<int>(i.cls);
    os << "\n";
  }
  return os.str();
}

PipelineProgram ProgramBuilder::Finalize(std::string label_text) {
  // Ensure the tuple program terminates.
  if (code_.empty() || code_.back().op != OpCode::kEnd) {
    EmitOp(OpCode::kEnd);
  }
  // Patch label operands (BranchTarget) to pcs.
  for (Instr& instr : code_) {
    int16_t* target = BranchTarget(instr);
    if (target == nullptr) continue;
    const int label = *target;
    HETEX_CHECK(label >= 0 && label < static_cast<int>(labels_.size()))
        << "jump to unknown label " << label;
    HETEX_CHECK(labels_[label] >= 0) << "jump to unbound label " << label;
    *target = static_cast<int16_t>(labels_[label]);
  }
  PipelineProgram program;
  program.code = std::move(code_);
  program.n_regs = next_reg_;
  program.n_local_accs = n_local_accs_;
  for (int i = 0; i < n_local_accs_; ++i) program.local_acc_funcs[i] = local_funcs_[i];
  program.label = std::move(label_text);
  return program;
}

}  // namespace hetex::jit
