#include <gtest/gtest.h>

#include "jit/device_provider.h"
#include "jit/program.h"

namespace hetex::jit {
namespace {

/// ValidateProgram rejection matrix: every malformed shape surfaces a Status
/// (never UB or a silent accept). Programs are hand-assembled to hit each rule.
PipelineProgram Raw(std::vector<Instr> code, int n_regs, int n_local_accs = 0) {
  PipelineProgram p;
  p.code = std::move(code);
  p.n_regs = n_regs;
  p.n_local_accs = n_local_accs;
  p.label = "valid.test";
  return p;
}

Instr I(OpCode op, int a = 0, int b = 0, int c = 0, int d = 0, int64_t imm = 0) {
  return Instr{op, 0, static_cast<int16_t>(a), static_cast<int16_t>(b),
               static_cast<int16_t>(c), static_cast<int16_t>(d), imm};
}

TEST(Validation, AcceptsMinimalProgram) {
  EXPECT_TRUE(ValidateProgram(Raw({I(OpCode::kEnd)}, 0)).ok());
}

TEST(Validation, RejectsMissingEnd) {
  EXPECT_FALSE(ValidateProgram(Raw({}, 0)).ok());
  EXPECT_FALSE(
      ValidateProgram(Raw({I(OpCode::kConst, 0)}, 1)).ok());
}

TEST(Validation, RejectsRegisterOutOfRange) {
  // Destination register beyond n_regs.
  Status st = ValidateProgram(
      Raw({I(OpCode::kConst, 3), I(OpCode::kEnd)}, /*n_regs=*/2));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("register out of range"), std::string::npos);
  // Source register of an ALU op.
  EXPECT_FALSE(ValidateProgram(
                   Raw({I(OpCode::kAdd, 0, 1, 5), I(OpCode::kEnd)}, 2))
                   .ok());
  // Negative register index.
  EXPECT_FALSE(ValidateProgram(
                   Raw({I(OpCode::kFilter, -1), I(OpCode::kEnd)}, 2))
                   .ok());
}

TEST(Validation, RejectsRegisterWindowsOutOfRange) {
  // Emit window a..a+b crossing n_regs.
  Status st = ValidateProgram(
      Raw({I(OpCode::kEmit, 2, 3), I(OpCode::kEnd)}, /*n_regs=*/4));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("emit register window"), std::string::npos);
  // HtInsert payload window.
  EXPECT_FALSE(
      ValidateProgram(Raw({I(OpCode::kHtInsert, 0, 0, 3, 4), I(OpCode::kEnd)}, 4))
          .ok());
  // HtLoadPayload destination window.
  EXPECT_FALSE(ValidateProgram(
                   Raw({I(OpCode::kHtLoadPayload, 3, 0, 0, 2), I(OpCode::kEnd)}, 4))
                   .ok());
  // GroupByAgg value window (d = 0 is also invalid).
  EXPECT_FALSE(
      ValidateProgram(Raw({I(OpCode::kGroupByAgg, 0, 0, 0, 0), I(OpCode::kEnd)}, 4))
          .ok());
}

TEST(Validation, RejectsHtSlotOutOfRange) {
  Status st = ValidateProgram(
      Raw({I(OpCode::kHtProbeInit, 0, 1, kMaxHtSlots), I(OpCode::kEnd)}, 2));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("hash-table slot"), std::string::npos);
  EXPECT_FALSE(ValidateProgram(
                   Raw({I(OpCode::kHtInsert, -1, 0, 0, 0), I(OpCode::kEnd)}, 2))
                   .ok());
  EXPECT_FALSE(ValidateProgram(
                   Raw({I(OpCode::kGroupByAgg, 99, 0, 0, 1), I(OpCode::kEnd)}, 2))
                   .ok());
}

TEST(Validation, RejectsJumpOutOfRangeAndUnboundLabels) {
  Status st = ValidateProgram(
      Raw({I(OpCode::kJmp, 99), I(OpCode::kEnd)}, 0));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("jump out of range"), std::string::npos);
  // A negative target is an unpatched (unbound) label, reported distinctly.
  st = ValidateProgram(Raw({I(OpCode::kJmpIfFalse, 0, -1), I(OpCode::kEnd)}, 1));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("unbound label"), std::string::npos);
}

TEST(Validation, RejectsProbeBranchTargetOutOfRange) {
  // A probe init's miss target and an iter-next's match target live in `d`.
  Status st = ValidateProgram(
      Raw({I(OpCode::kHtProbeInit, 0, 1, 0, 9), I(OpCode::kEnd)}, 2));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("jump out of range"), std::string::npos);
  st = ValidateProgram(Raw({I(OpCode::kHtProbeInit, 0, 1, 0, 2),
                            I(OpCode::kHtIterNext, 0, 1, 0, -1), I(OpCode::kEnd)},
                           2));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("unbound label"), std::string::npos);
  EXPECT_TRUE(ValidateProgram(Raw({I(OpCode::kHtProbeInit, 0, 1, 0, 2),
                                   I(OpCode::kHtIterNext, 0, 1, 0, 1),
                                   I(OpCode::kEnd)},
                                  2))
                  .ok());
}

TEST(Validation, RejectsLocalAccOutOfRange) {
  Status st = ValidateProgram(Raw(
      {I(OpCode::kAggLocal, 2, 0, 0), I(OpCode::kEnd)}, 1, /*n_local_accs=*/1));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("local accumulator"), std::string::npos);
}

TEST(Validation, RejectsZeroConstantDivisor) {
  // regs[1] = 0; regs[2] = regs[0] / regs[1] — statically rejectable UB.
  Status st = ValidateProgram(Raw({I(OpCode::kLoadCol, 0, 0),
                                   I(OpCode::kConst, 1, 0, 0, 0, 0),
                                   I(OpCode::kDiv, 2, 0, 1), I(OpCode::kEnd)},
                                  3));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("divisor register can hold a zero constant"),
            std::string::npos);
  // A nonzero constant divisor passes.
  EXPECT_TRUE(ValidateProgram(Raw({I(OpCode::kLoadCol, 0, 0),
                                   I(OpCode::kConst, 1, 0, 0, 0, 7),
                                   I(OpCode::kDiv, 2, 0, 1), I(OpCode::kEnd)},
                                  3))
                  .ok());
}

TEST(Validation, RejectsZeroLiteralDivisor) {
  // regs[1] = regs[0] / 0 in literal mode: the divisor is no register, and
  // the rejection reads as the register rule's.
  Instr div = I(OpCode::kDiv, 1, 0, /*c=*/5);
  div.lit = true;
  Status st =
      ValidateProgram(Raw({I(OpCode::kLoadCol, 0, 0), div, I(OpCode::kEnd)}, 2));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("divisor register can hold a zero constant"),
            std::string::npos)
      << st.ToString();
  // A nonzero literal passes, and its unused `c` is not a register operand.
  div.imm = 3;
  EXPECT_TRUE(
      ValidateProgram(Raw({I(OpCode::kLoadCol, 0, 0), div, I(OpCode::kEnd)}, 2)).ok());
}

TEST(Validation, RejectsExcessRegisterPressure) {
  PipelineProgram p = Raw({I(OpCode::kEnd)}, kMaxRegs + 1);
  EXPECT_FALSE(ValidateProgram(p).ok());
}

}  // namespace
}  // namespace hetex::jit
