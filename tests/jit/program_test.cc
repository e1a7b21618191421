#include "jit/program.h"

#include <gtest/gtest.h>

namespace hetex::jit {
namespace {

TEST(ProgramBuilder, RegistersAllocateMonotonically) {
  ProgramBuilder b;
  EXPECT_EQ(b.AllocReg(), 0);
  EXPECT_EQ(b.AllocReg(), 1);
  EXPECT_EQ(b.AllocReg(), 2);
}

TEST(ProgramBuilder, LocalAccsRecordFunctions) {
  ProgramBuilder b;
  EXPECT_EQ(b.AllocLocalAcc(AggFunc::kSum), 0);
  EXPECT_EQ(b.AllocLocalAcc(AggFunc::kMax), 1);
  PipelineProgram p = b.Finalize("accs");
  EXPECT_EQ(p.n_local_accs, 2);
  EXPECT_EQ(p.local_acc_funcs[0], AggFunc::kSum);
  EXPECT_EQ(p.local_acc_funcs[1], AggFunc::kMax);
}

TEST(ProgramBuilder, FinalizeAppendsEnd) {
  ProgramBuilder b;
  b.EmitOp(OpCode::kConst, 0, 0, 0, 0, 1);
  PipelineProgram p = b.Finalize("t");
  ASSERT_FALSE(p.code.empty());
  EXPECT_EQ(p.code.back().op, OpCode::kEnd);
}

TEST(ProgramBuilder, ForwardLabelPatched) {
  ProgramBuilder b;
  const int target = b.NewLabel();
  b.EmitOp(OpCode::kJmp, target);           // forward reference
  b.EmitOp(OpCode::kConst, 0, 0, 0, 0, 1);  // skipped
  b.Bind(target);
  b.EmitOp(OpCode::kEnd);
  PipelineProgram p = b.Finalize("fwd");
  EXPECT_EQ(p.code[0].a, 2);  // jump lands on the kEnd
}

TEST(ProgramBuilder, BackwardLabelPatched) {
  ProgramBuilder b;
  const int loop = b.NewLabel();
  b.EmitOp(OpCode::kConst, 0, 0, 0, 0, 1);
  b.Bind(loop);
  b.EmitOp(OpCode::kConst, 1, 0, 0, 0, 2);
  b.EmitOp(OpCode::kJmpIfFalse, 0, loop);
  PipelineProgram p = b.Finalize("back");
  EXPECT_EQ(p.code[2].b, 1);
}

TEST(ProgramBuilder, ConditionalTargetsInOperandB) {
  ProgramBuilder b;
  const int l = b.NewLabel();
  b.EmitOp(OpCode::kJmpIfFalse, 3, l);
  b.Bind(l);
  PipelineProgram p = b.Finalize("cond");
  EXPECT_EQ(p.code[0].a, 3);  // condition register untouched
  EXPECT_EQ(p.code[0].b, 1);
}

TEST(ProgramBuilder, ProbeTargetsInOperandD) {
  // A probe init branches to the loop exit on a miss, an iter-next back to
  // the body on a match; both carry their target in `d`.
  ProgramBuilder b;
  const int exit = b.NewLabel();
  const int body = b.NewLabel();
  b.EmitOp(OpCode::kHtProbeInit, 1, 0, 2, exit, /*imm=*/7);
  b.Bind(body);
  b.EmitOp(OpCode::kHtLoadPayload, 2, 1, 2, 1);
  b.EmitOp(OpCode::kHtIterNext, 1, 0, 2, body);
  b.Bind(exit);
  PipelineProgram p = b.Finalize("probe");
  EXPECT_EQ(p.code[0].d, 3);
  EXPECT_EQ(p.code[0].c, 2);  // slot untouched
  EXPECT_EQ(p.code[0].imm, 7);
  EXPECT_EQ(p.code[2].d, 1);
}

TEST(ProgramBuilder, LiteralOperandModeRidesInTheInstruction) {
  ProgramBuilder b;
  b.EmitLit(OpCode::kCmpLt, 1, 0, 25);
  PipelineProgram p = b.Finalize("lit");
  EXPECT_TRUE(p.code[0].lit);
  EXPECT_EQ(p.code[0].imm, 25);
  EXPECT_NE(p.ToString().find("cmp_lt a=1 b=0 c=0 d=0 lit=25"), std::string::npos)
      << p.ToString();
}

TEST(Program, ToStringListsInstructions) {
  ProgramBuilder b;
  b.EmitOp(OpCode::kConst, 0, 0, 0, 0, 42);
  PipelineProgram p = b.Finalize("pretty");
  const std::string s = p.ToString();
  EXPECT_NE(s.find("pretty"), std::string::npos);
  EXPECT_NE(s.find("const"), std::string::npos);
  EXPECT_NE(s.find("imm=42"), std::string::npos);
}

}  // namespace
}  // namespace hetex::jit
