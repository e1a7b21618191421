#include "jit/interpreter.h"

#include <gtest/gtest.h>

#include <vector>

#include "jit/device_provider.h"
#include "jit/program.h"

namespace hetex::jit {
namespace {

/// Helper: finalize + run a program over `rows` of the given int64 columns,
/// collecting emitted values into `out` (single int64 output column).
struct VmHarness {
  explicit VmHarness(int n_out_cols = 1) : out_cols(n_out_cols) {}

  std::vector<int64_t> Run(PipelineProgram program,
                           const std::vector<std::vector<int64_t>>& cols,
                           uint64_t row_begin = 0, uint64_t row_step = 1) {
    DeviceProvider* unused = nullptr;
    (void)unused;
    program.finalized = true;  // unit test drives the raw interpreter
    bindings.clear();
    for (const auto& c : cols) {
      bindings.push_back({reinterpret_cast<const std::byte*>(c.data()), 8});
    }
    out_storage.assign(out_cols, std::vector<int64_t>(1024, 0));
    emit.cols.clear();
    for (auto& col : out_storage) {
      emit.cols.push_back({reinterpret_cast<std::byte*>(col.data()), 8});
    }
    emit.capacity = 1024;
    emit.ResetCursor();

    ExecCtx ctx;
    ctx.cols = bindings.data();
    ctx.n_cols = static_cast<int>(bindings.size());
    ctx.emit = &emit;
    ctx.local_accs = accs;
    ctx.ht_slots = slots;
    ctx.stats = &stats;
    ctx.row_begin = row_begin;
    ctx.row_step = row_step;
    RunRows(program, ctx, cols.empty() ? 0 : cols[0].size());

    std::vector<int64_t> out;
    for (uint64_t i = 0; i < emit.rows(); ++i) out.push_back(out_storage[0][i]);
    return out;
  }

  int out_cols;
  std::vector<ColumnBinding> bindings;
  std::vector<std::vector<int64_t>> out_storage;
  EmitTarget emit;
  int64_t accs[kMaxLocalAccs] = {};
  void* slots[8] = {};
  sim::CostStats stats;
};

PipelineProgram UnaryProgram(OpCode op, int64_t imm = 0) {
  ProgramBuilder b;
  const int in = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, in, 0);
  const int out = b.AllocReg();
  b.EmitOp(op, out, in, 0, 0, imm);
  b.EmitOp(OpCode::kEmit, out, 1);
  return b.Finalize("unary");
}

PipelineProgram BinaryProgram(OpCode op) {
  ProgramBuilder b;
  const int lhs = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, lhs, 0);
  const int rhs = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, rhs, 1);
  const int out = b.AllocReg();
  b.EmitOp(op, out, lhs, rhs);
  b.EmitOp(OpCode::kEmit, out, 1);
  return b.Finalize("binary");
}

struct BinOpCase {
  OpCode op;
  int64_t a, b, expected;
};

class BinOpTest : public ::testing::TestWithParam<BinOpCase> {};

TEST_P(BinOpTest, ComputesExpected) {
  const auto& c = GetParam();
  VmHarness vm;
  auto out = vm.Run(BinaryProgram(c.op), {{c.a}, {c.b}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, BinOpTest,
    ::testing::Values(BinOpCase{OpCode::kAdd, 7, 5, 12},
                      BinOpCase{OpCode::kAdd, -7, 5, -2},
                      BinOpCase{OpCode::kSub, 7, 5, 2},
                      BinOpCase{OpCode::kMul, -3, 9, -27},
                      BinOpCase{OpCode::kDiv, 27, 4, 6},
                      BinOpCase{OpCode::kDiv, -27, 4, -6}));

INSTANTIATE_TEST_SUITE_P(
    Comparisons, BinOpTest,
    ::testing::Values(BinOpCase{OpCode::kCmpLt, 1, 2, 1},
                      BinOpCase{OpCode::kCmpLt, 2, 2, 0},
                      BinOpCase{OpCode::kCmpLe, 2, 2, 1},
                      BinOpCase{OpCode::kCmpGt, 3, 2, 1},
                      BinOpCase{OpCode::kCmpGt, 2, 3, 0},
                      BinOpCase{OpCode::kCmpGe, 2, 2, 1},
                      BinOpCase{OpCode::kCmpEq, 5, 5, 1},
                      BinOpCase{OpCode::kCmpEq, 5, 6, 0},
                      BinOpCase{OpCode::kCmpNe, 5, 6, 1},
                      BinOpCase{OpCode::kCmpNe, 6, 6, 0}));

INSTANTIATE_TEST_SUITE_P(
    Logic, BinOpTest,
    ::testing::Values(BinOpCase{OpCode::kAnd, 1, 1, 1},
                      BinOpCase{OpCode::kAnd, 1, 0, 0},
                      BinOpCase{OpCode::kAnd, 7, -2, 1},  // nonzero = true
                      BinOpCase{OpCode::kOr, 0, 0, 0},
                      BinOpCase{OpCode::kOr, 0, 3, 1}));

TEST(Interpreter, NotAndShlAndConst) {
  VmHarness vm;
  EXPECT_EQ(vm.Run(UnaryProgram(OpCode::kNot), {{0}})[0], 1);
  EXPECT_EQ(vm.Run(UnaryProgram(OpCode::kNot), {{5}})[0], 0);
  EXPECT_EQ(vm.Run(UnaryProgram(OpCode::kShl, 4), {{3}})[0], 48);

  ProgramBuilder b;
  const int r = b.AllocReg();
  b.EmitOp(OpCode::kConst, r, 0, 0, 0, -99);
  b.EmitOp(OpCode::kEmit, r, 1);
  EXPECT_EQ(vm.Run(b.Finalize("const"), {{0}})[0], -99);
}

TEST(Interpreter, FilterDropsFailingTuples) {
  ProgramBuilder b;
  const int v = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, v, 0);
  const int three = b.AllocReg();
  b.EmitOp(OpCode::kConst, three, 0, 0, 0, 3);
  const int pred = b.AllocReg();
  b.EmitOp(OpCode::kCmpGt, pred, v, three);
  b.EmitOp(OpCode::kFilter, pred);
  b.EmitOp(OpCode::kEmit, v, 1);
  VmHarness vm;
  auto out = vm.Run(b.Finalize("filter"), {{1, 5, 2, 8, 3, 9}});
  EXPECT_EQ(out, (std::vector<int64_t>{5, 8, 9}));
}

TEST(Interpreter, GridStrideVisitsDisjointRows) {
  // Two logical threads with step 2 must cover all rows exactly once.
  VmHarness vm;
  auto p = UnaryProgram(OpCode::kAdd);  // out = in + in? b=in c=0 -> in+reg0
  // Simpler: emit the loaded value.
  ProgramBuilder b;
  const int v = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, v, 0);
  b.EmitOp(OpCode::kEmit, v, 1);
  auto program = b.Finalize("id");
  auto even = vm.Run(program, {{10, 11, 12, 13, 14}}, 0, 2);
  EXPECT_EQ(even, (std::vector<int64_t>{10, 12, 14}));
  VmHarness vm2;
  auto odd = vm2.Run(program, {{10, 11, 12, 13, 14}}, 1, 2);
  EXPECT_EQ(odd, (std::vector<int64_t>{11, 13}));
}

TEST(Interpreter, JumpsFormLoops) {
  // Program: counter = col0; loop: emit counter; counter -= 1; if counter != 0
  // jump back. Exercises a forward kJmpIfFalse exit and a backward kJmp.
  ProgramBuilder b;
  const int counter = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, counter, 0);
  const int one = b.AllocReg();
  b.EmitOp(OpCode::kConst, one, 0, 0, 0, 1);
  const int loop = b.NewLabel();
  b.Bind(loop);
  b.EmitOp(OpCode::kEmit, counter, 1);
  b.EmitOp(OpCode::kSub, counter, counter, one);
  const int done = b.NewLabel();
  b.EmitOp(OpCode::kJmpIfFalse, counter, done);
  b.EmitOp(OpCode::kJmp, loop);
  b.Bind(done);
  VmHarness vm;
  auto out = vm.Run(b.Finalize("loop"), {{3}});
  EXPECT_EQ(out, (std::vector<int64_t>{3, 2, 1}));
}

TEST(Interpreter, AggLocalFunctions) {
  for (auto [func, expected] :
       {std::pair{AggFunc::kSum, int64_t{10}}, std::pair{AggFunc::kCount, int64_t{4}},
        std::pair{AggFunc::kMin, int64_t{1}}, std::pair{AggFunc::kMax, int64_t{4}}}) {
    ProgramBuilder b;
    const int v = b.AllocReg();
    b.EmitOp(OpCode::kLoadCol, v, 0);
    const int acc = b.AllocLocalAcc(func);
    b.EmitOp(OpCode::kAggLocal, acc, v, static_cast<int>(func));
    auto program = b.Finalize("agg");
    VmHarness vm;
    vm.accs[0] = AggIdentity(func);
    vm.Run(std::move(program), {{1, 4, 2, 3}});
    EXPECT_EQ(vm.accs[0], expected) << static_cast<int>(func);
  }
}

TEST(Interpreter, CostStatsAccumulate) {
  VmHarness vm;
  vm.Run(UnaryProgram(OpCode::kNot), {{1, 2, 3, 4}});
  EXPECT_EQ(vm.stats.tuples, 4u);
  EXPECT_EQ(vm.stats.bytes_read, 4 * 8u);
  EXPECT_EQ(vm.stats.bytes_written, 4 * 8u);  // emits
  EXPECT_GT(vm.stats.ops, 12u);
}

TEST(EmitTarget, OnFullMakesRoom) {
  EmitTarget t;
  std::vector<int64_t> store(2);
  t.cols.push_back({reinterpret_cast<std::byte*>(store.data()), 8});
  t.capacity = 2;
  int flushes = 0;
  t.on_full = [&] {
    ++flushes;
    t.ResetCursor();
  };
  sim::CostStats stats;
  for (int64_t v = 0; v < 5; ++v) t.Append(&v, 1, &stats);
  EXPECT_EQ(flushes, 2);
  EXPECT_EQ(t.rows(), 1u);  // 5 appends = 2 full blocks + 1
}

TEST(EmitTarget, NarrowColumnsTruncate) {
  EmitTarget t;
  std::vector<int32_t> store(4);
  t.cols.push_back({reinterpret_cast<std::byte*>(store.data()), 4});
  t.capacity = 4;
  sim::CostStats stats;
  int64_t v = 0x1122334455667788;
  t.Append(&v, 1, &stats);
  EXPECT_EQ(store[0], static_cast<int32_t>(v));
  EXPECT_EQ(stats.bytes_written, 4u);
}

}  // namespace
}  // namespace hetex::jit
