#include "plan/expr.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

#include "common/rng.h"
#include "jit/interpreter.h"

namespace hetex::plan {
namespace {

/// Runs the program `gen` emits over one row and returns what it emitted:
/// columns resolve to kLoadCol on first use, in order.
std::vector<int64_t> RunVm(
    const std::function<void(jit::ProgramBuilder&, ColumnResolver&)>& gen,
    const std::map<std::string, int64_t>& row) {
  // Column storage: one row per column, order of first use.
  std::vector<std::vector<int64_t>> columns;
  std::vector<std::string> names;

  class MapResolver : public ColumnResolver {
   public:
    MapResolver(const std::map<std::string, int64_t>& row,
                std::vector<std::vector<int64_t>>* cols,
                std::vector<std::string>* names)
        : row_(row), cols_(cols), names_(names) {}
    int ResolveColumn(const std::string& name, jit::ProgramBuilder& b) override {
      if (auto it = regs_.find(name); it != regs_.end()) return it->second;
      const int slot = static_cast<int>(cols_->size());
      cols_->push_back({row_.at(name)});
      names_->push_back(name);
      const int reg = b.AllocReg();
      b.EmitOp(jit::OpCode::kLoadCol, reg, slot);
      regs_[name] = reg;
      return reg;
    }

   private:
    const std::map<std::string, int64_t>& row_;
    std::vector<std::vector<int64_t>>* cols_;
    std::vector<std::string>* names_;
    std::map<std::string, int> regs_;
  } resolver(row, &columns, &names);

  jit::ProgramBuilder b;
  gen(b, resolver);
  jit::PipelineProgram program = b.Finalize("expr-test");
  program.finalized = true;

  std::vector<jit::ColumnBinding> bindings;
  for (const auto& c : columns) {
    bindings.push_back({reinterpret_cast<const std::byte*>(c.data()), 8});
  }
  std::vector<int64_t> out(4);
  jit::EmitTarget emit;
  emit.cols.push_back({reinterpret_cast<std::byte*>(out.data()), 8});
  emit.capacity = 4;
  sim::CostStats stats;
  jit::ExecCtx ctx;
  ctx.cols = bindings.data();
  ctx.n_cols = static_cast<int>(bindings.size());
  ctx.emit = &emit;
  ctx.stats = &stats;
  jit::RunRows(program, ctx, 1);
  out.resize(emit.rows());
  return out;
}

/// Evaluates an expression both ways — interpreted Eval() and generated VM
/// code — and checks they agree. This is the core property linking the
/// reference evaluator to the JIT engine.
int64_t EvalViaVm(const ExprPtr& expr,
                  const std::map<std::string, int64_t>& row) {
  const auto gen = [&](jit::ProgramBuilder& b, ColumnResolver& cols) {
    b.EmitOp(jit::OpCode::kEmit, expr->Gen(b, cols), 1);
  };
  return RunVm(gen, row).at(0);
}

int64_t EvalInterp(const ExprPtr& expr, const std::map<std::string, int64_t>& row) {
  return expr->Eval([&](const std::string& name) { return row.at(name); });
}

TEST(Expr, LiteralAndColumn) {
  std::map<std::string, int64_t> row{{"x", 17}};
  EXPECT_EQ(EvalInterp(Lit(5), row), 5);
  EXPECT_EQ(EvalInterp(Col("x"), row), 17);
  EXPECT_EQ(EvalViaVm(Lit(5), row), 5);
  EXPECT_EQ(EvalViaVm(Col("x"), row), 17);
}

TEST(Expr, ArithmeticAndComparisons) {
  std::map<std::string, int64_t> row{{"a", 6}, {"b", -4}};
  const auto cases = {
      Add(Col("a"), Col("b")), Sub(Col("a"), Col("b")), Mul(Col("a"), Col("b")),
      Lt(Col("a"), Col("b")),  Le(Col("a"), Lit(6)),    Gt(Col("a"), Col("b")),
      Ge(Col("b"), Lit(-4)),   Eq(Col("a"), Lit(6)),    Ne(Col("a"), Col("b")),
      Shl(Col("a"), 3),        Between(Col("a"), 0, 10),
      And(Gt(Col("a"), Lit(0)), Lt(Col("b"), Lit(0))),
      Or(Eq(Col("a"), Lit(1)), Eq(Col("b"), Lit(-4)))};
  for (const auto& e : cases) {
    EXPECT_EQ(EvalInterp(e, row), EvalViaVm(e, row)) << e->ToString();
  }
}

TEST(Expr, CollectColumns) {
  std::set<std::string> cols;
  And(Gt(Col("x"), Lit(1)), Eq(Col("y"), Col("z")))->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::set<std::string>{"x", "y", "z"}));
}

TEST(Expr, ToStringReadable) {
  EXPECT_EQ(Add(Col("a"), Lit(2))->ToString(), "(a + 2)");
  EXPECT_EQ(Between(Col("d"), 1, 3)->ToString(), "((d >= 1) AND (d <= 3))");
}

/// Property test: random expression trees evaluate identically through the
/// interpreter and through generated VM code.
class RandomExprTest : public ::testing::TestWithParam<int> {};

ExprPtr RandomExpr(Rng& rng, int depth) {
  if (depth == 0 || rng.NextBool(0.3)) {
    if (rng.NextBool(0.5)) return Lit(rng.UniformRange(-20, 20));
    return Col(std::string(1, static_cast<char>('a' + rng.Uniform(4))));
  }
  const auto ops = {Expr::BinOp::kAdd, Expr::BinOp::kSub, Expr::BinOp::kMul,
                    Expr::BinOp::kLt,  Expr::BinOp::kLe,  Expr::BinOp::kGt,
                    Expr::BinOp::kGe,  Expr::BinOp::kEq,  Expr::BinOp::kNe,
                    Expr::BinOp::kAnd, Expr::BinOp::kOr};
  const auto op = *(ops.begin() + rng.Uniform(ops.size()));
  return Expr::Bin(op, RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1));
}

TEST_P(RandomExprTest, InterpreterMatchesGeneratedCode) {
  Rng rng(GetParam() * 7919 + 13);
  for (int iter = 0; iter < 40; ++iter) {
    const ExprPtr e = RandomExpr(rng, 4);
    std::map<std::string, int64_t> row;
    for (char c : {'a', 'b', 'c', 'd'}) {
      row[std::string(1, c)] = rng.UniformRange(-100, 100);
    }
    EXPECT_EQ(EvalInterp(e, row), EvalViaVm(e, row)) << e->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomExprTest, ::testing::Range(0, 8));

TEST(Expr, ConjunctsSplitTopLevelAndsOnly) {
  const ExprPtr inner_or =
      Or(Eq(Col("a"), Lit(1)), And(Eq(Col("b"), Lit(2)), Lt(Col("c"), Lit(3))));
  const auto conjuncts =
      Conjuncts(And(And(Ge(Col("a"), Lit(0)), inner_or), Ne(Col("d"), Lit(4))));
  ASSERT_EQ(conjuncts.size(), 3u);
  EXPECT_EQ(conjuncts[0]->ToString(), "(a >= 0)");
  EXPECT_EQ(conjuncts[1], inner_or);
  EXPECT_EQ(conjuncts[2]->ToString(), "(d != 4)");
  EXPECT_TRUE(Conjuncts(nullptr).empty());
  EXPECT_EQ(Conjuncts(Col("a")).size(), 1u);
}

}  // namespace
}  // namespace hetex::plan
