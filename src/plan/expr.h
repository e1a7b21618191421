#ifndef HETEX_PLAN_EXPR_H_
#define HETEX_PLAN_EXPR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "jit/program.h"

namespace hetex::plan {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Resolves a column name to a VM register during codegen. Implemented by the
/// executor's codegen context: fact columns lower to kLoadCol on first use (and
/// are cached, so filters only touch the columns they need — lazy/selective
/// loading falls out naturally), join-payload columns resolve to the registers
/// the probe's kHtLoadPayload defined.
class ColumnResolver {
 public:
  virtual ~ColumnResolver() = default;
  virtual int ResolveColumn(const std::string& name, jit::ProgramBuilder& b) = 0;
};

/// Row accessor for interpreted evaluation (reference evaluator, tests).
using RowGetter = std::function<int64_t(const std::string&)>;

/// \brief Scalar expression over int64 values (column refs, literals, arithmetic,
/// comparisons, boolean connectives).
///
/// Used twice: generated into pipeline VM code by the JIT engine, and evaluated
/// directly by the naive reference evaluator that validates query results.
class Expr {
 public:
  enum class Kind { kCol, kConst, kBin };
  enum class BinOp { kAdd, kSub, kMul, kDiv, kShl, kLt, kLe, kGt, kGe, kEq, kNe,
                     kAnd, kOr };

  static ExprPtr Col(std::string name);
  static ExprPtr Lit(int64_t value);
  static ExprPtr Bin(BinOp op, ExprPtr lhs, ExprPtr rhs);

  /// Emits VM code computing this expression; returns the result register.
  /// A literal right operand rides in its instruction (Instr::lit); a
  /// literal anywhere else takes a kConst.
  int Gen(jit::ProgramBuilder& b, ColumnResolver& cols) const;

  /// Interpreted evaluation (reference path). Generated code evaluates a
  /// filter conjunct by conjunct (GenFilter), so a row that fails one AND
  /// conjunct never evaluates the later ones — as this evaluation
  /// short-circuits them. Inside a conjunct nothing short-circuits: both sides
  /// of an OR (and of an AND under it) are evaluated, so generated code still
  /// divides by zero on `d = 0 OR a / d > 100` where this evaluation does not.
  int64_t Eval(const RowGetter& row) const;

  void CollectColumns(std::set<std::string>* out) const;
  std::string ToString() const;

  Kind kind() const { return kind_; }
  /// Operator of a kBin node.
  BinOp op() const { return op_; }
  /// Children of a kBin node (null otherwise). Exposed for planner walks.
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

 private:
  Expr() = default;

  Kind kind_ = Kind::kConst;
  std::string col_;
  int64_t value_ = 0;
  BinOp op_ = BinOp::kAdd;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

/// The top-level AND conjuncts of `pred`, left to right (a predicate that is
/// not an AND is its one conjunct; null has none).
std::vector<ExprPtr> Conjuncts(const ExprPtr& pred);

/// \brief Emits `pred` as a conjunct filter: first the load of every column it
/// reads, then one kFilter per conjunct (Conjuncts), so a row stops at the
/// first conjunct it fails. The loads all precede the first filter, so the
/// bytes a scan reads do not depend on the conjuncts' selectivity.
void GenFilter(const ExprPtr& pred, jit::ProgramBuilder& b, ColumnResolver& cols);

// Convenience constructors for readable query definitions.
inline ExprPtr Col(std::string name) { return Expr::Col(std::move(name)); }
inline ExprPtr Lit(int64_t v) { return Expr::Lit(v); }
inline ExprPtr Add(ExprPtr a, ExprPtr b) { return Expr::Bin(Expr::BinOp::kAdd, a, b); }
inline ExprPtr Sub(ExprPtr a, ExprPtr b) { return Expr::Bin(Expr::BinOp::kSub, a, b); }
inline ExprPtr Mul(ExprPtr a, ExprPtr b) { return Expr::Bin(Expr::BinOp::kMul, a, b); }
inline ExprPtr Shl(ExprPtr a, int64_t bits) {
  return Expr::Bin(Expr::BinOp::kShl, a, Expr::Lit(bits));
}
inline ExprPtr Lt(ExprPtr a, ExprPtr b) { return Expr::Bin(Expr::BinOp::kLt, a, b); }
inline ExprPtr Le(ExprPtr a, ExprPtr b) { return Expr::Bin(Expr::BinOp::kLe, a, b); }
inline ExprPtr Gt(ExprPtr a, ExprPtr b) { return Expr::Bin(Expr::BinOp::kGt, a, b); }
inline ExprPtr Ge(ExprPtr a, ExprPtr b) { return Expr::Bin(Expr::BinOp::kGe, a, b); }
inline ExprPtr Eq(ExprPtr a, ExprPtr b) { return Expr::Bin(Expr::BinOp::kEq, a, b); }
inline ExprPtr Ne(ExprPtr a, ExprPtr b) { return Expr::Bin(Expr::BinOp::kNe, a, b); }
inline ExprPtr And(ExprPtr a, ExprPtr b) { return Expr::Bin(Expr::BinOp::kAnd, a, b); }
inline ExprPtr Or(ExprPtr a, ExprPtr b) { return Expr::Bin(Expr::BinOp::kOr, a, b); }
inline ExprPtr Between(ExprPtr v, int64_t lo, int64_t hi) {
  return And(Ge(v, Lit(lo)), Le(v, Lit(hi)));
}

}  // namespace hetex::plan

#endif  // HETEX_PLAN_EXPR_H_
