#include "plan/expr.h"

#include <sstream>

#include "common/logging.h"

namespace hetex::plan {

ExprPtr Expr::Col(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kCol;
  e->col_ = std::move(name);
  return e;
}

ExprPtr Expr::Lit(int64_t value) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kConst;
  e->value_ = value;
  return e;
}

ExprPtr Expr::Bin(BinOp op, ExprPtr lhs, ExprPtr rhs) {
  HETEX_CHECK(lhs != nullptr && rhs != nullptr);
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kBin;
  e->op_ = op;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

namespace {

jit::OpCode AluOp(Expr::BinOp op) {
  using jit::OpCode;
  switch (op) {
    case Expr::BinOp::kAdd: return OpCode::kAdd;
    case Expr::BinOp::kSub: return OpCode::kSub;
    case Expr::BinOp::kMul: return OpCode::kMul;
    case Expr::BinOp::kDiv: return OpCode::kDiv;
    case Expr::BinOp::kShl: return OpCode::kShl;
    case Expr::BinOp::kLt: return OpCode::kCmpLt;
    case Expr::BinOp::kLe: return OpCode::kCmpLe;
    case Expr::BinOp::kGt: return OpCode::kCmpGt;
    case Expr::BinOp::kGe: return OpCode::kCmpGe;
    case Expr::BinOp::kEq: return OpCode::kCmpEq;
    case Expr::BinOp::kNe: return OpCode::kCmpNe;
    case Expr::BinOp::kAnd: return OpCode::kAnd;
    case Expr::BinOp::kOr: return OpCode::kOr;
  }
  HETEX_CHECK(false) << "unhandled binop";
  return OpCode::kAdd;
}

}  // namespace

int Expr::Gen(jit::ProgramBuilder& b, ColumnResolver& cols) const {
  using jit::OpCode;
  switch (kind_) {
    case Kind::kCol:
      return cols.ResolveColumn(col_, b);
    case Kind::kConst: {
      const int reg = b.AllocReg();
      b.EmitOp(OpCode::kConst, reg, 0, 0, 0, value_);
      return reg;
    }
    case Kind::kBin: {
      const int lr = lhs_->Gen(b, cols);
      if (op_ == BinOp::kShl) {
        HETEX_CHECK(rhs_->kind_ == Kind::kConst) << "shl needs constant shift";
        const int reg = b.AllocReg();
        b.EmitOp(OpCode::kShl, reg, lr, 0, 0, rhs_->value_);
        return reg;
      }
      if (rhs_->kind_ == Kind::kConst) {
        const int reg = b.AllocReg();
        b.EmitLit(AluOp(op_), reg, lr, rhs_->value_);
        return reg;
      }
      const int rr = rhs_->Gen(b, cols);
      const int reg = b.AllocReg();
      b.EmitOp(AluOp(op_), reg, lr, rr);
      return reg;
    }
  }
  HETEX_CHECK(false);
  return -1;
}

int64_t Expr::Eval(const RowGetter& row) const {
  switch (kind_) {
    case Kind::kCol: return row(col_);
    case Kind::kConst: return value_;
    case Kind::kBin: {
      const int64_t l = lhs_->Eval(row);
      // Short-circuit booleans match generated-code semantics on valid inputs.
      if (op_ == BinOp::kAnd && l == 0) return 0;
      if (op_ == BinOp::kOr && l != 0) return 1;
      const int64_t r = rhs_->Eval(row);
      switch (op_) {
        case BinOp::kAdd: return l + r;
        case BinOp::kSub: return l - r;
        case BinOp::kMul: return l * r;
        case BinOp::kDiv: return l / r;
        case BinOp::kShl: return l << r;
        case BinOp::kLt: return l < r;
        case BinOp::kLe: return l <= r;
        case BinOp::kGt: return l > r;
        case BinOp::kGe: return l >= r;
        case BinOp::kEq: return l == r;
        case BinOp::kNe: return l != r;
        case BinOp::kAnd: return (l != 0) && (r != 0);
        case BinOp::kOr: return (l != 0) || (r != 0);
      }
    }
  }
  return 0;
}

void Expr::CollectColumns(std::set<std::string>* out) const {
  switch (kind_) {
    case Kind::kCol: out->insert(col_); break;
    case Kind::kConst: break;
    case Kind::kBin:
      lhs_->CollectColumns(out);
      rhs_->CollectColumns(out);
      break;
  }
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kCol: return col_;
    case Kind::kConst: return std::to_string(value_);
    case Kind::kBin: {
      const char* op = "?";
      switch (op_) {
        case BinOp::kAdd: op = "+"; break;
        case BinOp::kSub: op = "-"; break;
        case BinOp::kMul: op = "*"; break;
        case BinOp::kDiv: op = "/"; break;
        case BinOp::kShl: op = "<<"; break;
        case BinOp::kLt: op = "<"; break;
        case BinOp::kLe: op = "<="; break;
        case BinOp::kGt: op = ">"; break;
        case BinOp::kGe: op = ">="; break;
        case BinOp::kEq: op = "="; break;
        case BinOp::kNe: op = "!="; break;
        case BinOp::kAnd: op = "AND"; break;
        case BinOp::kOr: op = "OR"; break;
      }
      std::ostringstream os;
      os << "(" << lhs_->ToString() << " " << op << " " << rhs_->ToString() << ")";
      return os.str();
    }
  }
  return "?";
}

std::vector<ExprPtr> Conjuncts(const ExprPtr& pred) {
  std::vector<ExprPtr> out;
  const std::function<void(const ExprPtr&)> split = [&](const ExprPtr& e) {
    if (e->kind() == Expr::Kind::kBin && e->op() == Expr::BinOp::kAnd) {
      split(e->lhs());
      split(e->rhs());
    } else {
      out.push_back(e);
    }
  };
  if (pred != nullptr) split(pred);
  return out;
}

void GenFilter(const ExprPtr& pred, jit::ProgramBuilder& b, ColumnResolver& cols) {
  if (pred == nullptr) return;
  std::set<std::string> names;
  pred->CollectColumns(&names);
  for (const auto& name : names) cols.ResolveColumn(name, b);
  for (const auto& conjunct : Conjuncts(pred)) {
    b.EmitOp(jit::OpCode::kFilter, conjunct->Gen(b, cols));
  }
}

}  // namespace hetex::plan
