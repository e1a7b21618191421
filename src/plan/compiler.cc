#include "plan/compiler.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"

namespace hetex::plan {

using jit::OpCode;
using jit::ProgramBuilder;

jit::AggFunc MergeFunc(jit::AggFunc f) {
  return f == jit::AggFunc::kCount ? jit::AggFunc::kSum : f;
}

namespace {

/// The schema slot of `table`'s column `name`, in its placed code.
ColSlot TableSlot(const storage::Table& table, const std::string& name) {
  const storage::Column& col = table.column(name);
  return {name, col.width(), col.base()};
}

/// Column resolver backing one pipeline's codegen: fact/table columns lower to
/// kLoadCol (cached per tuple program), probe payload columns resolve to the
/// registers the enclosing probe loop defined.
class PipelineResolver : public ColumnResolver {
 public:
  /// Table-backed resolver (codes from the table schema).
  PipelineResolver(const storage::Table* table, std::vector<ColSlot>* input_cols)
      : table_(table), input_cols_(input_cols) {}

  /// Schema-backed resolver (packed-input builds / gather pipelines).
  PipelineResolver(const std::vector<ColSlot>& schema,
                   std::vector<ColSlot>* input_cols)
      : schema_(&schema), input_cols_(input_cols) {}

  int ResolveColumn(const std::string& name, ProgramBuilder& b) override {
    if (auto it = payload_regs_.find(name); it != payload_regs_.end()) {
      return it->second;
    }
    if (auto it = col_regs_.find(name); it != col_regs_.end()) {
      return it->second;
    }
    int slot = -1;
    for (size_t i = 0; i < input_cols_->size(); ++i) {
      if ((*input_cols_)[i].name == name) {
        slot = static_cast<int>(i);
        break;
      }
    }
    if (slot < 0) {
      slot = static_cast<int>(input_cols_->size());
      input_cols_->push_back(SlotOf(name));
    }
    const int reg = b.AllocReg();
    b.EmitOp(OpCode::kLoadCol, reg, slot);
    col_regs_[name] = reg;
    return reg;
  }

  void BindPayload(const std::string& name, int reg) { payload_regs_[name] = reg; }

 private:
  ColSlot SlotOf(const std::string& name) const {
    if (table_ != nullptr) return TableSlot(*table_, name);
    for (const auto& slot : *schema_) {
      if (slot.name == name) return slot;
    }
    HETEX_CHECK(false) << "column '" << name << "' not in pipeline input schema";
    return {name};
  }

  const storage::Table* table_ = nullptr;
  const std::vector<ColSlot>* schema_ = nullptr;
  std::vector<ColSlot>* input_cols_;
  std::map<std::string, int> col_regs_;
  std::map<std::string, int> payload_regs_;
};

/// The first register of a contiguous window holding `regs` (HT inserts,
/// group-by folds and emits take contiguous register windows). Values that
/// already sit in consecutive registers — a lone value always does — keep
/// their own; the rest are copied into a fresh range, one kShl by 0 each.
int MakeContiguous(ProgramBuilder& b, const std::vector<int>& regs) {
  HETEX_CHECK(!regs.empty());
  bool consecutive = true;
  for (size_t i = 1; i < regs.size(); ++i) {
    consecutive &= regs[i] == regs[0] + static_cast<int>(i);
  }
  if (consecutive) return regs[0];
  const int first = b.AllocReg();
  for (size_t i = 1; i < regs.size(); ++i) b.AllocReg();
  for (size_t i = 0; i < regs.size(); ++i) {
    // mov: shift by zero
    b.EmitOp(OpCode::kShl, first + static_cast<int>(i), regs[i], 0, 0, 0);
  }
  return first;
}

}  // namespace

QueryCompiler::QueryCompiler(const QuerySpec& spec,
                             const storage::Catalog& catalog,
                             const sim::CostModel& cost_model)
    : spec_(&spec), catalog_(&catalog), cost_model_(&cost_model) {}

CompiledPipeline QueryCompiler::CompileSpan(
    const Span& span, const std::vector<ColSlot>* upstream_schema) const {
  switch (span.role) {
    case StageRole::kBuild:
      HETEX_CHECK(span.join_id >= 0) << "build span without a join id stamp";
      return CompileBuild(span.join_id, upstream_schema);
    case StageRole::kFilterStage:
      HETEX_CHECK(span.join_id >= 0) << "filter stage without a join id stamp";
      return CompileBuildFilter(span.join_id);
    case StageRole::kProbe:
      return CompileProbe();
    case StageRole::kGather:
      return CompileGather();
  }
  HETEX_CHECK(false) << "unreachable span role";
  return {};
}

CompiledPipeline QueryCompiler::CompileBuild(
    int join_id, const std::vector<ColSlot>* input_schema) const {
  const auto& join = spec_->joins.at(join_id);
  const storage::Table& table = catalog_->at(join.build_table);

  CompiledPipeline out;
  ProgramBuilder b;
  PipelineResolver cols = input_schema == nullptr
                              ? PipelineResolver(&table, &out.input_cols)
                              : PipelineResolver(*input_schema, &out.input_cols);

  if (input_schema != nullptr) {
    // Packed survivors of a build-side filter stage: the filter already ran.
    // The runtime binds the wire columns to input slots positionally, so the
    // whole schema resolves up front, in wire order (lazy resolution would
    // reorder the slots by first use and bind the wrong columns).
    for (const auto& slot : *input_schema) cols.ResolveColumn(slot.name, b);
  } else {
    GenFilter(join.build_filter, b, cols);
  }
  const int key = cols.ResolveColumn(join.build_key, b);
  std::vector<int> payload_regs;
  for (const auto& col : join.payload) {
    payload_regs.push_back(cols.ResolveColumn(col, b));
  }
  int first = 0;
  if (!payload_regs.empty()) first = MakeContiguous(b, payload_regs);
  const int cls =
      cost_model_->RandomAccessClass(JoinHtBytes(join, *catalog_));
  b.EmitOp(OpCode::kHtInsert, /*ht_slot=*/0, key, first,
           static_cast<int>(payload_regs.size()), 0, cls);

  out.ht_join_slots = {join_id};
  out.program = b.Finalize(spec_->name + ".build[" + join.build_table + "]");
  return out;
}

CompiledPipeline QueryCompiler::CompileProbe() const {
  const storage::Table& fact = catalog_->at(spec_->fact_table);

  CompiledPipeline out;
  ProgramBuilder b;
  PipelineResolver cols(&fact, &out.input_cols);

  GenFilter(spec_->fact_filter, b, cols);

  for (int j = 0; j < static_cast<int>(spec_->joins.size()); ++j) {
    out.ht_join_slots.push_back(j);
  }

  // Tail of the fused pipeline: local aggregation (per instance / per GPU).
  auto gen_tail = [&]() {
    if (spec_->group_by.empty()) {
      for (const auto& agg : spec_->aggs) {
        int val = 0;
        if (agg.func != jit::AggFunc::kCount) {
          HETEX_CHECK(agg.value != nullptr) << "non-count aggregate needs a value";
          val = agg.value->Gen(b, cols);
        }
        const int acc = b.AllocLocalAcc(agg.func);
        b.EmitOp(OpCode::kAggLocal, acc, val, static_cast<int>(agg.func));
      }
      return;
    }
    const ExprPtr key_expr = CombineGroupKeys(spec_->group_by);
    const int key = key_expr->Gen(b, cols);
    std::vector<int> vals;
    for (const auto& agg : spec_->aggs) {
      if (agg.func == jit::AggFunc::kCount) {
        const int one = b.AllocReg();
        b.EmitOp(OpCode::kConst, one, 0, 0, 0, 1);
        vals.push_back(one);
      } else {
        vals.push_back(agg.value->Gen(b, cols));
      }
    }
    const int first = MakeContiguous(b, vals);
    out.agg_ht_slot = static_cast<int>(spec_->joins.size());
    out.n_group_vals = static_cast<int>(vals.size());
    out.groups_capacity = spec_->expected_groups;
    for (size_t i = 0; i < spec_->aggs.size(); ++i) {
      // Group folds use SUM for COUNT (each tuple contributes a literal 1).
      out.group_funcs[i] = MergeFunc(spec_->aggs[i].func);
    }
    const uint64_t ht_bytes =
        out.groups_capacity * 2 * (8 + 8ull * out.n_group_vals);
    b.EmitOp(OpCode::kGroupByAgg, out.agg_ht_slot, key, first,
             static_cast<int>(vals.size()), 0,
             cost_model_->RandomAccessClass(ht_bytes));
  };

  // Nested probe loops in ProbeOrder, innermost body = the aggregation
  // tail. Each probe reads the hash-table slot of its join id; a miss branches
  // to the loop's exit, and a further match of a key that is not unique
  // branches back into the body.
  const std::vector<int> order = ProbeOrder(*spec_, *catalog_, *cost_model_);
  std::function<void(size_t)> gen_join = [&](size_t depth) {
    if (depth == order.size()) {
      gen_tail();
      return;
    }
    const int j = order[depth];
    const auto& join = spec_->joins[j];
    const jit::JoinHashTable::Layout layout = JoinHtLayout(join, *catalog_);
    const int cls = cost_model_->RandomAccessClass(layout.Bytes());
    const int key = cols.ResolveColumn(join.probe_key, b);
    const int iter = b.AllocReg();
    const int exit = b.NewLabel();
    const int body = b.NewLabel();
    b.EmitOp(OpCode::kHtProbeInit, iter, key, j, exit,
             static_cast<int64_t>(layout.WidthCode()), cls);
    b.Bind(body);
    if (!join.payload.empty()) {
      const int first = b.AllocReg();
      for (size_t i = 1; i < join.payload.size(); ++i) b.AllocReg();
      b.EmitOp(OpCode::kHtLoadPayload, first, iter, j,
               static_cast<int>(join.payload.size()));
      for (size_t i = 0; i < join.payload.size(); ++i) {
        cols.BindPayload(join.payload[i], first + static_cast<int>(i));
      }
    }
    gen_join(depth + 1);
    if (!JoinKeyUnique(join, *catalog_)) {
      b.EmitOp(OpCode::kHtIterNext, iter, key, j, body, 0, cls);
    }
    b.Bind(exit);
  };
  gen_join(0);

  out.program = b.Finalize(spec_->name + ".probe");
  return out;
}

CompiledPipeline QueryCompiler::CompileBuildFilter(int join_id) const {
  const auto& join = spec_->joins.at(join_id);
  const storage::Table& table = catalog_->at(join.build_table);

  CompiledPipeline out;
  ProgramBuilder b;
  PipelineResolver cols(&table, &out.input_cols);

  GenFilter(join.build_filter, b, cols);

  // Surviving columns: the build key, then the payload columns it does not
  // repeat.
  std::vector<std::string> kept = {join.build_key};
  for (const auto& p : join.payload) {
    if (std::find(kept.begin(), kept.end(), p) == kept.end()) kept.push_back(p);
  }
  std::vector<int> regs;
  for (const auto& name : kept) {
    regs.push_back(cols.ResolveColumn(name, b));
    out.output_cols.push_back(TableSlot(table, name));
  }
  const int first = MakeContiguous(b, regs);
  b.EmitOp(OpCode::kEmit, first, static_cast<int>(regs.size()));

  out.program = b.Finalize(spec_->name + ".build-filter[" + join.build_table + "]");
  return out;
}

std::vector<ColSlot> QueryCompiler::PartialsSchema() const {
  std::vector<ColSlot> schema;
  if (!spec_->group_by.empty()) schema.push_back({"__group_key", 8});
  for (const auto& agg : spec_->aggs) schema.push_back({agg.name, 8});
  return schema;
}

CompiledPipeline QueryCompiler::CompileGather() const {
  CompiledPipeline out;
  ProgramBuilder b;
  const std::vector<ColSlot> schema = PartialsSchema();
  PipelineResolver cols(schema, &out.input_cols);

  if (spec_->group_by.empty()) {
    for (const auto& agg : spec_->aggs) {
      const int val = cols.ResolveColumn(agg.name, b);
      const jit::AggFunc merge = MergeFunc(agg.func);
      const int acc = b.AllocLocalAcc(merge);
      b.EmitOp(OpCode::kAggLocal, acc, val, static_cast<int>(merge));
    }
  } else {
    const int key = cols.ResolveColumn("__group_key", b);
    std::vector<int> vals;
    for (const auto& agg : spec_->aggs) {
      vals.push_back(cols.ResolveColumn(agg.name, b));
    }
    const int first = MakeContiguous(b, vals);
    out.agg_ht_slot = 0;
    out.n_group_vals = static_cast<int>(vals.size());
    out.groups_capacity = spec_->expected_groups;
    for (size_t i = 0; i < spec_->aggs.size(); ++i) {
      out.group_funcs[i] = MergeFunc(spec_->aggs[i].func);
    }
    const uint64_t ht_bytes =
        out.groups_capacity * 2 * (8 + 8ull * out.n_group_vals);
    b.EmitOp(OpCode::kGroupByAgg, 0, key, first, static_cast<int>(vals.size()), 0,
             cost_model_->RandomAccessClass(ht_bytes));
  }

  out.program = b.Finalize(spec_->name + ".gather");
  return out;
}

}  // namespace hetex::plan
