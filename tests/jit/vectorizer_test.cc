#include "jit/vectorizer.h"

#include <gtest/gtest.h>

#include <vector>

#include "jit/interpreter.h"
#include "jit/program.h"
#include "memory/memory_manager.h"

namespace hetex::jit {
namespace {

/// Differential harness: runs one program through both tiers over the same
/// input and state, returning per-tier emitted rows, accumulators and stats.
struct TierRun {
  std::vector<std::vector<int64_t>> emitted;  // per output column
  int64_t accs[kMaxLocalAccs] = {};
  sim::CostStats stats;
  Status status;
  uint64_t emit_rows = 0;
  int flushes = 0;
};

struct DiffHarness {
  int n_out_cols = 1;
  uint64_t emit_capacity = 1024;
  std::vector<std::vector<int64_t>> cols;   // int64 input columns
  void* ht_slots[kMaxHtSlots] = {};
  uint64_t row_begin = 0;
  uint64_t row_step = 1;

  TierRun Run(const PipelineProgram& base, ExecTier tier) {
    PipelineProgram p = base;
    p.finalized = true;
    if (tier == ExecTier::kVectorized) {
      VectorizeResult v = TryVectorize(p);
      EXPECT_NE(v.program, nullptr) << v.reason;
      if (v.program == nullptr) return {};
      p.vec = v.program;
      p.tier = ExecTier::kVectorized;
    }

    TierRun run;
    std::vector<ColumnBinding> bindings;
    for (const auto& c : cols) {
      bindings.push_back({reinterpret_cast<const std::byte*>(c.data()), 8});
    }

    std::vector<std::vector<int64_t>> store(
        n_out_cols, std::vector<int64_t>(emit_capacity, 0));
    EmitTarget target;
    for (auto& col : store) {
      target.cols.push_back({reinterpret_cast<std::byte*>(col.data()), 8});
    }
    target.capacity = emit_capacity;
    std::vector<std::vector<int64_t>> flushed;
    target.on_full = [&] {
      ++run.flushes;
      std::vector<int64_t> rows;
      for (uint64_t r = 0; r < target.rows(); ++r) {
        for (auto& col : store) rows.push_back(col[r]);
      }
      flushed.push_back(std::move(rows));
      target.ResetCursor();
    };

    ExecCtx ctx;
    ctx.cols = bindings.data();
    ctx.n_cols = static_cast<int>(bindings.size());
    ctx.emit = &target;
    ctx.local_accs = run.accs;
    ctx.ht_slots = ht_slots;
    ctx.stats = &run.stats;
    ctx.row_begin = row_begin;
    ctx.row_step = row_step;

    run.status = jit::Run(p, ctx, cols.empty() ? 0 : cols[0].size());

    // Collect emitted rows: flushed blocks first, then the open block (flush
    // order is part of the parity contract).
    run.emitted.assign(n_out_cols, {});
    for (const auto& block : flushed) {
      const uint64_t rows = block.size() / n_out_cols;
      for (uint64_t r = 0; r < rows; ++r) {
        for (int c = 0; c < n_out_cols; ++c) {
          run.emitted[c].push_back(block[r * n_out_cols + c]);
        }
      }
    }
    for (uint64_t r = 0; r < target.rows(); ++r) {
      for (int c = 0; c < n_out_cols; ++c) run.emitted[c].push_back(store[c][r]);
    }
    run.emit_rows = target.rows();
    return run;
  }

  /// Runs both tiers and asserts full parity (results + CostStats + status).
  void ExpectParity(const PipelineProgram& p) {
    TierRun interp = Run(p, ExecTier::kInterpreter);
    TierRun vec = Run(p, ExecTier::kVectorized);
    EXPECT_EQ(interp.status.ok(), vec.status.ok());
    EXPECT_EQ(interp.emitted, vec.emitted);
    for (int i = 0; i < kMaxLocalAccs; ++i) {
      EXPECT_EQ(interp.accs[i], vec.accs[i]) << "acc " << i;
    }
    EXPECT_EQ(interp.flushes, vec.flushes);
    ExpectStatsEq(interp.stats, vec.stats);
  }

  static void ExpectStatsEq(const sim::CostStats& a, const sim::CostStats& b) {
    EXPECT_EQ(a.tuples, b.tuples);
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.bytes_read, b.bytes_read);
    EXPECT_EQ(a.bytes_written, b.bytes_written);
    EXPECT_EQ(a.atomics, b.atomics);
    EXPECT_EQ(a.near_accesses, b.near_accesses);
    EXPECT_EQ(a.mid_accesses, b.mid_accesses);
    EXPECT_EQ(a.far_accesses, b.far_accesses);
  }
};

PipelineProgram FilterEmitProgram(int64_t threshold) {
  ProgramBuilder b;
  const int v = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, v, 0);
  const int t = b.AllocReg();
  b.EmitOp(OpCode::kConst, t, 0, 0, 0, threshold);
  const int pred = b.AllocReg();
  b.EmitOp(OpCode::kCmpLt, pred, v, t);
  b.EmitOp(OpCode::kFilter, pred);
  const int dbl = b.AllocReg();
  b.EmitOp(OpCode::kAdd, dbl, v, v);
  const int first = b.AllocReg();
  b.AllocReg();
  b.EmitOp(OpCode::kShl, first, v, 0, 0, 0);
  b.EmitOp(OpCode::kShl, first + 1, dbl, 0, 0, 0);
  b.EmitOp(OpCode::kEmit, first, 2);
  return b.Finalize("vt.filter-emit");
}

TEST(Vectorizer, LowersStraightLineFilterEmit) {
  PipelineProgram p = FilterEmitProgram(50);
  p.finalized = true;
  VectorizeResult v = TryVectorize(p);
  ASSERT_NE(v.program, nullptr) << v.reason;
  EXPECT_GE(v.program->top.size(), 6u);
  EXPECT_TRUE(v.program->loops.empty());
}

TEST(Vectorizer, FilterEmitParity) {
  DiffHarness h;
  h.n_out_cols = 2;
  h.cols.resize(1);
  for (int i = 0; i < 5000; ++i) h.cols[0].push_back((i * 37) % 100);
  h.ExpectParity(FilterEmitProgram(50));
}

TEST(Vectorizer, OnFullFlushBoundariesMatch) {
  DiffHarness h;
  h.n_out_cols = 2;
  h.emit_capacity = 7;  // odd capacity: many partial-block boundaries
  h.cols.resize(1);
  for (int i = 0; i < 257; ++i) h.cols[0].push_back(i % 90);
  h.ExpectParity(FilterEmitProgram(60));
}

TEST(Vectorizer, GridStrideParity) {
  DiffHarness h;
  h.n_out_cols = 2;
  h.cols.resize(1);
  for (int i = 0; i < 3001; ++i) h.cols[0].push_back((i * 13) % 100);
  h.row_begin = 1;
  h.row_step = 3;
  h.ExpectParity(FilterEmitProgram(70));
}

TEST(Vectorizer, AggLocalParity) {
  for (AggFunc f : {AggFunc::kSum, AggFunc::kCount, AggFunc::kMin, AggFunc::kMax}) {
    ProgramBuilder b;
    const int v = b.AllocReg();
    b.EmitOp(OpCode::kLoadCol, v, 0);
    const int acc = b.AllocLocalAcc(f);
    b.EmitOp(OpCode::kAggLocal, acc, v, static_cast<int>(f));
    PipelineProgram p = b.Finalize("vt.agg");

    DiffHarness h;
    h.cols.resize(1);
    for (int i = 0; i < 2500; ++i) h.cols[0].push_back((i * 31) % 1000 - 500);
    // Both tiers fold into a zero-initialized accumulator; equal is equal.
    TierRun interp = h.Run(p, ExecTier::kInterpreter);
    TierRun vec = h.Run(p, ExecTier::kVectorized);
    DiffHarness::ExpectStatsEq(interp.stats, vec.stats);
    EXPECT_EQ(interp.accs[0], vec.accs[0]) << static_cast<int>(f);
  }
}

/// Probe-loop parity over a chained hash table with duplicate keys: exercises
/// match-list expansion with 0, 1 and many matches per probe, and the
/// chain-walk access accounting.
TEST(Vectorizer, ProbeLoopMultiMatchParity) {
  memory::MemoryManager mm(0, 1ull << 24);
  // 4-byte keys, an 8-byte and a 4-byte payload: a packed mixed-width entry.
  JoinHashTable ht(&mm, JoinHashTable::Layout(300, 4, {8, 4}));
  for (int64_t k = 1; k <= 50; ++k) {
    // Key k inserted k%4+1 times with distinct payloads: multi-match chains.
    for (int64_t dup = 0; dup <= k % 4; ++dup) {
      const int64_t payload[2] = {k * 100 + dup, -k};
      ht.Insert(k, payload);
    }
  }

  ProgramBuilder b;
  const int key = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, key, 0);
  const int iter = b.AllocReg();
  const int exit = b.NewLabel();
  const int body = b.NewLabel();
  b.EmitOp(OpCode::kHtProbeInit, iter, key, 0, exit, 0, /*cls=*/1);
  b.Bind(body);
  const int pay = b.AllocReg();
  b.AllocReg();
  b.EmitOp(OpCode::kHtLoadPayload, pay, iter, 0, 2);
  const int out = b.AllocReg();
  b.EmitOp(OpCode::kAdd, out, pay, key);
  const int first = b.AllocReg();
  b.AllocReg();
  b.EmitOp(OpCode::kShl, first, out, 0, 0, 0);
  b.EmitOp(OpCode::kShl, first + 1, pay + 1, 0, 0, 0);
  b.EmitOp(OpCode::kEmit, first, 2);
  const int sum = b.AllocLocalAcc(AggFunc::kSum);
  b.EmitOp(OpCode::kAggLocal, sum, pay, static_cast<int>(AggFunc::kSum));
  b.EmitOp(OpCode::kHtIterNext, iter, key, 0, body, 0, /*cls=*/1);
  b.Bind(exit);
  PipelineProgram p = b.Finalize("vt.probe");
  {
    PipelineProgram check = p;
    check.finalized = true;
    VectorizeResult v = TryVectorize(check);
    ASSERT_NE(v.program, nullptr) << v.reason;
    ASSERT_EQ(v.program->loops.size(), 1u);
  }

  DiffHarness h;
  h.n_out_cols = 2;
  h.emit_capacity = 64;  // forces mid-loop flushes
  h.ht_slots[0] = &ht;
  h.cols.resize(1);
  for (int i = 0; i < 3000; ++i) {
    h.cols[0].push_back(i % 70);  // keys 51..69 and 0 miss entirely
  }
  h.ExpectParity(p);
}

/// Nested probe loops (two joins) with a group-by style tail.
TEST(Vectorizer, NestedProbeParity) {
  memory::MemoryManager mm(0, 1ull << 24);
  JoinHashTable ht0(&mm, JoinHashTable::Layout(64, 4, {4}));
  JoinHashTable ht1(&mm, JoinHashTable::Layout(64, 4, {4}));
  for (int64_t k = 1; k <= 40; ++k) {
    const int64_t p0 = k * 2;
    ht0.Insert(k, &p0);
    const int64_t p1 = k * 3;
    ht1.Insert(k % 16, &p1);  // duplicates: 2-3 matches per key
  }

  ProgramBuilder b;
  const int key = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, key, 0);
  const int it0 = b.AllocReg();
  const int x0 = b.NewLabel();
  const int l0 = b.NewLabel();
  b.EmitOp(OpCode::kHtProbeInit, it0, key, 0, x0);
  b.Bind(l0);
  const int pay0 = b.AllocReg();
  b.EmitOp(OpCode::kHtLoadPayload, pay0, it0, 0, 1);
  const int key1 = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, key1, 1);  // column load inside the loop body
  const int it1 = b.AllocReg();
  const int x1 = b.NewLabel();
  const int l1 = b.NewLabel();
  b.EmitOp(OpCode::kHtProbeInit, it1, key1, 1, x1);
  b.Bind(l1);
  const int pay1 = b.AllocReg();
  b.EmitOp(OpCode::kHtLoadPayload, pay1, it1, 1, 1);
  const int v = b.AllocReg();
  b.EmitOp(OpCode::kAdd, v, pay0, pay1);
  const int sum = b.AllocLocalAcc(AggFunc::kSum);
  b.EmitOp(OpCode::kAggLocal, sum, v, static_cast<int>(AggFunc::kSum));
  const int cnt = b.AllocLocalAcc(AggFunc::kCount);
  b.EmitOp(OpCode::kAggLocal, cnt, v, static_cast<int>(AggFunc::kCount));
  b.EmitOp(OpCode::kHtIterNext, it1, key1, 1, l1);
  b.Bind(x1);
  b.EmitOp(OpCode::kHtIterNext, it0, key, 0, l0);
  b.Bind(x0);
  PipelineProgram p = b.Finalize("vt.nested");
  {
    PipelineProgram check = p;
    check.finalized = true;
    VectorizeResult v2 = TryVectorize(check);
    ASSERT_NE(v2.program, nullptr) << v2.reason;
    ASSERT_EQ(v2.program->loops.size(), 2u);
    EXPECT_EQ(v2.program->max_loop_depth, 2);
  }

  DiffHarness h;
  h.ht_slots[0] = &ht0;
  h.ht_slots[1] = &ht1;
  h.cols.resize(2);
  for (int i = 0; i < 2000; ++i) {
    h.cols[0].push_back(i % 50);
    h.cols[1].push_back(i % 20);
  }
  h.ExpectParity(p);
}

TEST(Vectorizer, HtInsertParity) {
  auto make_program = [] {
    ProgramBuilder b;
    const int key = b.AllocReg();
    b.EmitOp(OpCode::kLoadCol, key, 0);
    const int pay = b.AllocReg();
    b.EmitOp(OpCode::kLoadCol, pay, 1);
    const int first = b.AllocReg();
    b.EmitOp(OpCode::kShl, first, pay, 0, 0, 0);
    b.EmitOp(OpCode::kHtInsert, 0, key, first, 1, 0, /*cls=*/2);
    return b.Finalize("vt.build");
  };

  memory::MemoryManager mm(0, 1ull << 24);
  std::vector<std::vector<int64_t>> cols(2);
  for (int i = 0; i < 500; ++i) {
    cols[0].push_back(i + 1);
    cols[1].push_back(i * 11);
  }

  auto run = [&](ExecTier tier, sim::CostStats* stats) {
    JoinHashTable ht(&mm, JoinHashTable::Layout(600, 8, {8}));
    DiffHarness h;
    h.cols = cols;
    h.ht_slots[0] = &ht;
    TierRun r = h.Run(make_program(), tier);
    *stats = r.stats;
    EXPECT_EQ(ht.size(), 500u);
    uint64_t hops = 0;
    const int64_t e = ht.FindKeyFrom(ht.ProbeHead(42), 42, &hops);
    EXPECT_GE(e, 0);
    return ht.PayloadAt(e, 0);
  };
  sim::CostStats si, sv;
  const int64_t pi = run(ExecTier::kInterpreter, &si);
  const int64_t pv = run(ExecTier::kVectorized, &sv);
  EXPECT_EQ(pi, pv);
  DiffHarness::ExpectStatsEq(si, sv);
  EXPECT_EQ(si.far_accesses, 500u);  // cls=2 stamped on the insert
}

TEST(Vectorizer, DivByZeroReturnsStatusInBothTiers) {
  ProgramBuilder b;
  const int num = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, num, 0);
  const int den = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, den, 1);
  const int q = b.AllocReg();
  b.EmitOp(OpCode::kDiv, q, num, den);
  const int acc = b.AllocLocalAcc(AggFunc::kSum);
  b.EmitOp(OpCode::kAggLocal, acc, q, static_cast<int>(AggFunc::kSum));
  PipelineProgram p = b.Finalize("vt.div");

  for (ExecTier tier : {ExecTier::kInterpreter, ExecTier::kVectorized}) {
    DiffHarness h;
    h.cols.resize(2);
    for (int i = 0; i < 100; ++i) {
      h.cols[0].push_back(i);
      h.cols[1].push_back(i == 57 ? 0 : 2);  // one zero divisor mid-stream
    }
    TierRun r = h.Run(p, tier);
    EXPECT_FALSE(r.status.ok()) << static_cast<int>(tier);
    EXPECT_NE(r.status.message().find("division by zero"), std::string::npos);
  }
}

// ---------------------------------------------------------------- fallbacks

TEST(VectorizerFallback, UnstructuredJump) {
  ProgramBuilder b;
  const int v = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, v, 0);
  const int done = b.NewLabel();
  b.EmitOp(OpCode::kJmpIfFalse, v, done);
  b.EmitOp(OpCode::kEmit, v, 1);
  b.Bind(done);
  PipelineProgram p = b.Finalize("vt.jump");
  p.finalized = true;
  VectorizeResult r = TryVectorize(p);
  EXPECT_EQ(r.program, nullptr);
  EXPECT_NE(r.reason.find("control flow"), std::string::npos);
}

TEST(VectorizerFallback, TopLevelReadBeforeWrite) {
  ProgramBuilder b;
  const int a = b.AllocReg();
  const int c = b.AllocReg();
  b.EmitOp(OpCode::kAdd, c, a, a);  // reads a before any write
  b.EmitOp(OpCode::kEmit, c, 1);
  PipelineProgram p = b.Finalize("vt.rbw");
  p.finalized = true;
  VectorizeResult r = TryVectorize(p);
  EXPECT_EQ(r.program, nullptr);
  EXPECT_NE(r.reason.find("read before written"), std::string::npos);
}

TEST(VectorizerFallback, LoopBodyRegisterReadAfterLoop) {
  ProgramBuilder b;
  const int key = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, key, 0);
  const int iter = b.AllocReg();
  const int exit = b.NewLabel();
  const int body = b.NewLabel();
  b.EmitOp(OpCode::kHtProbeInit, iter, key, 0, exit);
  b.Bind(body);
  const int pay = b.AllocReg();
  b.EmitOp(OpCode::kHtLoadPayload, pay, iter, 0, 1);
  b.EmitOp(OpCode::kHtIterNext, iter, key, 0, body);
  b.Bind(exit);
  b.EmitOp(OpCode::kEmit, pay, 1);  // reads the body-written payload after exit
  PipelineProgram p = b.Finalize("vt.stale");
  p.finalized = true;
  VectorizeResult r = TryVectorize(p);
  EXPECT_EQ(r.program, nullptr);
  EXPECT_NE(r.reason.find("read after it"), std::string::npos);
}

TEST(VectorizerFallback, MultipleEmitSites) {
  // Two emit sites would reorder per-target rows across tuples relative to the
  // interpreter's per-tuple interleaving — the vectorizer must fall back.
  ProgramBuilder b;
  const int v = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, v, 0);
  b.EmitOp(OpCode::kEmit, v, 1);
  b.EmitOp(OpCode::kEmit, v, 1);
  PipelineProgram p = b.Finalize("vt.two-emits");
  p.finalized = true;
  VectorizeResult r = TryVectorize(p);
  EXPECT_EQ(r.program, nullptr);
  EXPECT_NE(r.reason.find("multiple emit sites"), std::string::npos);
}

TEST(VectorizerFallback, CountersTrackAttempts) {
  ResetVectorizerCounters();
  PipelineProgram good = FilterEmitProgram(10);
  good.finalized = true;
  EXPECT_NE(TryVectorize(good).program, nullptr);

  ProgramBuilder b;
  const int v = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, v, 0);
  const int done = b.NewLabel();
  b.EmitOp(OpCode::kJmpIfFalse, v, done);
  b.Bind(done);
  PipelineProgram bad = b.Finalize("vt.bad");
  bad.finalized = true;
  EXPECT_EQ(TryVectorize(bad).program, nullptr);

  VectorizerCounters c = GetVectorizerCounters();
  EXPECT_EQ(c.attempts, 2u);
  EXPECT_EQ(c.vectorized, 1u);
  EXPECT_EQ(c.fallbacks, 1u);
}

}  // namespace
}  // namespace hetex::jit
