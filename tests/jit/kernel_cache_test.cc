#include "jit/kernel_cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "jit/codegen.h"
#include "jit/device_provider.h"
#include "jit/interpreter.h"
#include "jit/program.h"
#include "jit/vectorizer.h"
#include "memory/memory_manager.h"
#include "test_util.h"

namespace hetex::jit {
namespace {

namespace fs = std::filesystem;

/// A per-test, per-process kernel directory: tests exercise the disk cache
/// hermetically and parallel ctest invocations cannot share objects.
std::string FreshDir(const std::string& tag) {
  const fs::path d = fs::temp_directory_path() /
                     ("hetex-kc-test-" + tag + "-" +
                      std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(d);
  return d.string();
}

CodegenOptions SyncOptions(const std::string& tag) {
  CodegenOptions opts;
  opts.enabled = true;
  opts.async = false;  // GetOrBuild returns a settled kernel
  opts.kernel_dir = FreshDir(tag);
  return opts;
}

/// filter + arithmetic + hash + emit: enough shape to exercise constant
/// folding, the filter early-out and the emit hook in generated code.
PipelineProgram FilterMathProgram() {
  ProgramBuilder b;
  const int x = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, x, 0);
  const int y = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, y, 1);
  const int lim = b.AllocReg();
  b.EmitOp(OpCode::kConst, lim, 0, 0, 0, 50);
  const int keep = b.AllocReg();
  b.EmitOp(OpCode::kCmpLt, keep, x, lim);
  b.EmitOp(OpCode::kFilter, keep);
  const int sum = b.AllocReg();
  b.EmitOp(OpCode::kAdd, sum, x, y);
  const int h = b.AllocReg();
  b.EmitOp(OpCode::kHash, h, sum);
  const int mixed = b.AllocReg();
  b.EmitOp(OpCode::kAdd, mixed, sum, h);
  b.EmitOp(OpCode::kEmit, mixed, 1);
  PipelineProgram p = b.Finalize("kc-filter-math");
  p.n_input_cols = 2;
  p.input_widths = {8, 8};
  p.finalized = true;  // unit test drives the backends directly
  return p;
}

PipelineProgram DivProgram() {
  ProgramBuilder b;
  const int x = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, x, 0);
  const int y = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, y, 1);
  const int q = b.AllocReg();
  b.EmitOp(OpCode::kDiv, q, x, y);
  b.EmitOp(OpCode::kEmit, q, 1);
  PipelineProgram p = b.Finalize("kc-div");
  p.n_input_cols = 2;
  p.input_widths = {8, 8};
  p.finalized = true;
  return p;
}

/// Probes slot 0 with input column 0 and emits each match's payload; the
/// probe carries `layout`'s width code, as the query compiler stamps it.
PipelineProgram ProbeEmitProgram(const JoinHashTable::Layout& layout) {
  ProgramBuilder b;
  const int key = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, key, 0);
  const int iter = b.AllocReg();
  const int exit = b.NewLabel();
  const int body = b.NewLabel();
  b.EmitOp(OpCode::kHtProbeInit, iter, key, 0, exit,
           static_cast<int64_t>(layout.WidthCode()));
  b.Bind(body);
  const int payload = b.AllocReg();
  b.EmitOp(OpCode::kHtLoadPayload, payload, iter, 0, 1);
  b.EmitOp(OpCode::kEmit, payload, 1);
  b.EmitOp(OpCode::kHtIterNext, iter, key, 0, body);
  b.Bind(exit);
  PipelineProgram p = b.Finalize("kc-probe-emit");
  p.n_input_cols = 1;
  p.input_widths = {8};
  p.finalized = true;
  return p;
}

struct RunOutput {
  Status status;
  std::vector<int64_t> emitted;
  sim::CostStats stats;
};

/// Runs `program` over int64 columns through RunNative (tier 2, requires
/// program.native ready), RunRowsVectorized (tier 1, when the program carries
/// its vectorized lowering) or RunRows (tier 0), capturing emitted rows and
/// stats. `ht` (nullable) is bound to hash-table slot 0.
RunOutput Execute(const PipelineProgram& program,
                  const std::vector<std::vector<int64_t>>& cols, bool native,
                  JoinHashTable* ht = nullptr) {
  RunOutput out;
  std::vector<ColumnBinding> bindings;
  for (const auto& c : cols) {
    bindings.push_back({reinterpret_cast<const std::byte*>(c.data()), 8});
  }
  std::vector<int64_t> storage(1024, 0);
  EmitTarget emit;
  emit.cols.push_back({reinterpret_cast<std::byte*>(storage.data()), 8});
  emit.capacity = 1024;
  emit.ResetCursor();
  int64_t accs[kMaxLocalAccs] = {};
  void* slots[kMaxHtSlots] = {ht};

  ExecCtx ctx;
  ctx.cols = bindings.data();
  ctx.n_cols = static_cast<int>(bindings.size());
  ctx.emit = &emit;
  ctx.local_accs = accs;
  ctx.ht_slots = slots;
  ctx.stats = &out.stats;
  ctx.row_begin = 0;
  ctx.row_step = 1;
  const uint64_t rows = cols.empty() ? 0 : cols[0].size();
  out.status = native                   ? RunNative(program, ctx, rows)
               : program.vec != nullptr ? RunRowsVectorized(program, ctx, rows)
                                        : RunRows(program, ctx, rows);
  for (uint64_t i = 0; i < emit.rows(); ++i) out.emitted.push_back(storage[i]);
  return out;
}

void ExpectStatsEq(const sim::CostStats& a, const sim::CostStats& b) {
  EXPECT_EQ(a.tuples, b.tuples);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.atomics, b.atomics);
  EXPECT_EQ(a.near_accesses, b.near_accesses);
  EXPECT_EQ(a.mid_accesses, b.mid_accesses);
  EXPECT_EQ(a.far_accesses, b.far_accesses);
}

std::vector<std::vector<int64_t>> TestColumns(int rows) {
  std::vector<std::vector<int64_t>> cols(2);
  for (int i = 0; i < rows; ++i) {
    cols[0].push_back((i * 37) % 101 - 13);
    cols[1].push_back(i + 1);
  }
  return cols;
}

TEST(KernelCacheTest, NativeKernelMatchesInterpreterExactly) {
  const PipelineProgram program = FilterMathProgram();
  const GenerateResult gen = GenerateSource(program);
  ASSERT_FALSE(gen.source.empty()) << gen.reason;

  KernelCache cache(SyncOptions("parity"));
  PipelineProgram native_prog = program;
  native_prog.native = cache.GetOrBuild(gen, program.label);
  ASSERT_TRUE(native_prog.native->ready()) << native_prog.native->error;

  const auto cols = TestColumns(257);
  const RunOutput interp = Execute(program, cols, /*native=*/false);
  const RunOutput native = Execute(native_prog, cols, /*native=*/true);
  ASSERT_TRUE(interp.status.ok()) << interp.status.ToString();
  ASSERT_TRUE(native.status.ok()) << native.status.ToString();
  EXPECT_EQ(interp.emitted, native.emitted);
  ExpectStatsEq(interp.stats, native.stats);
}

// Every binary opcode in literal mode (Instr::lit): the right operand is the
// instruction's immediate in all three tiers, and no register backs it.
TEST(KernelCacheTest, LiteralOperandsMatchInEveryTier) {
  ProgramBuilder b;
  const int x = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, x, 0);
  int acc = x;
  for (const auto& [op, lit] :
       std::vector<std::pair<OpCode, int64_t>>{{OpCode::kAdd, 3},   {OpCode::kMul, -5},
                                               {OpCode::kSub, 11},  {OpCode::kDiv, 7},
                                               {OpCode::kCmpGt, 2}, {OpCode::kOr, 0},
                                               {OpCode::kAnd, 2}}) {
    const int r = b.AllocReg();
    b.EmitLit(op, r, acc, lit);
    if (op == OpCode::kDiv) {
      const int keep = b.AllocReg();
      b.EmitLit(OpCode::kCmpNe, keep, r, 4);  // drops the rows whose quotient is 4
      b.EmitOp(OpCode::kFilter, keep);
    }
    acc = r;
  }
  const int le = b.AllocReg();
  b.EmitLit(OpCode::kCmpLe, le, x, 9);
  const int out = b.AllocReg();
  b.EmitOp(OpCode::kAdd, out, acc, le);
  b.EmitOp(OpCode::kEmit, out, 1);
  PipelineProgram program = b.Finalize("kc-literals");
  program.n_input_cols = 1;
  program.input_widths = {8};
  program.finalized = true;
  ASSERT_TRUE(ValidateProgram(program).ok());

  PipelineProgram vec_prog = program;
  vec_prog.vec = TryVectorize(program).program;
  ASSERT_NE(vec_prog.vec, nullptr);
  const GenerateResult gen = GenerateSource(program);
  ASSERT_FALSE(gen.source.empty()) << gen.reason;
  KernelCache cache(SyncOptions("literals"));
  PipelineProgram native_prog = program;
  native_prog.native = cache.GetOrBuild(gen, program.label);
  ASSERT_TRUE(native_prog.native->ready()) << native_prog.native->error;

  std::vector<std::vector<int64_t>> cols(1);
  for (int64_t v = -40; v < 40; ++v) cols[0].push_back(v);
  const RunOutput interp = Execute(program, cols, /*native=*/false);
  const RunOutput vec = Execute(vec_prog, cols, /*native=*/false);
  const RunOutput native = Execute(native_prog, cols, /*native=*/true);
  ASSERT_TRUE(interp.status.ok()) << interp.status.ToString();
  EXPECT_EQ(interp.emitted, vec.emitted);
  EXPECT_EQ(interp.emitted, native.emitted);
  ExpectStatsEq(interp.stats, vec.stats);
  ExpectStatsEq(interp.stats, native.stats);
  // ((v + 3) * -5 - 11) / 7 is 4 for v = -12 and v = -11 only.
  EXPECT_EQ(interp.stats.tuples, 80u);
  EXPECT_EQ(interp.emitted.size(), 78u);
  EXPECT_EQ(interp.emitted.front(), 1 + 1);  // v = -40: quotient 26 > 2, v <= 9
}

TEST(KernelCacheTest, DivisionByZeroFaultsLikeTheInterpreter) {
  const PipelineProgram program = DivProgram();
  const GenerateResult gen = GenerateSource(program);
  ASSERT_FALSE(gen.source.empty()) << gen.reason;

  KernelCache cache(SyncOptions("divfault"));
  PipelineProgram native_prog = program;
  native_prog.native = cache.GetOrBuild(gen, program.label);
  ASSERT_TRUE(native_prog.native->ready()) << native_prog.native->error;

  // Row 2 divides by zero; rows 0-1 must already be emitted and counted.
  const std::vector<std::vector<int64_t>> cols = {{10, 20, 30, 40}, {2, 5, 0, 4}};
  const RunOutput interp = Execute(program, cols, /*native=*/false);
  const RunOutput native = Execute(native_prog, cols, /*native=*/true);
  ASSERT_FALSE(interp.status.ok());
  ASSERT_FALSE(native.status.ok());
  EXPECT_NE(native.status.ToString().find("division by zero"), std::string::npos)
      << native.status.ToString();
  EXPECT_EQ(interp.emitted, native.emitted);
  ExpectStatsEq(interp.stats, native.stats);
}

TEST(KernelCacheTest, WarmDirectoryLoadsWithZeroCompilerInvocations) {
  const PipelineProgram program = FilterMathProgram();
  const GenerateResult gen = GenerateSource(program);
  ASSERT_FALSE(gen.source.empty()) << gen.reason;
  const CodegenOptions opts = SyncOptions("warm");

  {
    KernelCache cold(opts);
    auto kernel = cold.GetOrBuild(gen, program.label);
    ASSERT_TRUE(kernel->ready()) << kernel->error;
    EXPECT_EQ(kernel->origin, NativeKernel::Origin::kCompiled);
    EXPECT_EQ(cold.counters().compiles, 1u);
    EXPECT_GE(cold.counters().compiler_invocations, 1u);
    EXPECT_EQ(cold.counters().disk_hits, 0u);
  }

  // Fresh cache (fresh process stand-in), same directory: the kernel loads
  // from disk after hash verification — the compiler never runs.
  KernelCache warm(opts);
  PipelineProgram native_prog = program;
  native_prog.native = warm.GetOrBuild(gen, program.label);
  ASSERT_TRUE(native_prog.native->ready()) << native_prog.native->error;
  EXPECT_EQ(native_prog.native->origin, NativeKernel::Origin::kDisk);
  EXPECT_EQ(warm.counters().disk_hits, 1u);
  EXPECT_EQ(warm.counters().compiles, 0u);
  EXPECT_EQ(warm.counters().compiler_invocations, 0u);

  // And the disk-loaded kernel computes the same answer.
  const auto cols = TestColumns(64);
  const RunOutput interp = Execute(program, cols, /*native=*/false);
  const RunOutput native = Execute(native_prog, cols, /*native=*/true);
  ASSERT_TRUE(native.status.ok()) << native.status.ToString();
  EXPECT_EQ(interp.emitted, native.emitted);
}

TEST(KernelCacheTest, CorruptedObjectIsRejectedAndRecompiled) {
  const PipelineProgram program = FilterMathProgram();
  const GenerateResult gen = GenerateSource(program);
  ASSERT_FALSE(gen.source.empty()) << gen.reason;
  const CodegenOptions opts = SyncOptions("corrupt");

  {
    KernelCache cold(opts);
    auto kernel = cold.GetOrBuild(gen, program.label);
    ASSERT_TRUE(kernel->ready()) << kernel->error;
  }

  fs::path so_path;
  for (const auto& entry : fs::directory_iterator(opts.kernel_dir)) {
    if (entry.path().extension() == ".so") so_path = entry.path();
  }
  ASSERT_FALSE(so_path.empty());

  // Corrupt the object in place (size unchanged): only the content hash in the
  // .meta sidecar can catch this.
  {
    std::fstream f(so_path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(so_path) / 2));
    const char garbage[] = "hetex-corruption-test";
    f.write(garbage, sizeof(garbage));
  }
  {
    KernelCache cache(opts);
    auto kernel = cache.GetOrBuild(gen, program.label);
    ASSERT_TRUE(kernel->ready()) << kernel->error;
    EXPECT_EQ(kernel->origin, NativeKernel::Origin::kCompiled);
    EXPECT_EQ(cache.counters().rejected_objects, 1u);
    EXPECT_EQ(cache.counters().disk_hits, 0u);
    EXPECT_EQ(cache.counters().compiles, 1u);

    PipelineProgram native_prog = program;
    native_prog.native = kernel;
    const auto cols = TestColumns(64);
    EXPECT_EQ(Execute(program, cols, false).emitted,
              Execute(native_prog, cols, true).emitted);
  }

  // Truncation (size mismatch) is caught the same way.
  fs::resize_file(so_path, fs::file_size(so_path) / 3);
  {
    KernelCache cache(opts);
    auto kernel = cache.GetOrBuild(gen, program.label);
    ASSERT_TRUE(kernel->ready()) << kernel->error;
    EXPECT_EQ(kernel->origin, NativeKernel::Origin::kCompiled);
    EXPECT_EQ(cache.counters().rejected_objects, 1u);
  }
}

// A kernel built against the previous ABI (v7: no column or hash-field
// bases) must never be loaded: its sidecar's ABI stamp rejects it, the
// rejection is counted and the kernel is recompiled.
TEST(KernelCacheTest, PreviousAbiObjectIsRejectedAndRecompiled) {
  const PipelineProgram program = FilterMathProgram();
  const GenerateResult gen = GenerateSource(program);
  ASSERT_FALSE(gen.source.empty()) << gen.reason;
  const CodegenOptions opts = SyncOptions("abi");
  {
    KernelCache cold(opts);
    ASSERT_TRUE(cold.GetOrBuild(gen, program.label)->ready());
  }
  fs::path meta_path;
  for (const auto& entry : fs::directory_iterator(opts.kernel_dir)) {
    if (entry.path().extension() == ".meta") meta_path = entry.path();
  }
  ASSERT_FALSE(meta_path.empty());
  std::string meta;
  {
    std::ifstream in(meta_path);
    meta.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::string current = "abi " + std::to_string(kCodegenAbiVersion) + "\n";
  const size_t at = meta.find(current);
  ASSERT_NE(at, std::string::npos) << meta;
  ASSERT_EQ(kCodegenAbiVersion, 8u);
  meta.replace(at, current.size(), "abi 7\n");
  std::ofstream(meta_path, std::ios::trunc) << meta;

  KernelCache cache(opts);
  auto kernel = cache.GetOrBuild(gen, program.label);
  ASSERT_TRUE(kernel->ready()) << kernel->error;
  EXPECT_EQ(kernel->origin, NativeKernel::Origin::kCompiled);
  EXPECT_EQ(cache.counters().rejected_objects, 1u);
  EXPECT_EQ(cache.counters().disk_hits, 0u);
  EXPECT_EQ(cache.counters().compiles, 1u);
}

// A kernel's chain walks and payload loads are generated for the entry
// layout its probe carries: it reads a table of that layout exactly like the
// interpreter, and refuses a table of another layout with a named Status.
TEST(KernelCacheTest, NativeProbeReadsItsStampedLayoutAndRefusesAnother) {
  memory::MemoryManager mm(0, 1ull << 24);
  const JoinHashTable::Layout layout(64, 8, {4});
  JoinHashTable ht(&mm, layout);
  std::vector<std::vector<int64_t>> cols(1);
  for (int64_t k = -20; k < 20; ++k) {
    const int64_t payload = -3 * k;
    ht.Insert(k * (int64_t{1} << 33), &payload);
    cols[0].push_back((k + 5) * (int64_t{1} << 33));  // 5 keys miss
  }
  const PipelineProgram program = ProbeEmitProgram(layout);
  const GenerateResult gen = GenerateSource(program);
  ASSERT_FALSE(gen.source.empty()) << gen.reason;
  KernelCache cache(SyncOptions("layout"));
  PipelineProgram native_prog = program;
  native_prog.native = cache.GetOrBuild(gen, program.label);
  ASSERT_TRUE(native_prog.native->ready()) << native_prog.native->error;

  const RunOutput interp = Execute(program, cols, /*native=*/false, &ht);
  const RunOutput native = Execute(native_prog, cols, /*native=*/true, &ht);
  ASSERT_TRUE(native.status.ok()) << native.status.ToString();
  EXPECT_EQ(interp.emitted.size(), 35u);
  EXPECT_EQ(interp.emitted, native.emitted);
  ExpectStatsEq(interp.stats, native.stats);

  JoinHashTable narrow_key(&mm, JoinHashTable::Layout(64, 4, {4}));
  const RunOutput refused = Execute(native_prog, cols, /*native=*/true, &narrow_key);
  EXPECT_EQ(refused.status.code(), StatusCode::kInternal);
  EXPECT_NE(refused.status.message().find("width code"), std::string::npos)
      << refused.status.ToString();
}

// Frame-of-reference codes decode identically in every tier: a 4-byte probe
// column with a base, a 2-byte key and a 1-byte payload with bases of their
// own, and a 2-byte emit column with another. A probe key a multiple of
// 65,536 away from a stored key, in the same bucket with the same tag, has
// the same 16-bit stored form, yet never matches: the stored key is decoded
// before the compare.
TEST(KernelCacheTest, CodedColumnsAndFieldsDecodeIdenticallyInEveryTier) {
  memory::MemoryManager mm(0, 1ull << 24);
  const IntCode key_code{2, -1'000'000}, payload_code{1, 7'000'000};
  const IntCode probe_code{4, 1'000'000'000}, emit_code{2, 6'999'000};
  const JoinHashTable::Layout layout(64, key_code, {payload_code});
  JoinHashTable ht(&mm, layout);
  // The nearest key above `key` with its 16 low bits, bucket and tag.
  const auto alias_of = [&](int64_t key) {
    const uint64_t hash = JoinHashTable::Hash(key);
    for (int64_t v = key + 65'536;; v += 65'536) {
      const uint64_t h = JoinHashTable::Hash(v);
      if (((h ^ hash) & ht.bucket_mask()) == 0 &&
          JoinHashTable::TagBit(h) == JoinHashTable::TagBit(hash)) {
        return v;
      }
    }
  };
  std::vector<int64_t> probes;
  for (int64_t i = 0; i < 50; ++i) {
    const int64_t key = -1'010'000 + 400 * i;
    const int64_t payload = 7'000'000 + 2 * i - 50;
    ht.Insert(key, &payload);
    probes.push_back(key);            // a hit
    probes.push_back(alias_of(key));  // the same stored key bits: a miss
    probes.push_back(key + 1);        // in range, absent: a miss
  }
  std::vector<std::byte> column(probes.size() * probe_code.width);
  for (size_t r = 0; r < probes.size(); ++r) {
    StoreInt(column.data() + r * probe_code.width, probe_code, probes[r]);
  }

  PipelineProgram program = ProbeEmitProgram(layout);
  program.input_widths = {probe_code.width};
  PipelineProgram vec_prog = program;
  vec_prog.vec = TryVectorize(program).program;
  ASSERT_NE(vec_prog.vec, nullptr);
  vec_prog.tier = ExecTier::kVectorized;
  const GenerateResult gen = GenerateSource(program);
  ASSERT_FALSE(gen.source.empty()) << gen.reason;
  KernelCache cache(SyncOptions("coded"));
  PipelineProgram native_prog = program;
  native_prog.native = cache.GetOrBuild(gen, program.label);
  ASSERT_TRUE(native_prog.native->ready()) << native_prog.native->error;

  const auto run = [&](const PipelineProgram& p, int tier) {
    RunOutput out;
    const ColumnBinding binding{column.data(), probe_code.width, probe_code.base};
    std::vector<std::byte> emitted(256 * emit_code.width);
    EmitTarget emit;
    emit.cols.push_back({emitted.data(), emit_code.width, emit_code.base});
    emit.capacity = 256;
    emit.ResetCursor();
    void* slots[kMaxHtSlots] = {&ht};
    ExecCtx ctx;
    ctx.cols = &binding;
    ctx.n_cols = 1;
    ctx.emit = &emit;
    ctx.ht_slots = slots;
    ctx.stats = &out.stats;
    out.status = tier == 2   ? RunNative(p, ctx, probes.size())
                 : tier == 1 ? RunRowsVectorized(p, ctx, probes.size())
                             : RunRows(p, ctx, probes.size());
    for (uint64_t i = 0; i < emit.rows(); ++i) {
      out.emitted.push_back(LoadInt(emitted.data() + i * emit_code.width, emit_code));
    }
    return out;
  };
  const RunOutput interp = run(program, 0);
  ASSERT_TRUE(interp.status.ok()) << interp.status.ToString();
  std::vector<int64_t> expected;
  for (int64_t i = 0; i < 50; ++i) expected.push_back(7'000'000 + 2 * i - 50);
  EXPECT_EQ(interp.emitted, expected);
  EXPECT_EQ(interp.stats.bytes_read, probes.size() * probe_code.width);
  for (const int tier : {1, 2}) {
    const RunOutput other = run(tier == 1 ? vec_prog : native_prog, tier);
    ASSERT_TRUE(other.status.ok()) << other.status.ToString();
    EXPECT_EQ(other.emitted, expected) << "tier " << tier;
    ExpectStatsEq(interp.stats, other.stats);
  }
}

// A bucket head carries a tag bit per key hash class. A probe whose key's
// bit is clear ends at the head: one counted access in every tier, where
// walking the bucket's chain cost 1 + its length. A key whose bit another key
// set walks the chain and still misses, and duplicate keys yield every match.
TEST(KernelCacheTest, TaggedHeadsChargeIdenticalAccessesInEveryTier) {
  memory::MemoryManager mm(0, 1ull << 24);
  const JoinHashTable::Layout layout(64, 8, {4});
  JoinHashTable ht(&mm, layout);
  for (int64_t k = 0; k < 40; ++k) ht.Insert(k, &k);
  for (const int64_t payload : {70, 700}) ht.Insert(7, &payload);
  // The length of the chain a bucket head points at (tag aside).
  const auto chain_of = [&](int64_t key) {
    const uint64_t hash = JoinHashTable::Hash(key);
    uint64_t n = 0;
    for (int64_t e = static_cast<int32_t>(
             ht.raw_heads()[hash & ht.bucket_mask()].load());
         e >= 0; e = ht.NextEntry(e)) {
      ++n;
    }
    return n;
  };
  int64_t clear = -1, collides = -1;
  for (int64_t k = 1000; clear < 0 || collides < 0; ++k) {
    if (chain_of(k) == 0) continue;
    const uint64_t hash = JoinHashTable::Hash(k);
    const uint64_t word = ht.raw_heads()[hash & ht.bucket_mask()].load();
    ((word & JoinHashTable::TagBit(hash)) != 0 ? collides : clear) = k;
  }

  const PipelineProgram program = ProbeEmitProgram(layout);
  PipelineProgram vec_prog = program;
  vec_prog.vec = TryVectorize(program).program;
  ASSERT_NE(vec_prog.vec, nullptr);
  vec_prog.tier = ExecTier::kVectorized;
  const GenerateResult gen = GenerateSource(program);
  ASSERT_FALSE(gen.source.empty()) << gen.reason;
  KernelCache cache(SyncOptions("tags"));
  PipelineProgram native_prog = program;
  native_prog.native = cache.GetOrBuild(gen, program.label);
  ASSERT_TRUE(native_prog.native->ready()) << native_prog.native->error;

  struct Case {
    int64_t key;
    std::vector<int64_t> matches;  // chain order: equal keys newest first
    uint64_t accesses;
  };
  const Case cases[] = {
      {clear, {}, 1},
      {collides, {}, 1 + chain_of(collides)},
      {7, {700, 70, 7}, 1 + chain_of(7)},
  };
  ASSERT_GE(chain_of(clear), 1u);  // untagged heads walked this chain
  for (const Case& c : cases) {
    const std::vector<std::vector<int64_t>> cols = {{c.key}};
    const RunOutput interp = Execute(program, cols, /*native=*/false, &ht);
    const RunOutput vec = Execute(vec_prog, cols, /*native=*/false, &ht);
    const RunOutput native = Execute(native_prog, cols, /*native=*/true, &ht);
    for (const RunOutput* out : {&interp, &vec, &native}) {
      ASSERT_TRUE(out->status.ok()) << out->status.ToString();
      EXPECT_EQ(out->emitted, c.matches) << "key " << c.key;
      ExpectStatsEq(interp.stats, out->stats);
    }
    // The head alone for a ruled-out key, else the head and every entry.
    EXPECT_EQ(interp.stats.near_accesses, c.accesses) << "key " << c.key;
  }
}

TEST(KernelCacheTest, ConcurrentRequestsCoalesceToOneCompile) {
  const PipelineProgram program = FilterMathProgram();
  const GenerateResult gen = GenerateSource(program);
  ASSERT_FALSE(gen.source.empty()) << gen.reason;

  CodegenOptions opts;
  opts.enabled = true;
  opts.async = true;
  opts.compile_threads = 2;
  opts.kernel_dir = FreshDir("concurrent");
  KernelCache cache(opts);

  constexpr int kThreads = 8;
  std::shared_ptr<NativeKernel> kernels[kThreads];
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&, i] { kernels[i] = cache.GetOrBuild(gen, program.label); });
  }
  for (auto& t : threads) t.join();
  cache.WaitIdle();

  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(kernels[i], kernels[0]);
  ASSERT_TRUE(kernels[0]->ready()) << kernels[0]->error;
  const KernelCache::Counters c = cache.counters();
  EXPECT_EQ(c.requests, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(c.compiles, 1u);
  EXPECT_EQ(c.in_process_hits, static_cast<uint64_t>(kThreads - 1));
}

TEST(KernelCacheTest, MissingCompilerFailsClosedWithNamedReason) {
  const PipelineProgram program = FilterMathProgram();
  const GenerateResult gen = GenerateSource(program);
  ASSERT_FALSE(gen.source.empty()) << gen.reason;

  CodegenOptions opts = SyncOptions("nocompiler");
  opts.compiler_cmd = "/nonexistent-hetex-compiler -shared";
  KernelCache cache(opts);
  auto kernel = cache.GetOrBuild(gen, program.label);
  EXPECT_TRUE(kernel->failed());
  EXPECT_FALSE(kernel->ready());
  EXPECT_FALSE(kernel->error.empty());
  EXPECT_EQ(cache.counters().compile_failures, 1u);
  // A broken object must never have been installed on disk.
  for (const auto& entry : fs::directory_iterator(opts.kernel_dir)) {
    EXPECT_NE(entry.path().extension(), ".so") << entry.path();
  }
}

/// A second, structurally different program (distinct source → distinct
/// signature → its own hx_* triple on disk) for eviction tests.
PipelineProgram SumProgram() {
  ProgramBuilder b;
  const int x = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, x, 0);
  const int y = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, y, 1);
  const int s = b.AllocReg();
  b.EmitOp(OpCode::kAdd, s, x, y);
  b.EmitOp(OpCode::kEmit, s, 1);
  PipelineProgram p = b.Finalize("kc-sum");
  p.n_input_cols = 2;
  p.input_widths = {8, 8};
  p.finalized = true;
  return p;
}

size_t CountSharedObjects(const std::string& dir) {
  size_t n = 0;
  if (!fs::exists(dir)) return 0;  // a faulted build never creates the dir
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".so") ++n;
  }
  return n;
}

TEST(KernelCacheTest, SizeCapEvictsOldestTripleAndKeepsLoadedKernelAlive) {
  const PipelineProgram prog_a = FilterMathProgram();
  const PipelineProgram prog_b = SumProgram();
  const GenerateResult gen_a = GenerateSource(prog_a);
  const GenerateResult gen_b = GenerateSource(prog_b);
  ASSERT_FALSE(gen_a.source.empty()) << gen_a.reason;
  ASSERT_FALSE(gen_b.source.empty()) << gen_b.reason;

  CodegenOptions opts = SyncOptions("evict");
  // A cap below any real object size: every compile that lands evicts every
  // other triple in the directory (the just-written stem is protected).
  opts.max_dir_bytes = 1;
  std::shared_ptr<NativeKernel> kernel_a;
  {
    KernelCache cache(opts);
    kernel_a = cache.GetOrBuild(gen_a, prog_a.label);
    ASSERT_TRUE(kernel_a->ready()) << kernel_a->error;
    EXPECT_EQ(cache.counters().evictions, 0u);  // nothing else to evict yet

    auto kernel_b = cache.GetOrBuild(gen_b, prog_b.label);
    ASSERT_TRUE(kernel_b->ready()) << kernel_b->error;
    // B's compile pushed the directory over the cap: A's whole triple went.
    EXPECT_EQ(cache.counters().evictions, 1u);
    EXPECT_EQ(CountSharedObjects(opts.kernel_dir), 1u);
  }

  // The evicted-but-loaded kernel keeps executing correctly: dlopen holds the
  // mapping, only the disk copy is gone.
  PipelineProgram native_a = prog_a;
  native_a.native = kernel_a;
  const auto cols = TestColumns(128);
  EXPECT_EQ(Execute(prog_a, cols, /*native=*/false).emitted,
            Execute(native_a, cols, /*native=*/true).emitted);

  // A fresh process stand-in asking for A again finds no disk copy and simply
  // recompiles — eviction degrades reuse, never correctness.
  KernelCache fresh(opts);
  auto kernel_a2 = fresh.GetOrBuild(gen_a, prog_a.label);
  ASSERT_TRUE(kernel_a2->ready()) << kernel_a2->error;
  EXPECT_EQ(kernel_a2->origin, NativeKernel::Origin::kCompiled);
  EXPECT_EQ(fresh.counters().disk_hits, 0u);
  EXPECT_EQ(fresh.counters().compiles, 1u);
  EXPECT_EQ(fresh.counters().evictions, 1u);  // B's triple went this time
  EXPECT_EQ(CountSharedObjects(opts.kernel_dir), 1u);
}

TEST(KernelCacheTest, UnlimitedDirectoryNeverEvicts) {
  CodegenOptions opts = SyncOptions("noevict");  // max_dir_bytes == 0
  KernelCache cache(opts);
  const PipelineProgram prog_a = FilterMathProgram();
  const PipelineProgram prog_b = SumProgram();
  ASSERT_TRUE(cache.GetOrBuild(GenerateSource(prog_a), prog_a.label)->ready());
  ASSERT_TRUE(cache.GetOrBuild(GenerateSource(prog_b), prog_b.label)->ready());
  EXPECT_EQ(cache.counters().evictions, 0u);
  EXPECT_EQ(CountSharedObjects(opts.kernel_dir), 2u);
}

TEST(KernelCacheTest, InjectedCompileFaultFailsClosedWithoutInstalling) {
  sim::FaultOptions fopts;
  fopts.enabled = true;
  fopts.compile_fault_rate = 1.0;
  sim::FaultInjector injector(fopts);

  const PipelineProgram program = FilterMathProgram();
  const GenerateResult gen = GenerateSource(program);
  ASSERT_FALSE(gen.source.empty()) << gen.reason;

  CodegenOptions opts = SyncOptions("compilefault");
  KernelCache cache(opts);
  cache.set_fault_injector(&injector);
  auto kernel = cache.GetOrBuild(gen, program.label);
  EXPECT_TRUE(kernel->failed());
  EXPECT_FALSE(kernel->ready());
  EXPECT_FALSE(kernel->error.empty());
  EXPECT_EQ(cache.counters().compile_failures, 1u);
  EXPECT_EQ(injector.counters().compile_faults, 1u);
  // The faulted build never reached the compiler or the disk.
  EXPECT_EQ(cache.counters().compiler_invocations, 0u);
  EXPECT_EQ(CountSharedObjects(opts.kernel_dir), 0u);

  // The program still answers through its fallback tier (the interpreter runs
  // it here exactly as the vectorized tier would in the engine).
  const auto cols = TestColumns(64);
  const RunOutput interp = Execute(program, cols, /*native=*/false);
  EXPECT_TRUE(interp.status.ok()) << interp.status.ToString();
}

/// End-to-end fail-closed discipline: a System configured for tier 2 whose
/// compiler does not exist still answers queries — served by the vectorizer,
/// with the failure counted, identical to a codegen-free System.
TEST(KernelCacheTest, NoCompilerSystemFallsBackToVectorizer) {
  auto make_system = [](bool codegen) {
    core::System::Options opts;
    opts.topology.num_sockets = 1;
    opts.topology.cores_per_socket = 2;
    opts.topology.num_gpus = 0;
    if (codegen) {
      opts.codegen.enabled = true;
      opts.codegen.async = false;
      opts.codegen.compiler_cmd = "/nonexistent-hetex-compiler -shared";
      opts.codegen.kernel_dir = FreshDir("e2e-nocompiler");
    }
    return std::make_unique<core::System>(opts);
  };
  auto run_query = [](core::System* system) {
    ssb::Ssb::Options ssb_opts;
    ssb_opts.lineorder_rows = 10'000;
    ssb_opts.scale = 0.002;
    ssb::Ssb ssb(ssb_opts, &system->catalog());
    for (const char* name : {"lineorder", "date", "customer", "supplier", "part"}) {
      HETEX_CHECK_OK(
          system->catalog().at(name).Place(system->HostNodes(), &system->memory()));
    }
    plan::ExecPolicy policy = plan::ExecPolicy::CpuOnly(1);
    policy.block_rows = 4096;
    core::QueryExecutor executor(system);
    return executor.Execute(ssb.Query(1, 1), policy);
  };

  const CodegenCounters before = GetCodegenCounters();
  auto broken = make_system(/*codegen=*/true);
  const auto broken_result = run_query(broken.get());
  ASSERT_TRUE(broken_result.status.ok()) << broken_result.status.ToString();
  const CodegenCounters after = GetCodegenCounters();
  EXPECT_GT(after.compile_failures, before.compile_failures);
  EXPECT_GT(after.fallbacks, before.fallbacks);
  EXPECT_EQ(after.native_invocations, before.native_invocations);

  auto plain = make_system(/*codegen=*/false);
  const auto plain_result = run_query(plain.get());
  ASSERT_TRUE(plain_result.status.ok());
  EXPECT_EQ(broken_result.rows, plain_result.rows);
  ExpectStatsEq(broken_result.stats, plain_result.stats);
}

}  // namespace
}  // namespace hetex::jit
