// JIT backend microbenchmark: rows/sec of the row interpreter (tier 0), the
// vectorized batch backend (tier 1) and the native codegen backend (tier 2,
// out-of-process compile + dlopen) on the two pipeline shapes that dominate
// SSB execution — filter→emit (a hybrid plan's build-side filter stage, over
// 4-byte columns and over the 1- and 2-byte columns Table::Place narrows
// small values to) and filter→probe→agg (the fused fact pipeline). Output is JSON so the
// speedups — and the kernel cache's cold-compile vs warm-load latencies — are
// recorded numbers, not claims.
//
// Usage:
//   bench_jit_backend_bench [--check] [--rows N]
//
// --check exits nonzero if (a) the vectorized tier is not faster than the
// interpreter on either filter→emit shape, or (b) the native tier is slower
// than the vectorized tier on any shape — unless codegen fell back for a
// named, counted reason (missing compiler, unprovable shape), which is
// reported and tolerated: fallback is a mode, not a failure.
//
// Honors HETEX_KERNEL_DIR / HETEX_COMPILER_CMD: pointing the bench at a warm
// kernel directory makes the first build a disk load (reported as such, with
// zero compiler invocations) — the CI restart-reuse smoke does exactly that.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "jit/codegen.h"
#include "jit/interpreter.h"
#include "jit/kernel_cache.h"
#include "jit/program.h"
#include "jit/vectorizer.h"
#include "memory/memory_manager.h"
#include "sim/topology.h"

namespace hetex {
namespace {

using jit::AggFunc;
using jit::OpCode;
using jit::PipelineProgram;
using jit::ProgramBuilder;

/// Finalizes a program for all tiers without a device provider: validation is
/// assumed (generated here), tier 1 comes straight from the vectorizer, and
/// the binding schema (the widths of the columns MakeData binds positionally)
/// is attached so the tier-2 codegen can specialize column loads.
PipelineProgram Lower(PipelineProgram p, std::vector<uint32_t> widths) {
  p.finalized = true;
  p.n_input_cols = static_cast<int>(widths.size());
  p.input_widths = std::move(widths);
  jit::VectorizeResult vec = jit::TryVectorize(p);
  HETEX_CHECK(vec.program != nullptr)
      << "bench pipeline failed to vectorize: " << vec.reason;
  p.vec = vec.program;
  p.tier = jit::ExecTier::kVectorized;
  return p;
}

/// filter→emit: load two columns, keep rows with a < threshold (~50%), emit
/// both survivors' columns from the registers they loaded into (they sit in
/// one register window, so the compiler copies nothing). The shape of a
/// hybrid plan's build-side filter stage; `widths` are the two columns'
/// widths, which the emit packs them at too.
PipelineProgram FilterEmitProgram(const char* label,
                                  const std::vector<uint32_t>& widths) {
  ProgramBuilder b;
  const int a = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, a, 0);
  const int k = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, k, 1);
  const int pred = b.AllocReg();
  b.EmitLit(OpCode::kCmpLt, pred, a, 25);  // ~50% pass
  b.EmitOp(OpCode::kFilter, pred);
  b.EmitOp(OpCode::kEmit, a, 2);
  return Lower(b.Finalize(label), widths);
}

/// filter→probe→agg, the fused fact pipeline in its SSB Q1 form: three
/// literal conjunct filters (quantity < 25, 1 <= discount <= 3, ~25%
/// combined) after the loads of both predicate columns, a probe of the date
/// dimension, and SUM(price * discount + payload) + COUNT. The probe is
/// stamped with the date table's layout, and its keys are unique (the
/// dimension's primary key), so it stops at the first match.
PipelineProgram FilterProbeAggProgram(const jit::JoinHashTable::Layout& date) {
  ProgramBuilder b;
  const int qty = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, qty, 0);
  const int disc = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, disc, 2);
  const int p0 = b.AllocReg();
  b.EmitLit(OpCode::kCmpLt, p0, qty, 25);
  b.EmitOp(OpCode::kFilter, p0);
  const int p1 = b.AllocReg();
  b.EmitLit(OpCode::kCmpGe, p1, disc, 1);
  b.EmitOp(OpCode::kFilter, p1);
  const int p2 = b.AllocReg();
  b.EmitLit(OpCode::kCmpLe, p2, disc, 3);
  b.EmitOp(OpCode::kFilter, p2);
  // Survivor columns resolve after the filter, as the query compiler emits them.
  const int k = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, k, 1);
  const int price = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, price, 3);
  const int revenue = b.AllocReg();
  b.EmitOp(OpCode::kMul, revenue, price, disc);

  const int iter = b.AllocReg();
  const int exit = b.NewLabel();
  b.EmitOp(OpCode::kHtProbeInit, iter, k, 0, exit,
           static_cast<int64_t>(date.WidthCode()));
  const int payload = b.AllocReg();
  b.EmitOp(OpCode::kHtLoadPayload, payload, iter, 0, 1);
  const int keyed = b.AllocReg();
  b.EmitOp(OpCode::kAdd, keyed, revenue, payload);
  const int sum = b.AllocLocalAcc(AggFunc::kSum);
  b.EmitOp(OpCode::kAggLocal, sum, keyed, static_cast<int>(AggFunc::kSum));
  const int cnt = b.AllocLocalAcc(AggFunc::kCount);
  b.EmitOp(OpCode::kAggLocal, cnt, payload, static_cast<int>(AggFunc::kCount));
  b.Bind(exit);
  return Lower(b.Finalize("bench.filter-probe-agg"), {4, 4, 4, 4});
}

struct BenchData {
  std::vector<int32_t> col_a;     // col 0: filter_emit value / Q1 quantity
  std::vector<int32_t> col_k;     // col 1: join key
  std::vector<int32_t> col_disc;  // col 2: Q1 discount (0..10)
  std::vector<int32_t> col_price; // col 3: Q1 price
  std::vector<int8_t> narrow_a;   // col_a at 1 byte
  std::vector<int16_t> narrow_k;  // col_k at 2 bytes
  std::vector<jit::ColumnBinding> bindings;         // the four int32 columns
  std::vector<jit::ColumnBinding> narrow_bindings;  // narrow_a, narrow_k
  uint64_t rows;
};

BenchData MakeData(uint64_t rows, uint64_t key_domain) {
  BenchData d;
  d.rows = rows;
  d.col_a.resize(rows);
  d.col_k.resize(rows);
  d.col_disc.resize(rows);
  d.col_price.resize(rows);
  Rng rng(42);
  for (uint64_t i = 0; i < rows; ++i) {
    d.col_a[i] = static_cast<int32_t>(i % 50);  // quantity-like
    d.col_k[i] = static_cast<int32_t>(rng.Uniform(key_domain) + 1);
    d.col_disc[i] = static_cast<int32_t>(rng.Uniform(11));
    d.col_price[i] = static_cast<int32_t>(rng.Uniform(100000));
  }
  d.bindings.push_back({reinterpret_cast<const std::byte*>(d.col_a.data()), 4});
  d.bindings.push_back({reinterpret_cast<const std::byte*>(d.col_k.data()), 4});
  d.bindings.push_back({reinterpret_cast<const std::byte*>(d.col_disc.data()), 4});
  d.bindings.push_back({reinterpret_cast<const std::byte*>(d.col_price.data()), 4});
  d.narrow_a.assign(d.col_a.begin(), d.col_a.end());
  d.narrow_k.assign(d.col_k.begin(), d.col_k.end());
  d.narrow_bindings.push_back({reinterpret_cast<const std::byte*>(d.narrow_a.data()), 1});
  d.narrow_bindings.push_back({reinterpret_cast<const std::byte*>(d.narrow_k.data()), 2});
  return d;
}

/// Tier-2 build telemetry for one shape: cold build latency (a compiler run or
/// a verified disk load) and warm reload latency (a second cache instance on
/// the same directory — the restart path, always compile-free).
struct NativeBuild {
  std::shared_ptr<jit::NativeKernel> kernel;  // null on codegen fallback
  std::string fallback_reason;                // named, when kernel is null/failed
  const char* origin = "none";                // "compiled" | "disk"
  double first_build_seconds = 0;
  double warm_load_seconds = 0;
};

struct Shape {
  std::string name;
  PipelineProgram program;
  const std::vector<jit::ColumnBinding>* cols = nullptr;  // bound positionally
  jit::JoinHashTable* ht = nullptr;  // probe shapes only
  std::vector<uint32_t> emit_widths;  // emit shapes only: the packed widths
  NativeBuild native;
};

double Seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Generates, builds and warm-reloads the tier-2 kernel for a shape.
NativeBuild BuildNative(const PipelineProgram& program,
                        const jit::CodegenOptions& opts) {
  NativeBuild b;
  const jit::GenerateResult gen = jit::GenerateSource(program);
  if (gen.source.empty()) {
    b.fallback_reason = gen.reason;
    return b;
  }
  {
    jit::KernelCache cold(opts);
    const auto t0 = std::chrono::steady_clock::now();
    b.kernel = cold.GetOrBuild(gen, program.label);
    b.first_build_seconds = Seconds(t0, std::chrono::steady_clock::now());
  }
  if (b.kernel->failed()) {
    b.fallback_reason = b.kernel->error;
    b.kernel.reset();
    return b;
  }
  b.origin =
      b.kernel->origin == jit::NativeKernel::Origin::kDisk ? "disk" : "compiled";
  {
    jit::KernelCache warm(opts);
    const auto t0 = std::chrono::steady_clock::now();
    auto reloaded = warm.GetOrBuild(gen, program.label);
    b.warm_load_seconds = Seconds(t0, std::chrono::steady_clock::now());
    HETEX_CHECK(reloaded->ready() && warm.counters().compiler_invocations == 0)
        << "warm reload of '" << program.label << "' was not compile-free";
  }
  return b;
}

enum class Tier { kInterpreter, kVectorized, kNative };

/// Runs one shape through one tier `iters` times; returns rows/sec and fills
/// `stats_out` with one iteration's CostStats (for the parity cross-check).
double Throughput(const Shape& shape, const BenchData& data, Tier tier,
                  int iters, sim::CostStats* stats_out) {
  PipelineProgram p = shape.program;
  p.tier = tier == Tier::kVectorized ? jit::ExecTier::kVectorized
                                     : jit::ExecTier::kInterpreter;
  p.native = tier == Tier::kNative ? shape.native.kernel : nullptr;

  // Reusable emit sink: capacity-bounded, recycled by on_full like a real
  // pack, each column packed at its width.
  constexpr uint64_t kSinkRows = 1 << 16;
  std::vector<std::vector<std::byte>> sink;
  jit::EmitTarget emit;
  for (const uint32_t w : shape.emit_widths) {
    sink.emplace_back(kSinkRows * w);
    emit.cols.push_back({sink.back().data(), w});
  }
  emit.capacity = kSinkRows;
  emit.on_full = [&emit] { emit.ResetCursor(); };

  void* ht_slots[1] = {shape.ht};
  double best = 0;
  for (int it = 0; it < iters; ++it) {
    sim::CostStats stats;
    int64_t accs[jit::kMaxLocalAccs] = {};
    jit::ExecCtx ctx;
    ctx.cols = shape.cols->data();
    ctx.n_cols = static_cast<int>(shape.cols->size());
    ctx.emit = &emit;
    ctx.local_accs = accs;
    ctx.ht_slots = ht_slots;
    ctx.stats = &stats;
    emit.ResetCursor();

    const auto t0 = std::chrono::steady_clock::now();
    const Status st = jit::Run(p, ctx, data.rows);
    const auto t1 = std::chrono::steady_clock::now();
    HETEX_CHECK(st.ok()) << st.ToString();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    const double rate = static_cast<double>(data.rows) / secs;
    if (rate > best) best = rate;
    *stats_out = stats;
  }
  return best;
}

void CheckStatsEqual(const sim::CostStats& a, const sim::CostStats& b,
                     const std::string& name, const char* tier) {
  HETEX_CHECK(a.tuples == b.tuples && a.ops == b.ops &&
              a.bytes_read == b.bytes_read && a.bytes_written == b.bytes_written &&
              a.near_accesses == b.near_accesses &&
              a.mid_accesses == b.mid_accesses &&
              a.far_accesses == b.far_accesses && a.atomics == b.atomics)
      << "tier CostStats diverge on " << name << " (" << tier << ")";
}

}  // namespace
}  // namespace hetex

int main(int argc, char** argv) {
  using namespace hetex;  // NOLINT — bench brevity

  bool check = false;
  uint64_t rows = 1 << 21;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
    if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      rows = std::strtoull(argv[++i], nullptr, 10);
    }
  }

  constexpr uint64_t kBuildRows = 2556;  // the SSB date dimension (7 years)
  const BenchData data = MakeData(rows, kBuildRows);

  memory::MemoryManager mm(/*node=*/0, /*capacity=*/1ull << 30);
  jit::JoinHashTable ht(&mm, jit::JoinHashTable::Layout(kBuildRows, 8, {8}));
  for (uint64_t i = 0; i < kBuildRows; ++i) {
    const int64_t key = static_cast<int64_t>(i + 1);
    const int64_t payload = static_cast<int64_t>(i & 0xFF);
    ht.Insert(key, &payload);
  }

  // Tier-2 build: HETEX_KERNEL_DIR / HETEX_COMPILER_CMD are honored, so a warm
  // directory turns the cold build into a verified disk load (zero compiles).
  jit::CodegenOptions copts = jit::CodegenOptions::FromEnv();
  copts.enabled = true;
  copts.async = false;  // the bench times the build, it doesn't hide it

  std::vector<Shape> shapes;
  shapes.push_back({"filter_emit", FilterEmitProgram("bench.filter-emit", {4, 4}),
                    &data.bindings, nullptr, {4, 4}, {}});
  shapes.push_back({"filter_emit_narrow",
                    FilterEmitProgram("bench.filter-emit-narrow", {1, 2}),
                    &data.narrow_bindings, nullptr, {1, 2}, {}});
  shapes.push_back({"filter_probe_agg", FilterProbeAggProgram(ht.layout()),
                    &data.bindings, &ht, {}, {}});
  for (Shape& shape : shapes) shape.native = BuildNative(shape.program, copts);

  constexpr int kIters = 5;
  bool check_failed = false;
  std::printf("{\n  \"rows\": %" PRIu64 ",\n", rows);
  const jit::CodegenCounters cc = jit::GetCodegenCounters();
  std::printf("  \"kernel_cache\": {\"compiler_invocations\": %" PRIu64
              ", \"disk_hits\": %" PRIu64 ", \"fallbacks\": %" PRIu64 "},\n",
              cc.compiler_invocations, cc.disk_hits, cc.fallbacks);
  std::printf("  \"benchmarks\": [\n");
  for (size_t i = 0; i < shapes.size(); ++i) {
    const Shape& shape = shapes[i];
    sim::CostStats interp_stats, vec_stats, native_stats;
    const double interp =
        Throughput(shape, data, Tier::kInterpreter, kIters, &interp_stats);
    const double vec =
        Throughput(shape, data, Tier::kVectorized, kIters, &vec_stats);
    const double speedup = vec / interp;

    // Tier parity is part of the contract: same results, same CostStats.
    CheckStatsEqual(interp_stats, vec_stats, shape.name, "vectorized");

    std::printf("    {\"name\": \"%s\",\n"
                "     \"interpreter_rows_per_sec\": %.3e,\n"
                "     \"vectorized_rows_per_sec\": %.3e,\n"
                "     \"speedup\": %.2f,\n",
                shape.name.c_str(), interp, vec, speedup);
    if (shape.native.kernel != nullptr) {
      const double native =
          Throughput(shape, data, Tier::kNative, kIters, &native_stats);
      CheckStatsEqual(interp_stats, native_stats, shape.name, "native");
      const double native_speedup = native / vec;
      std::printf("     \"native_rows_per_sec\": %.3e,\n"
                  "     \"native_speedup_vs_vectorized\": %.2f,\n"
                  "     \"native_origin\": \"%s\",\n"
                  "     \"native_first_build_seconds\": %.4f,\n"
                  "     \"native_warm_load_seconds\": %.6f}%s\n",
                  native, native_speedup, shape.native.origin,
                  shape.native.first_build_seconds,
                  shape.native.warm_load_seconds,
                  i + 1 < shapes.size() ? "," : "");
      // Gates: the fused probe/agg shape, where per-tuple control flow is
      // where specialized native code must beat batch primitives — and both
      // filter→emit shapes, where tier 2 batches survivors through
      // AppendBatch in 512-row chunks (same path tier 1 rides), so native
      // must at least match the vectorizer there too.
      if (check && native_speedup < 1.0) check_failed = true;
    } else {
      std::printf("     \"native_fallback\": \"%s\"}%s\n",
                  shape.native.fallback_reason.c_str(),
                  i + 1 < shapes.size() ? "," : "");
      std::fprintf(stderr, "note: tier-2 fallback on %s: %s (counted, gate waived)\n",
                   shape.name.c_str(), shape.native.fallback_reason.c_str());
    }
    if (check && !shape.emit_widths.empty() && speedup <= 1.0) {
      check_failed = true;
    }
  }
  std::printf("  ]\n}\n");

  if (check_failed) {
    std::fprintf(stderr,
                 "FAIL: a faster tier lost to its fallback tier on the "
                 "microbench it must win\n");
    return 1;
  }
  return 0;
}
