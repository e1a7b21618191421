#include "jit/codegen.h"

#include <dlfcn.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "common/int_width.h"
#include "common/logging.h"
#include "jit/hash_table.h"

namespace hetex::jit {

namespace {

// ---------------------------------------------------------------------------
// Process-wide telemetry
// ---------------------------------------------------------------------------

std::atomic<uint64_t> g_attempts{0};
std::atomic<uint64_t> g_generated{0};
std::atomic<uint64_t> g_fallbacks{0};
std::atomic<uint64_t> g_compiler_invocations{0};
std::atomic<uint64_t> g_compile_failures{0};
std::atomic<uint64_t> g_disk_hits{0};
std::atomic<uint64_t> g_rejected_objects{0};
std::atomic<uint64_t> g_native_invocations{0};

// ---------------------------------------------------------------------------
// Hooks: engine-state operations a generated kernel cannot inline (emit into
// the block machinery, hash-table mutation). The kernel receives these as a C
// function-pointer table; everything else is inlined into the generated TU.
// ---------------------------------------------------------------------------

void HxHookEmit(void* target, const int64_t* vals, int n,
                uint64_t* bytes_written) {
  sim::CostStats tmp;
  static_cast<EmitTarget*>(target)->Append(vals, n, &tmp);
  *bytes_written += tmp.bytes_written;
}

int HxHookHtInsert(void* ht, int64_t key, const int64_t* payload,
                   uint64_t* bytes_written) {
  auto* table = static_cast<JoinHashTable*>(ht);
  if (!table->Insert(key, payload)) return 1;
  *bytes_written += table->layout().stride();
  return 0;
}

int HxHookGroupBy(void* ht, int64_t key, const int64_t* vals, int atomic,
                  uint64_t* probes) {
  return static_cast<AggHashTable*>(ht)->Update(key, vals, atomic != 0, probes)
             ? 0
             : 1;
}

// Batched emit: column-major lane buffers, identity selection. AppendBatch is
// byte- and CostStats-identical to n per-row Appends in lane order, so a
// kernel batching through this hook stays a drop-in for the per-row one.
void HxHookEmitBatch(void* target, const int64_t* const* vals, int n_vals,
                     uint64_t n, uint64_t* bytes_written) {
  sim::CostStats tmp;
  static_cast<EmitTarget*>(target)->AppendBatch(vals, n_vals, /*sel=*/nullptr,
                                                n, &tmp);
  *bytes_written += tmp.bytes_written;
}

const void* const kHookTable[kHookCount] = {
    reinterpret_cast<const void*>(&HxHookEmit),
    reinterpret_cast<const void*>(&HxHookHtInsert),
    reinterpret_cast<const void*>(&HxHookGroupBy),
    reinterpret_cast<const void*>(&HxHookEmitBatch),
};

// ---------------------------------------------------------------------------
// Source emission helpers
// ---------------------------------------------------------------------------

std::string S(int64_t v) { return std::to_string(v); }

std::string RegName(int r) { return "r" + std::to_string(r); }

/// Renders an int64 literal; INT64_MIN has no direct decimal spelling.
std::string ImmStr(int64_t v) {
  if (v == INT64_MIN) return "(-9223372036854775807LL - 1)";
  return std::to_string(v) + "LL";
}

/// A Layout::WidthCode in hex: one digit per field width, the key's last.
std::string WidthCodeHex(uint64_t code) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(code));
  return buf;
}

/// Sign-extending load of `field` from the entry at `entry` (a C++ byte
/// pointer expression), without its base.
std::string LoadField(const std::string& entry, JoinHashTable::Layout::Field field) {
  return "hx_ld" + std::to_string(field.width) + "(" + entry + " + " +
         std::to_string(field.offset) + ")";
}

/// The value `field` of the entry at `entry` holds: its stored integer plus
/// the base the kernel hoisted into `base`.
std::string DecodeField(const std::string& entry, JoinHashTable::Layout::Field field,
                        const std::string& base) {
  return "hx_dec(" + LoadField(entry, field) + ", " + base + ")";
}

/// The hoisted base of slot `s`'s key, and of its payload value `i`.
std::string KeyBase(int s) { return "hx_kb" + std::to_string(s); }
std::string PayloadBase(int s, int i) {
  return "hx_pb" + std::to_string(s) + "_" + std::to_string(i);
}

/// Address of entry `index` of slot `s`, laid out as `layout`.
std::string EntryAddr(int s, const std::string& index,
                      const JoinHashTable::Layout& layout) {
  return "hx_e" + std::to_string(s) + " + (uint64_t)" + index + " * " +
         std::to_string(layout.stride()) + "u";
}

/// Walks slot `s`'s chain from entry `hx_e` to the first entry whose decoded
/// key is `hx_k`, counting every entry visited in `hx_hops`
/// (JoinHashTable::FindKeyFrom).
std::string ChainWalk(int s, const JoinHashTable::Layout& layout) {
  return "      while (hx_e >= 0) {\n"
         "        const unsigned char* hx_p = " + EntryAddr(s, "hx_e", layout) + ";\n"
         "        hx_hops += 1;\n"
         "        if (" + DecodeField("hx_p", layout.key(), KeyBase(s)) +
         " == hx_k) break;\n"
         "        hx_e = " + LoadField("hx_p", layout.next()) + ";\n"
         "      }\n";
}

const char* ClsCounter(uint8_t cls) {
  switch (cls) {
    case 0: return "s_near";
    case 1: return "s_mid";
    default: return "s_far";
  }
}

/// Per-register constant tracking within a basic block. Assignments are always
/// emitted (dead-store elimination is the C++ compiler's job); folding only
/// substitutes literal operands, elides division-by-zero guards against known
/// nonzero divisors, and resolves constant filters/branches at generation time.
/// State is discarded at every jump-target label, where paths join.
struct Fold {
  uint64_t known = 0;  // bitmask over the 64 VM registers
  int64_t val[kMaxRegs] = {};

  bool Known(int r) const { return (known >> r) & 1u; }
  void Set(int r, int64_t v) {
    known |= 1ull << r;
    val[r] = v;
  }
  void Kill(int r) { known &= ~(1ull << r); }
  void Clear() { known = 0; }

  std::string Use(int r) const { return Known(r) ? ImmStr(val[r]) : RegName(r); }

  /// The right operand of binary ALU instruction `in`: known when it is a
  /// literal or a register holding a constant.
  bool RhsKnown(const Instr& in) const { return in.lit || Known(in.c); }
  int64_t RhsVal(const Instr& in) const { return in.lit ? in.imm : val[in.c]; }
  std::string RhsUse(const Instr& in) const {
    return RhsKnown(in) ? ImmStr(RhsVal(in)) : RegName(in.c);
  }
};

// Two's-complement wraparound arithmetic for generation-time folding: identical
// bit results to what the emitted expressions produce on the target.
int64_t WrapAdd(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) + static_cast<uint64_t>(y));
}
int64_t WrapSub(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) - static_cast<uint64_t>(y));
}
int64_t WrapMul(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) * static_cast<uint64_t>(y));
}
int64_t WrapShl(int64_t x, int64_t sh) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) << sh);
}

uint64_t HashBytes(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

NativeKernel::~NativeKernel() {
  if (dl_handle != nullptr) dlclose(dl_handle);
}

CodegenCounters GetCodegenCounters() {
  CodegenCounters c;
  c.attempts = g_attempts.load(std::memory_order_relaxed);
  c.generated = g_generated.load(std::memory_order_relaxed);
  c.fallbacks = g_fallbacks.load(std::memory_order_relaxed);
  c.compiler_invocations = g_compiler_invocations.load(std::memory_order_relaxed);
  c.compile_failures = g_compile_failures.load(std::memory_order_relaxed);
  c.disk_hits = g_disk_hits.load(std::memory_order_relaxed);
  c.rejected_objects = g_rejected_objects.load(std::memory_order_relaxed);
  c.native_invocations = g_native_invocations.load(std::memory_order_relaxed);
  return c;
}

namespace internal {
void CountCompilerInvocation() { g_compiler_invocations.fetch_add(1); }
void CountCompileFailure() { g_compile_failures.fetch_add(1); }
void CountDiskHit() { g_disk_hits.fetch_add(1); }
void CountRejectedObject() { g_rejected_objects.fetch_add(1); }
void CountCodegenFallback() { g_fallbacks.fetch_add(1); }
}  // namespace internal

CodegenOptions CodegenOptions::FromEnv() {
  CodegenOptions o;
  const char* dir = std::getenv("HETEX_KERNEL_DIR");
  const char* cmd = std::getenv("HETEX_COMPILER_CMD");
  const char* tier2 = std::getenv("HETEX_TIER2");
  if (dir != nullptr) o.kernel_dir = dir;
  if (cmd != nullptr) o.compiler_cmd = cmd;
  // Tier 2 is opt-in: setting a kernel directory enables it, HETEX_TIER2
  // overrides in either direction (so CI can pin it off for pure-tier-1 jobs).
  if (tier2 != nullptr) {
    o.enabled = std::string(tier2) != "0";
  } else {
    o.enabled = dir != nullptr;
  }
  if (const char* cap = std::getenv("HETEX_KERNEL_DIR_MAX_MB")) {
    const long long mb = std::atoll(cap);
    o.max_dir_bytes = mb > 0 ? static_cast<uint64_t>(mb) << 20 : 0;
  }
  return o;
}

// ---------------------------------------------------------------------------
// Source generation
// ---------------------------------------------------------------------------

GenerateResult GenerateSource(const PipelineProgram& program) {
  g_attempts.fetch_add(1, std::memory_order_relaxed);
  GenerateResult res;
  const auto fallback = [&](std::string reason) {
    g_fallbacks.fetch_add(1, std::memory_order_relaxed);
    HETEX_LOG(Warning) << "codegen fallback for pipeline '" << program.label
                       << "': " << reason;
    res.reason = std::move(reason);
    return res;
  };

  const std::vector<Instr>& code = program.code;
  const int n = static_cast<int>(code.size());
  if (n == 0 || n > 4096) return fallback("program too large");
  if (program.n_input_cols > 64) return fallback("too many input columns");
  if (static_cast<int>(program.input_widths.size()) < program.n_input_cols) {
    return fallback("binding schema unavailable (no input widths)");
  }
  for (int i = 0; i < program.n_input_cols; ++i) {
    if (!IsIntWidth(program.input_widths[i])) {
      return fallback("unsupported column width " + S(program.input_widths[i]));
    }
  }

  // Scan: columns loaded, HT slots probed inline, hooks reached, jump targets.
  std::vector<char> is_target(n + 1, 0);
  uint64_t cols_used = 0;
  uint32_t probe_slots = 0;
  int payload_loads[kMaxHtSlots] = {};     // payload values loaded, per slot
  uint64_t width_codes[kMaxHtSlots] = {};  // stamped by each slot's probe init
  bool uses_emit = false, uses_insert = false, uses_groupby = false;
  int emit_sites = 0, emit_width = 0;
  for (const Instr& in : code) {
    if (const int16_t* target = BranchTarget(in); target != nullptr) {
      if (*target < 0 || *target >= n) return fallback("jump target out of range");
      is_target[*target] = 1;
    }
    switch (in.op) {
      case OpCode::kLoadCol:
        if (in.b < 0 || in.b >= program.n_input_cols) {
          return fallback("load of column outside binding schema");
        }
        cols_used |= 1ull << in.b;
        break;
      case OpCode::kHtProbeInit:
        width_codes[in.c] = static_cast<uint64_t>(in.imm);
        probe_slots |= 1u << in.c;
        break;
      case OpCode::kHtLoadPayload:
        payload_loads[in.c] = std::max<int>(payload_loads[in.c], in.d);
        [[fallthrough]];
      case OpCode::kHtIterNext:
        probe_slots |= 1u << in.c;
        break;
      case OpCode::kEmit:
        uses_emit = true;
        ++emit_sites;
        emit_width = in.b;
        break;
      case OpCode::kHtInsert: uses_insert = true; break;
      case OpCode::kGroupByAgg: uses_groupby = true; break;
      default: break;
    }
  }

  // Every probed slot's entry layout, from the width code its probe init
  // carries: the chain walks and payload loads are generated for it.
  std::map<int, JoinHashTable::Layout> layouts;
  for (int s = 0; s < kMaxHtSlots; ++s) {
    if (((probe_slots >> s) & 1u) == 0) continue;
    const auto layout = JoinHashTable::Layout::FromWidthCode(width_codes[s]);
    if (!layout.Check().ok() || layout.payload_count() < payload_loads[s]) {
      return fallback("hash-table slot " + S(s) + " probed without its entry layout");
    }
    layouts.emplace(s, layout);
  }

  // Batched emit (single-emit shapes, e.g. filter→emit scans): rows accumulate
  // in column-major stack buffers and flush through AppendBatch — one hook
  // crossing and one capacity check per chunk instead of per row. Guarded to
  // exactly one non-bucketed emit of a bounded width so the buffers stay a few
  // KiB of stack; every other shape keeps the per-row hook. AppendBatch is
  // byte- and CostStats-identical to per-row Append, so results don't move.
  constexpr int kEmitBatchRows = 512;
  constexpr int kEmitBatchMaxCols = 8;
  const bool batch_emit = emit_sites == 1 && emit_width > 0 &&
                          emit_width <= kEmitBatchMaxCols;

  std::string out;
  out.reserve(4096 + static_cast<size_t>(n) * 96);
  // No label or other span identity in the text: the source is pure function
  // of the program code + binding schema, so identical spans (and CPU/GPU
  // instantiations of the same span) dedup to a single kernel on disk.
  out +=
      "// HetExchange tier-2 pipeline kernel\n"
      "// Generated by jit::GenerateSource; content-addressed by the kernel\n"
      "// cache — do not edit. Execution contract: identical results and\n"
      "// identical cost counters to the tier-0 interpreter (RunRows).\n"
      "#include <cstdint>\n"
      "#include <cstring>\n"
      "\n"
      "extern \"C\" const unsigned hx_abi_version = " + S(kCodegenAbiVersion) + ";\n"
      "\n"
      "namespace {\n"
      "inline uint64_t hx_mix64(uint64_t k) {\n"
      "  k ^= k >> 33;\n"
      "  k *= 0xFF51AFD7ED558CCDull;\n"
      "  k ^= k >> 33;\n"
      "  k *= 0xC4CEB9FE1A85EC53ull;\n"
      "  k ^= k >> 33;\n"
      "  return k;\n"
      "}\n"
      "// Sign-extending loads of a hash-table entry's 1-, 2-, 4- and 8-byte\n"
      "// fields.\n"
      "inline int64_t hx_ld1(const unsigned char* p) {\n"
      "  int8_t v; memcpy(&v, p, 1); return v;\n"
      "}\n"
      "inline int64_t hx_ld2(const unsigned char* p) {\n"
      "  int16_t v; memcpy(&v, p, 2); return v;\n"
      "}\n"
      "inline int64_t hx_ld4(const unsigned char* p) {\n"
      "  int32_t v; memcpy(&v, p, 4); return v;\n"
      "}\n"
      "inline int64_t hx_ld8(const unsigned char* p) {\n"
      "  int64_t v; memcpy(&v, p, 8); return v;\n"
      "}\n"
      "// A stored integer's value: plus its code's base, in two's complement.\n"
      "inline int64_t hx_dec(int64_t v, int64_t base) {\n"
      "  return (int64_t)((uint64_t)v + (uint64_t)base);\n"
      "}\n"
      "typedef void (*hx_emit_fn)(void*, const int64_t*, int, uint64_t*);\n"
      "typedef void (*hx_emit_batch_fn)(void*, const int64_t* const*, int, uint64_t, uint64_t*);\n"
      "typedef int (*hx_insert_fn)(void*, int64_t, const int64_t*, uint64_t*);\n"
      "typedef int (*hx_groupby_fn)(void*, int64_t, const int64_t*, int, uint64_t*);\n"
      "}  // namespace\n"
      "\n"
      "extern \"C\" int hx_kernel(\n"
      "    const void* const* cols, const int64_t* col_bases, void* emit0,\n"
      "    int64_t* local_accs, const uint64_t* const* ht_heads,\n"
      "    const unsigned char* const* ht_entries, const int64_t* ht_bases,\n"
      "    const uint64_t* ht_masks, void* const* ht_objs, uint64_t* stats,\n"
      "    uint64_t row_begin, uint64_t row_step, uint64_t rows, int atomic_mode,\n"
      "    const void* const* hooks) {\n"
      "  (void)cols; (void)col_bases; (void)emit0; (void)local_accs;\n"
      "  (void)ht_heads; (void)ht_entries; (void)ht_bases; (void)ht_masks;\n"
      "  (void)ht_objs; (void)atomic_mode; (void)hooks;\n";

  // Hoisted bindings: columns and their bases, probe-slot raw layout and
  // field bases, hook pointers.
  for (int c = 0; c < program.n_input_cols; ++c) {
    if ((cols_used >> c) & 1ull) {
      out += "  const unsigned char* const hx_c" + S(c) +
             " = (const unsigned char*)cols[" + S(c) + "];\n";
      out += "  const int64_t hx_cb" + S(c) + " = col_bases[" + S(c) + "];\n";
    }
  }
  for (const auto& [s, layout] : layouts) {
    out += "  // slot " + S(s) + ": " + S(layout.stride()) +
           "-byte entries, width code " + WidthCodeHex(width_codes[s]) + "\n";
    out += "  const uint64_t* const hx_h" + S(s) + " = ht_heads[" + S(s) + "];\n";
    out += "  const unsigned char* const hx_e" + S(s) + " = ht_entries[" + S(s) +
           "];\n";
    out += "  const uint64_t hx_m" + S(s) + " = ht_masks[" + S(s) + "];\n";
    out += "  const int64_t " + KeyBase(s) + " = ht_bases[" +
           S(s * kHtBaseStride) + "];\n";
    for (int i = 0; i < payload_loads[s]; ++i) {
      out += "  const int64_t " + PayloadBase(s, i) + " = ht_bases[" +
             S(s * kHtBaseStride + 1 + i) + "];\n";
    }
  }
  if (uses_emit && !batch_emit) {
    out += "  const hx_emit_fn hx_emit = (hx_emit_fn)hooks[" + S(kHookEmit) + "];\n";
  }
  if (batch_emit) {
    out += "  const hx_emit_batch_fn hx_emit_batch = (hx_emit_batch_fn)hooks[" +
           S(kHookEmitBatch) + "];\n";
    for (int c = 0; c < emit_width; ++c) {
      out += "  int64_t hx_eb" + S(c) + "[" + S(kEmitBatchRows) + "];\n";
    }
    out += "  const int64_t* const hx_ebp[" + S(emit_width) + "] = {";
    for (int c = 0; c < emit_width; ++c) out += (c ? ", " : " ") + std::string("hx_eb") + S(c);
    out += " };\n";
    out += "  uint64_t hx_ebn = 0;\n";
  }
  if (uses_insert) {
    out += "  const hx_insert_fn hx_insert = (hx_insert_fn)hooks[" +
           S(kHookHtInsert) + "];\n";
  }
  if (uses_groupby) {
    out += "  const hx_groupby_fn hx_groupby = (hx_groupby_fn)hooks[" +
           S(kHookGroupBy) + "];\n";
  }

  out +=
      "  uint64_t s_tuples = 0, s_ops = 0, s_br = 0, s_bw = 0;\n"
      "  uint64_t s_at = 0, s_near = 0, s_mid = 0, s_far = 0;\n"
      "  int hx_fault = 0;\n";
  // VM registers: zero-initialized once, persistent across tuples — exactly
  // the interpreter's ExecCtx.regs lifetime within one block.
  for (int r = 0; r < program.n_regs; ++r) {
    out += "  int64_t " + RegName(r) + " = 0; (void)" + RegName(r) + ";\n";
  }
  for (int a = 0; a < program.n_local_accs; ++a) {
    out += "  int64_t a" + S(a) + " = local_accs[" + S(a) + "];\n";
  }
  out += "  for (uint64_t hx_row = row_begin; hx_row < rows; hx_row += row_step) {\n";
  out += "    s_tuples += 1;\n";

  Fold fold;
  for (int pc = 0; pc < n; ++pc) {
    if (is_target[pc]) {
      out += "   hx_pc_" + S(pc) + ":;\n";
      fold.Clear();  // paths join here; constant knowledge does not survive
    }
    const Instr& in = code[pc];
    out += "    s_ops += 1;\n";  // every fetched instruction costs one op
    switch (in.op) {
      case OpCode::kConst:
        out += "    " + RegName(in.a) + " = " + ImmStr(in.imm) + ";\n";
        fold.Set(in.a, in.imm);
        break;
      case OpCode::kLoadCol: {
        // A typed load at the column's width, sign-extended, plus its base.
        const uint32_t w = program.input_widths[in.b];
        out += "    { int" + S(8 * w) + "_t hx_t; memcpy(&hx_t, hx_c" + S(in.b) +
               " + hx_row * " + S(w) + "u, " + S(w) + "); " + RegName(in.a) +
               " = hx_dec(hx_t, hx_cb" + S(in.b) + "); }\n";
        out += "    s_br += " + S(w) + ";\n";
        fold.Kill(in.a);
        break;
      }
      case OpCode::kAdd:
      case OpCode::kSub:
      case OpCode::kMul: {
        const char* sym = in.op == OpCode::kAdd ? "+"
                          : in.op == OpCode::kSub ? "-" : "*";
        if (fold.Known(in.b) && fold.RhsKnown(in)) {
          const int64_t x = fold.val[in.b], y = fold.RhsVal(in);
          const int64_t v = in.op == OpCode::kAdd   ? WrapAdd(x, y)
                            : in.op == OpCode::kSub ? WrapSub(x, y)
                                                    : WrapMul(x, y);
          out += "    " + RegName(in.a) + " = " + ImmStr(v) + ";\n";
          fold.Set(in.a, v);
        } else {
          out += "    " + RegName(in.a) + " = " + fold.Use(in.b) + " " + sym +
                 " " + fold.RhsUse(in) + ";\n";
          fold.Kill(in.a);
        }
        break;
      }
      case OpCode::kDiv: {
        if (fold.RhsKnown(in) && fold.RhsVal(in) != 0) {
          const int64_t d = fold.RhsVal(in);
          if (fold.Known(in.b) && !(fold.val[in.b] == INT64_MIN && d == -1)) {
            const int64_t v = fold.val[in.b] / d;
            out += "    " + RegName(in.a) + " = " + ImmStr(v) + ";\n";
            fold.Set(in.a, v);
          } else {
            // Divisor proven nonzero: the runtime guard folds away entirely.
            out += "    " + RegName(in.a) + " = " + fold.Use(in.b) + " / " +
                   ImmStr(d) + ";\n";
            fold.Kill(in.a);
          }
        } else if (fold.RhsKnown(in)) {  // divisor proven zero
          out += "    hx_fault = 1; goto hx_done;\n";
          fold.Kill(in.a);
        } else {
          out += "    if (" + RegName(in.c) +
                 " == 0) { hx_fault = 1; goto hx_done; }\n";
          out += "    " + RegName(in.a) + " = " + fold.Use(in.b) + " / " +
                 RegName(in.c) + ";\n";
          fold.Kill(in.a);
        }
        break;
      }
      case OpCode::kShl:
        if (fold.Known(in.b)) {
          const int64_t v = WrapShl(fold.val[in.b], in.imm);
          out += "    " + RegName(in.a) + " = " + ImmStr(v) + ";\n";
          fold.Set(in.a, v);
        } else {
          out += "    " + RegName(in.a) + " = (int64_t)((uint64_t)" +
                 RegName(in.b) + " << " + S(in.imm) + ");\n";
          fold.Kill(in.a);
        }
        break;
      case OpCode::kCmpLt:
      case OpCode::kCmpLe:
      case OpCode::kCmpGt:
      case OpCode::kCmpGe:
      case OpCode::kCmpEq:
      case OpCode::kCmpNe: {
        const char* sym = in.op == OpCode::kCmpLt   ? "<"
                          : in.op == OpCode::kCmpLe ? "<="
                          : in.op == OpCode::kCmpGt ? ">"
                          : in.op == OpCode::kCmpGe ? ">="
                          : in.op == OpCode::kCmpEq ? "==" : "!=";
        if (fold.Known(in.b) && fold.RhsKnown(in)) {
          const int64_t x = fold.val[in.b], y = fold.RhsVal(in);
          const bool v = in.op == OpCode::kCmpLt   ? x < y
                         : in.op == OpCode::kCmpLe ? x <= y
                         : in.op == OpCode::kCmpGt ? x > y
                         : in.op == OpCode::kCmpGe ? x >= y
                         : in.op == OpCode::kCmpEq ? x == y : x != y;
          out += "    " + RegName(in.a) + " = " + S(v ? 1 : 0) + ";\n";
          fold.Set(in.a, v ? 1 : 0);
        } else {
          out += "    " + RegName(in.a) + " = " + fold.Use(in.b) + " " + sym +
                 " " + fold.RhsUse(in) + ";\n";
          fold.Kill(in.a);
        }
        break;
      }
      case OpCode::kAnd:
      case OpCode::kOr: {
        const char* sym = in.op == OpCode::kAnd ? "&&" : "||";
        if (fold.Known(in.b) && fold.RhsKnown(in)) {
          const int64_t x = fold.val[in.b], y = fold.RhsVal(in);
          const bool v = in.op == OpCode::kAnd ? (x != 0 && y != 0)
                                               : (x != 0 || y != 0);
          out += "    " + RegName(in.a) + " = " + S(v ? 1 : 0) + ";\n";
          fold.Set(in.a, v ? 1 : 0);
        } else {
          out += "    " + RegName(in.a) + " = (" + fold.Use(in.b) +
                 " != 0) " + sym + " (" + fold.RhsUse(in) + " != 0);\n";
          fold.Kill(in.a);
        }
        break;
      }
      case OpCode::kNot:
        if (fold.Known(in.b)) {
          const int64_t v = fold.val[in.b] == 0 ? 1 : 0;
          out += "    " + RegName(in.a) + " = " + S(v) + ";\n";
          fold.Set(in.a, v);
        } else {
          out += "    " + RegName(in.a) + " = " + RegName(in.b) + " == 0;\n";
          fold.Kill(in.a);
        }
        break;
      case OpCode::kFilter:
        if (fold.Known(in.a)) {
          // Constant filter folds away; its one-op fetch cost was kept above.
          if (fold.val[in.a] == 0) out += "    goto hx_next;\n";
        } else {
          out += "    if (" + RegName(in.a) + " == 0) goto hx_next;\n";
        }
        break;
      case OpCode::kJmp:
        out += "    goto hx_pc_" + S(in.a) + ";\n";
        break;
      case OpCode::kJmpIfFalse:
        if (fold.Known(in.a)) {
          if (fold.val[in.a] == 0) out += "    goto hx_pc_" + S(in.b) + ";\n";
        } else {
          out += "    if (" + RegName(in.a) + " == 0) goto hx_pc_" + S(in.b) +
                 ";\n";
        }
        break;
      case OpCode::kHtInsert: {
        out += "    {";
        if (in.d > 0) {
          out += " int64_t hx_v[" + S(in.d) + "] = {";
          for (int i = 0; i < in.d; ++i) {
            out += (i ? ", " : " ") + RegName(in.c + i);
          }
          out += " };";
        }
        out += " if (hx_insert(ht_objs[" + S(in.a) + "], " + fold.Use(in.b) +
               (in.d > 0 ? ", hx_v" : ", (const int64_t*)0") + ", &s_bw)) {" +
               " hx_fault = " + S(kKernelJoinHtFull + in.a) +
               "; goto hx_done; } }\n";
        out += std::string("    ") + ClsCounter(in.cls) + " += 1;\n";
        out += std::string("    s_at += (uint64_t)((atomic_mode & ") +
               S(kAtomicHtInsert) + ") != 0);\n";
        break;
      }
      case OpCode::kHtProbeInit: {
        // One head load gives the chain and the tag; a clear tag bit ends
        // the probe there (JoinHashTable::HeadOf).
        out += "    { const int64_t hx_k = " + fold.Use(in.b) + ";\n";
        out += "      const uint64_t hx_hash = hx_mix64((uint64_t)hx_k);\n";
        out += "      const uint64_t hx_w = __atomic_load_n(&hx_h" + S(in.c) +
               "[hx_hash & hx_m" + S(in.c) + "], __ATOMIC_ACQUIRE);\n";
        out += "      int64_t hx_e = ((hx_w >> (32 + (hx_hash >> " +
               S(JoinHashTable::kTagShift) +
               "))) & 1u) ? (int64_t)(int32_t)hx_w : -1;\n";
        out += "      uint64_t hx_hops = 0;\n";
        out += ChainWalk(in.c, layouts.at(in.c));
        out += "      " + RegName(in.a) + " = hx_e;\n";
        out += std::string("      ") + ClsCounter(in.cls) + " += 1 + hx_hops;\n";
        out += "      if (hx_e < 0) goto hx_pc_" + S(in.d) + "; }\n";
        fold.Kill(in.a);
        break;
      }
      case OpCode::kHtIterNext: {
        const JoinHashTable::Layout& layout = layouts.at(in.c);
        out += "    { const int64_t hx_k = " + fold.Use(in.b) + ";\n";
        out += "      int64_t hx_e = " +
               LoadField(EntryAddr(in.c, fold.Use(in.a), layout), layout.next()) +
               ";\n";
        out += "      uint64_t hx_hops = 0;\n";
        out += ChainWalk(in.c, layout);
        out += "      " + RegName(in.a) + " = hx_e;\n";
        out += std::string("      ") + ClsCounter(in.cls) + " += hx_hops;\n";
        out += "      if (hx_e >= 0) goto hx_pc_" + S(in.d) + "; }\n";
        fold.Kill(in.a);
        break;
      }
      case OpCode::kHtLoadPayload: {
        const JoinHashTable::Layout& layout = layouts.at(in.c);
        out += "    { const unsigned char* hx_p = " +
               EntryAddr(in.c, fold.Use(in.b), layout) + ";\n";
        for (int i = 0; i < in.d; ++i) {
          out += "      " + RegName(in.a + i) + " = " +
                 DecodeField("hx_p", layout.payload(i), PayloadBase(in.c, i)) +
                 ";\n";
          fold.Kill(in.a + i);
        }
        out += "    }\n";
        break;
      }
      case OpCode::kAggLocal: {
        const std::string acc = "a" + S(in.a);
        switch (static_cast<AggFunc>(in.c)) {
          case AggFunc::kSum:
            out += "    " + acc + " += " + fold.Use(in.b) + ";\n";
            break;
          case AggFunc::kCount:
            out += "    " + acc + " += 1;\n";
            break;
          case AggFunc::kMin:
            out += "    { const int64_t hx_t = " + fold.Use(in.b) + "; if (hx_t < " +
                   acc + ") " + acc + " = hx_t; }\n";
            break;
          case AggFunc::kMax:
            out += "    { const int64_t hx_t = " + fold.Use(in.b) + "; if (hx_t > " +
                   acc + ") " + acc + " = hx_t; }\n";
            break;
        }
        break;
      }
      case OpCode::kGroupByAgg: {
        out += "    { int64_t hx_v[" + S(in.d > 0 ? in.d : 1) + "] = {";
        for (int i = 0; i < in.d; ++i) out += (i ? ", " : " ") + RegName(in.c + i);
        out += " };\n";
        out += "      uint64_t hx_pr = 0;\n";
        out += "      if (hx_groupby(ht_objs[" + S(in.a) + "], " + fold.Use(in.b) +
               ", hx_v, atomic_mode & " + S(kAtomicGroupBy) +
               ", &hx_pr)) { hx_fault = " + S(kKernelGroupByFull + in.a) +
               "; goto hx_done; }\n";
        out += std::string("      ") + ClsCounter(in.cls) + " += hx_pr; }\n";
        out += std::string("    s_at += (uint64_t)((atomic_mode & ") +
               S(kAtomicGroupBy) + ") != 0) * " + S(in.d) + ";\n";
        break;
      }
      case OpCode::kEmit: {
        if (batch_emit) {
          out += "    {";
          for (int i = 0; i < in.b; ++i) {
            out += " hx_eb" + S(i) + "[hx_ebn] = " + RegName(in.a + i) + ";";
          }
          out += " hx_ebn += 1;\n";
          out += "      if (hx_ebn == " + S(kEmitBatchRows) +
                 ") { hx_emit_batch(emit0, hx_ebp, " + S(in.b) +
                 ", hx_ebn, &s_bw); hx_ebn = 0; } }\n";
          break;
        }
        out += "    {";
        if (in.b > 0) {
          out += " int64_t hx_v[" + S(in.b) + "] = {";
          for (int i = 0; i < in.b; ++i) out += (i ? ", " : " ") + RegName(in.a + i);
          out += " };";
        }
        const std::string vals = in.b > 0 ? "hx_v" : "(const int64_t*)0";
        out += " hx_emit(emit0, " + vals + ", " + S(in.b) + ", &s_bw); }\n";
        break;
      }
      case OpCode::kEnd:
        out += "    goto hx_next;\n";
        break;
    }
  }

  out +=
      "   hx_next:;\n"
      "  }\n"
      " hx_done:\n";
  if (batch_emit) {
    // Drain the partial chunk on every exit — normal completion and the fault
    // path both land here, and the interpreter had already emitted these rows.
    out += "  if (hx_ebn != 0) { hx_emit_batch(emit0, hx_ebp, " +
           S(emit_width) + ", hx_ebn, &s_bw); hx_ebn = 0; }\n";
  }
  for (int a = 0; a < program.n_local_accs; ++a) {
    out += "  local_accs[" + S(a) + "] = a" + S(a) + ";\n";
  }
  out += "  stats[" + S(kStatTuples) + "] += s_tuples;\n";
  out += "  stats[" + S(kStatOps) + "] += s_ops;\n";
  out += "  stats[" + S(kStatBytesRead) + "] += s_br;\n";
  out += "  stats[" + S(kStatBytesWritten) + "] += s_bw;\n";
  out += "  stats[" + S(kStatAtomics) + "] += s_at;\n";
  out += "  stats[" + S(kStatNear) + "] += s_near;\n";
  out += "  stats[" + S(kStatMid) + "] += s_mid;\n";
  out += "  stats[" + S(kStatFar) + "] += s_far;\n";
  out += "  return hx_fault;\n}\n";

  g_generated.fetch_add(1, std::memory_order_relaxed);
  res.source = std::move(out);
  res.signature = HashBytes(res.source.data(), res.source.size());
  res.join_slot_mask = probe_slots;
  for (const auto& [s, layout] : layouts) res.slot_layouts[s] = width_codes[s];
  return res;
}

// ---------------------------------------------------------------------------
// Native execution
// ---------------------------------------------------------------------------

Status RunNative(const PipelineProgram& program, ExecCtx& ctx, uint64_t rows) {
  const NativeKernel* kernel = program.native.get();
  HETEX_CHECK(kernel != nullptr && kernel->fn != nullptr)
      << "RunNative on pipeline '" << program.label << "' without a ready kernel";

  const void* cols[64] = {};
  int64_t col_bases[64] = {};
  if (ctx.n_cols < program.n_input_cols) {
    return Status::Internal("native kernel '" + program.label + "': " +
                            std::to_string(ctx.n_cols) + " columns bound, " +
                            std::to_string(program.n_input_cols) + " compiled");
  }
  for (int i = 0; i < program.n_input_cols; ++i) {
    if (ctx.cols[i].width != program.input_widths[i]) {
      return Status::Internal(
          "native kernel '" + program.label + "': column " + std::to_string(i) +
          " bound with width " + std::to_string(ctx.cols[i].width) +
          ", compiled for " + std::to_string(program.input_widths[i]));
    }
    cols[i] = ctx.cols[i].data;
    col_bases[i] = ctx.cols[i].base;
  }

  static_assert(sizeof(std::atomic<uint64_t>) == sizeof(uint64_t) &&
                    std::atomic<uint64_t>::is_always_lock_free,
                "bucket heads must be bit-compatible with a plain uint64 array");
  const uint64_t* heads[kMaxHtSlots] = {};
  const unsigned char* entries[kMaxHtSlots] = {};
  int64_t ht_bases[kMaxHtSlots * kHtBaseStride] = {};
  uint64_t masks[kMaxHtSlots] = {};
  for (int s = 0; s < kMaxHtSlots; ++s) {
    if ((kernel->join_slot_mask >> s) & 1u) {
      const auto* ht = static_cast<const JoinHashTable*>(ctx.ht_slots[s]);
      if (ht->layout().WidthCode() != kernel->slot_layouts[s]) {
        return Status::Internal(
            "native kernel '" + program.label + "': hash-table slot " +
            std::to_string(s) + " bound with layout width code " +
            WidthCodeHex(ht->layout().WidthCode()) + ", compiled for " +
            WidthCodeHex(kernel->slot_layouts[s]));
      }
      heads[s] = reinterpret_cast<const uint64_t*>(ht->raw_heads());
      entries[s] = reinterpret_cast<const unsigned char*>(ht->raw_entries());
      masks[s] = ht->bucket_mask();
      int64_t* bases = ht_bases + s * kHtBaseStride;
      bases[0] = ht->layout().key().base;
      for (int i = 0; i < ht->layout().payload_count(); ++i) {
        bases[1 + i] = ht->layout().payload(i).base;
      }
    }
  }

  uint64_t s[kStatCount] = {};
  const int rc = kernel->fn(
      cols, col_bases, ctx.emit, ctx.local_accs, heads, entries, ht_bases,
      masks, ctx.ht_slots, s, ctx.row_begin, ctx.row_step, rows,
      (ctx.atomic_group_update ? kAtomicGroupBy : 0) |
          (ctx.atomic_ht_insert ? kAtomicHtInsert : 0),
      kHookTable);
  g_native_invocations.fetch_add(1, std::memory_order_relaxed);

  ctx.stats->tuples += s[kStatTuples];
  ctx.stats->ops += s[kStatOps];
  ctx.stats->bytes_read += s[kStatBytesRead];
  ctx.stats->bytes_written += s[kStatBytesWritten];
  ctx.stats->atomics += s[kStatAtomics];
  ctx.stats->near_accesses += s[kStatNear];
  ctx.stats->mid_accesses += s[kStatMid];
  ctx.stats->far_accesses += s[kStatFar];

  if (rc == 0) return Status::OK();
  if (rc == kKernelDivByZero) {
    return Status::Internal("division by zero in pipeline '" + program.label +
                            "'");
  }
  if (rc >= kKernelJoinHtFull && rc < kKernelJoinHtFull + kMaxHtSlots) {
    return static_cast<const JoinHashTable*>(ctx.ht_slots[rc - kKernelJoinHtFull])
        ->OverCapacity(program.label);
  }
  if (rc >= kKernelGroupByFull && rc < kKernelGroupByFull + kMaxHtSlots) {
    return static_cast<const AggHashTable*>(ctx.ht_slots[rc - kKernelGroupByFull])
        ->OverCapacity(program.label);
  }
  return Status::Internal("native kernel '" + program.label +
                          "' returned unknown code " + std::to_string(rc));
}

// ---------------------------------------------------------------------------
// Live tier reporting (declared in jit/program.h; lives here because it needs
// NativeKernel's definition)
// ---------------------------------------------------------------------------

ExecTier PipelineProgram::EffectiveTier() const {
  if (native != nullptr && native->ready()) return ExecTier::kNative;
  if (tier == ExecTier::kNative) {
    return vec != nullptr ? ExecTier::kVectorized : ExecTier::kInterpreter;
  }
  return tier;
}

std::string PipelineProgram::EffectiveTierReason() const {
  if (native != nullptr) {
    if (native->ready()) {
      return native->origin == NativeKernel::Origin::kDisk
                 ? "native (kernel cache disk hit)"
                 : "native (jit-compiled)";
    }
    if (native->failed()) {
      return tier_reason + " [native compile failed: " + native->error + "]";
    }
    return tier_reason + " [native compile pending]";
  }
  return tier_reason;
}

}  // namespace hetex::jit
