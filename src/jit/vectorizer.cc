#include "jit/vectorizer.h"

#include <algorithm>
#include <array>
#include <atomic>

#include "common/hash.h"
#include "common/logging.h"

namespace hetex::jit {

namespace {

std::atomic<uint64_t> g_attempts{0};
std::atomic<uint64_t> g_vectorized{0};
std::atomic<uint64_t> g_fallbacks{0};

/// Bumps the random-access counter matching a size class (same accounting as
/// the row interpreter).
inline void CountAccess(sim::CostStats* stats, uint8_t cls, uint64_t n) {
  switch (cls) {
    case 0: stats->near_accesses += n; break;
    case 1: stats->mid_accesses += n; break;
    default: stats->far_accesses += n; break;
  }
}

bool IsBinOp(OpCode op) {
  switch (op) {
    case OpCode::kAdd:
    case OpCode::kSub:
    case OpCode::kMul:
    case OpCode::kDiv:
    case OpCode::kCmpLt:
    case OpCode::kCmpLe:
    case OpCode::kCmpGt:
    case OpCode::kCmpGe:
    case OpCode::kCmpEq:
    case OpCode::kCmpNe:
    case OpCode::kAnd:
    case OpCode::kOr:
      return true;
    default:
      return false;
  }
}

/// Register reads/writes of one straight-line instruction (for the live-in /
/// poison analysis that decides whether loop expansion is sound).
void ReadsWrites(const Instr& in, std::vector<int16_t>* reads,
                 std::vector<int16_t>* writes) {
  switch (in.op) {
    case OpCode::kConst:
      writes->push_back(in.a);
      break;
    case OpCode::kLoadCol:
      writes->push_back(in.a);
      break;
    case OpCode::kShl:
    case OpCode::kNot:
    case OpCode::kHash:
      reads->push_back(in.b);
      writes->push_back(in.a);
      break;
    case OpCode::kFilter:
      reads->push_back(in.a);
      break;
    case OpCode::kHtInsert:
      reads->push_back(in.b);
      for (int i = 0; i < in.d; ++i) reads->push_back(in.c + i);
      break;
    case OpCode::kHtLoadPayload:
      reads->push_back(in.b);
      for (int i = 0; i < in.d; ++i) writes->push_back(in.a + i);
      break;
    case OpCode::kAggLocal:
      reads->push_back(in.b);
      break;
    case OpCode::kGroupByAgg:
      reads->push_back(in.b);
      for (int i = 0; i < in.d; ++i) reads->push_back(in.c + i);
      break;
    case OpCode::kEmit:
      for (int i = 0; i < in.b; ++i) reads->push_back(in.a + i);
      if (in.d != 0) reads->push_back(in.c);
      break;
    default:
      if (IsBinOp(in.op)) {
        reads->push_back(in.b);
        reads->push_back(in.c);
        writes->push_back(in.a);
      }
      break;
  }
}

VecStep::Kind StepKindOf(OpCode op) {
  switch (op) {
    case OpCode::kConst: return VecStep::Kind::kConst;
    case OpCode::kLoadCol: return VecStep::Kind::kLoadCol;
    case OpCode::kNot: return VecStep::Kind::kNot;
    case OpCode::kHash: return VecStep::Kind::kHash;
    case OpCode::kFilter: return VecStep::Kind::kFilter;
    case OpCode::kHtInsert: return VecStep::Kind::kHtInsert;
    case OpCode::kHtLoadPayload: return VecStep::Kind::kHtLoadPayload;
    case OpCode::kAggLocal: return VecStep::Kind::kAggLocal;
    case OpCode::kGroupByAgg: return VecStep::Kind::kGroupByAgg;
    case OpCode::kEmit: return VecStep::Kind::kEmit;
    default: return VecStep::Kind::kBin;  // kShl + IsBinOp, checked by callers
  }
}

/// \brief Recursive-descent parser over the flat bytecode.
///
/// Straight-line instructions map 1:1 to vector primitives; the canonical probe
/// loop idiom (kHtProbeInit / kJmpIfNeg / body / kHtIterNext / kJmp) parses into
/// a VecLoop. Anything else is a fallback reason, never a silent skip.
class Parser {
 public:
  Parser(const PipelineProgram& p, VectorProgram* vp) : p_(p), vp_(vp) {}

  bool ParseBlock(int begin, int end, int depth, std::vector<VecStep>* out,
                  bool* has_load) {
    vp_->max_loop_depth = std::max(vp_->max_loop_depth, depth);
    int pc = begin;
    while (pc < end) {
      const Instr& in = p_.code[pc];
      switch (in.op) {
        case OpCode::kJmp:
        case OpCode::kJmpIfFalse:
        case OpCode::kJmpIfNeg:
          return Fail("unstructured control flow at pc " + std::to_string(pc));
        case OpCode::kEnd:
          return Fail("kEnd inside the program body at pc " + std::to_string(pc));
        case OpCode::kFilter:
          if (depth > 0) {
            return Fail("filter inside a probe loop at pc " + std::to_string(pc));
          }
          out->push_back({VecStep::Kind::kFilter, in, -1});
          ++pc;
          break;
        case OpCode::kHtProbeInit: {
          if (!ParseLoop(pc, end, depth, out, &pc, has_load)) return false;
          break;
        }
        case OpCode::kHtIterNext:
          return Fail("ht_iter_next outside a probe loop at pc " +
                      std::to_string(pc));
        case OpCode::kLoadCol:
          *has_load = true;
          out->push_back({VecStep::Kind::kLoadCol, in, -1});
          ++pc;
          break;
        default:
          if (in.op != OpCode::kConst && in.op != OpCode::kShl &&
              in.op != OpCode::kNot && in.op != OpCode::kHash &&
              in.op != OpCode::kHtInsert && in.op != OpCode::kHtLoadPayload &&
              in.op != OpCode::kAggLocal && in.op != OpCode::kGroupByAgg &&
              in.op != OpCode::kEmit && !IsBinOp(in.op)) {
            return Fail("unsupported opcode at pc " + std::to_string(pc));
          }
          out->push_back({StepKindOf(in.op), in, -1});
          ++pc;
          break;
      }
    }
    return true;
  }

  /// Parses the probe-loop idiom starting at `pc` (a kHtProbeInit); on success
  /// appends a kLoop step and sets `next` to the loop's exit pc.
  bool ParseLoop(int pc, int end, int depth, std::vector<VecStep>* out,
                 int* next, bool* has_load) {
    const Instr& probe = p_.code[pc];
    if (pc + 1 >= end || p_.code[pc + 1].op != OpCode::kJmpIfNeg ||
        p_.code[pc + 1].a != probe.a) {
      return Fail("probe not followed by its loop header at pc " +
                  std::to_string(pc));
    }
    const int exit = p_.code[pc + 1].b;
    if (exit > end || exit - 2 < pc + 2) {
      return Fail("probe loop exit out of range at pc " + std::to_string(pc));
    }
    const Instr& jmp = p_.code[exit - 1];
    const Instr& iter_next = p_.code[exit - 2];
    if (jmp.op != OpCode::kJmp || jmp.a != pc + 1 ||
        iter_next.op != OpCode::kHtIterNext || iter_next.a != probe.a ||
        iter_next.b != probe.b || iter_next.c != probe.c ||
        iter_next.cls != probe.cls) {
      // A cls mismatch would misattribute the chain-walk accesses the
      // expansion charges wholesale to probe.cls — fall back instead.
      return Fail("unrecognized probe loop backedge at pc " + std::to_string(pc));
    }
    VecLoop loop;
    loop.probe = probe;
    loop.iter_next = iter_next;
    bool body_loads = false;
    if (!ParseBlock(pc + 2, exit - 2, depth + 1, &loop.body, &body_loads)) {
      return false;
    }
    loop.needs_rows = body_loads;
    *has_load |= body_loads;
    const int idx = static_cast<int>(vp_->loops.size());
    vp_->loops.push_back(std::move(loop));
    out->push_back({VecStep::Kind::kLoop, probe, idx});
    *next = exit;
    return true;
  }

  bool Fail(std::string reason) {
    error_ = std::move(reason);
    return false;
  }

  const std::string& error() const { return error_; }

 private:
  const PipelineProgram& p_;
  VectorProgram* vp_;
  std::string error_;
};

/// \brief Register dataflow analysis over a parsed block.
///
/// Computes each loop body's live-in set (registers to copy into the expanded
/// lanes) and rejects shapes whose row semantics the vectorized execution would
/// not reproduce: registers written inside a loop body and read after it (the
/// interpreter would observe the last iteration's value; the expansion discards
/// it), and bodies that write their own iterator or key register. Also marks
/// loops whose iterator register is read after the loop, so the expansion knows
/// to materialize the interpreter's exhausted -1.
class Analyzer {
 public:
  explicit Analyzer(VectorProgram* vp) : vp_(vp) {}

  // state: 0 = unwritten, 1 = written, 2 = poisoned (stale after a loop).
  bool AnalyzeBlock(std::vector<VecStep>& steps,
                    std::array<uint8_t, kMaxRegs>& state,
                    std::vector<int16_t>* live_in,
                    std::array<bool, kMaxRegs>& writes_out) {
    std::array<bool, kMaxRegs> live_seen{};
    for (int16_t r : *live_in) live_seen[r] = true;
    // reg -> loop whose iterator currently defines it (-1 = none).
    std::array<int, kMaxRegs> iter_of{};
    iter_of.fill(-1);

    auto read = [&](int16_t r) -> bool {
      if (state[r] == 2) {
        return Fail("register r" + std::to_string(r) +
                    " written in a probe loop and read after it");
      }
      if (iter_of[r] >= 0) vp_->loops[iter_of[r]].iter_read_after = true;
      if (state[r] == 0 && !live_seen[r]) {
        live_seen[r] = true;
        live_in->push_back(r);
      }
      return true;
    };
    auto write = [&](int16_t w, std::array<bool, kMaxRegs>& writes) {
      state[w] = 1;
      iter_of[w] = -1;
      writes[w] = true;
    };

    std::vector<int16_t> reads, writes;
    for (VecStep& s : steps) {
      if (s.kind != VecStep::Kind::kLoop) {
        reads.clear();
        writes.clear();
        ReadsWrites(s.in, &reads, &writes);
        for (int16_t r : reads) {
          if (!read(r)) return false;
        }
        for (int16_t w : writes) write(w, writes_out);
        continue;
      }

      VecLoop& loop = vp_->loops[s.loop_idx];
      // The expansion reads the key register from the parent lanes.
      if (!read(loop.probe.b)) return false;
      // The body runs on the expanded lanes: the iterator register is defined
      // by the expansion, everything else the body reads before writing is a
      // live-in copied from the parent.
      std::array<uint8_t, kMaxRegs> body_state{};
      body_state[loop.probe.a] = 1;
      std::array<bool, kMaxRegs> body_writes{};
      if (!AnalyzeBlock(loop.body, body_state, &loop.live_in, body_writes)) {
        return false;
      }
      if (body_writes[loop.probe.a] || body_writes[loop.probe.b]) {
        return Fail("probe loop body writes its iterator or key register");
      }
      // Body live-ins are parent reads (they are gathered from parent lanes).
      for (int16_t r : loop.live_in) {
        if (!read(r)) return false;
      }
      // After the loop the interpreter leaves the iterator exhausted (-1); the
      // expansion materializes that only if something reads it. Every other
      // body-written register is stale in the parent lanes.
      for (int16_t w = 0; w < kMaxRegs; ++w) {
        if (body_writes[w]) {
          state[w] = 2;
          iter_of[w] = -1;
          writes_out[w] = true;
        }
      }
      state[loop.probe.a] = 1;
      iter_of[loop.probe.a] = s.loop_idx;
      writes_out[loop.probe.a] = true;
    }
    return true;
  }

  bool Fail(std::string reason) {
    error_ = std::move(reason);
    return false;
  }

  const std::string& error() const { return error_; }

 private:
  VectorProgram* vp_;
  std::string error_;
};

/// Per-depth lane state of the vectorized runner: reg-major register arrays,
/// lane→row mapping, and the current selection. The top level's rows are always
/// affine (row0 + lane * step — the grid-stride form), so no row array is ever
/// materialized there; expanded child levels gather rows only when their loop
/// subtree actually loads columns. Reused across batches (and calls) through a
/// thread-local pool to keep the hot path allocation-free.
struct Level {
  std::vector<int64_t> regs;  ///< n_regs * stride, reg-major
  std::vector<uint64_t> rows;
  std::vector<int32_t> sel;
  std::vector<int32_t> scratch;
  std::vector<int64_t> entries_tmp;   ///< loop expansion: bucket heads
  std::vector<uint64_t> buckets_tmp;  ///< loop expansion / emit: bucket per lane
  std::vector<int32_t> src_tmp;       ///< loop expansion: parent lane per match
  std::vector<int32_t> emit_starts;   ///< emit partition: per-bucket offsets
  std::vector<int32_t> emit_cursor;
  uint64_t stride = 0;
  int n_sel = 0;
  bool dense = true;        ///< selection is the identity over [0, n_sel)
  bool affine_rows = true;  ///< rows[lane] == row0 + lane * row_step
  uint64_t row0 = 0;
  uint64_t row_step = 1;

  void EnsureLanes(uint64_t lanes, int n_regs) {
    if (stride < lanes) {
      stride = std::max<uint64_t>(lanes, kVecBatchRows);
      rows.resize(stride);
      sel.resize(stride);
      scratch.resize(stride);
    }
    const uint64_t want = stride * static_cast<uint64_t>(n_regs);
    if (regs.size() < want) regs.resize(want);
  }

  int64_t* reg(int r) { return regs.data() + static_cast<uint64_t>(r) * stride; }

  uint64_t RowOf(int32_t lane) const {
    return affine_rows ? row0 + static_cast<uint64_t>(lane) * row_step
                       : rows[lane];
  }
};

/// Identity selection (lane k == k): lets the compiler drop the indirection and
/// vectorize the dense-path primitive loops.
struct IdentitySel {
  int32_t operator[](int i) const { return i; }
  const int32_t* ptr() const { return nullptr; }  // AppendBatch identity form
};

/// Indirect selection through the level's selection vector.
struct IndirectSel {
  const int32_t* s;
  int32_t operator[](int i) const { return s[i]; }
  const int32_t* ptr() const { return s; }
};

class VecRunner {
 public:
  VecRunner(const PipelineProgram& p, const VectorProgram& vp, ExecCtx& ctx,
            std::vector<Level>& levels)
      : p_(p), vp_(vp), ctx_(ctx), levels_(levels) {}

  Status RunBlock(const std::vector<VecStep>& steps, int depth) {
    Level& L = levels_[depth];
    for (const VecStep& s : steps) {
      const int n = L.n_sel;
      if (n == 0) break;  // nothing selected: the rest executes over zero rows
      if (s.kind != VecStep::Kind::kLoop) {
        ctx_.stats->ops += static_cast<uint64_t>(n);
      }
      Status st = L.dense ? ExecStep(s, L, depth, IdentitySel{}, n)
                          : ExecStep(s, L, depth, IndirectSel{L.sel.data()}, n);
      if (!st.ok()) return st;
    }
    return Status::OK();
  }

 private:
  template <typename SEL>
  Status ExecStep(const VecStep& s, Level& L, int depth, SEL sel, int n) {
    sim::CostStats* stats = ctx_.stats;
    const Instr& in = s.in;
    switch (s.kind) {
      case VecStep::Kind::kConst: {
        int64_t* __restrict a = L.reg(in.a);
        const int64_t imm = in.imm;
        for (int k = 0; k < n; ++k) a[sel[k]] = imm;
        break;
      }
      case VecStep::Kind::kLoadCol: {
        const ColumnBinding& col = ctx_.cols[in.b];
        int64_t* __restrict a = L.reg(in.a);
        // The per-row width branch of ColumnBinding::Load, hoisted to one
        // branch per batch; the common affine unit-stride batch reads the
        // column contiguously (a vectorizable widening copy).
        if (col.width == 4) {
          if (L.affine_rows && L.row_step == 1) {
            const int32_t* __restrict src =
                reinterpret_cast<const int32_t*>(col.base + L.row0 * 4);
            for (int k = 0; k < n; ++k) {
              const int32_t lane = sel[k];
              a[lane] = src[lane];
            }
          } else {
            for (int k = 0; k < n; ++k) {
              const int32_t lane = sel[k];
              int32_t v;
              std::memcpy(&v, col.base + L.RowOf(lane) * 4, 4);
              a[lane] = v;
            }
          }
        } else {
          if (L.affine_rows && L.row_step == 1) {
            const int64_t* __restrict src =
                reinterpret_cast<const int64_t*>(col.base + L.row0 * 8);
            for (int k = 0; k < n; ++k) {
              const int32_t lane = sel[k];
              a[lane] = src[lane];
            }
          } else {
            for (int k = 0; k < n; ++k) {
              const int32_t lane = sel[k];
              std::memcpy(&a[lane], col.base + L.RowOf(lane) * 8, 8);
            }
          }
        }
        stats->bytes_read += static_cast<uint64_t>(col.width) * n;
        break;
      }
      case VecStep::Kind::kBin:
        return RunBin(L, in, sel, n);
      case VecStep::Kind::kNot: {
        int64_t* a = L.reg(in.a);
        const int64_t* b = L.reg(in.b);
        BinLoop(a, b, b, sel, n,
                [](int64_t x, int64_t) { return int64_t{x == 0}; });
        break;
      }
      case VecStep::Kind::kHash: {
        int64_t* a = L.reg(in.a);
        const int64_t* b = L.reg(in.b);
        BinLoop(a, b, b, sel, n, [](int64_t x, int64_t) {
          return static_cast<int64_t>(HashMix64(static_cast<uint64_t>(x)));
        });
        break;
      }
      case VecStep::Kind::kFilter: {
        const int64_t* a = L.reg(in.a);
        int m = 0;
        int32_t* out = L.scratch.data();
        for (int k = 0; k < n; ++k) {
          const int32_t lane = sel[k];
          out[m] = lane;
          m += a[lane] != 0;
        }
        if (m != n || !L.dense) {
          std::swap(L.sel, L.scratch);
          L.dense = false;
        }
        L.n_sel = m;
        break;
      }
      case VecStep::Kind::kHtInsert: {
        auto* ht = static_cast<JoinHashTable*>(ctx_.ht_slots[in.a]);
        const int64_t* key = L.reg(in.b);
        const int64_t* payload[8];
        for (int i = 0; i < in.d; ++i) payload[i] = L.reg(in.c + i);
        int64_t tmp[8];
        for (int k = 0; k < n; ++k) {
          const int32_t lane = sel[k];
          for (int i = 0; i < in.d; ++i) tmp[i] = payload[i][lane];
          ht->Insert(key[lane], tmp);
        }
        CountAccess(stats, in.cls, static_cast<uint64_t>(n));
        if (ctx_.atomic_ht_insert) stats->atomics += static_cast<uint64_t>(n);
        stats->bytes_written +=
            static_cast<uint64_t>(n) * (2 + in.d) * sizeof(int64_t);
        break;
      }
      case VecStep::Kind::kHtLoadPayload: {
        auto* ht = static_cast<JoinHashTable*>(ctx_.ht_slots[in.c]);
        const int64_t* entry = L.reg(in.b);
        int64_t* out[8];
        for (int i = 0; i < in.d; ++i) out[i] = L.reg(in.a + i);
        if (in.d == 1) {
          int64_t* o0 = out[0];
          for (int k = 0; k < n; ++k) {
            const int32_t lane = sel[k];
            o0[lane] = ht->PayloadOf(entry[lane])[0];
          }
        } else {
          for (int k = 0; k < n; ++k) {
            const int32_t lane = sel[k];
            const int64_t* payload = ht->PayloadOf(entry[lane]);
            for (int i = 0; i < in.d; ++i) out[i][lane] = payload[i];
          }
        }
        break;
      }
      case VecStep::Kind::kAggLocal: {
        int64_t* acc = &ctx_.local_accs[in.a];
        const int64_t* v = L.reg(in.b);
        switch (static_cast<AggFunc>(in.c)) {
          case AggFunc::kSum: {
            int64_t s2 = *acc;
            for (int k = 0; k < n; ++k) s2 += v[sel[k]];
            *acc = s2;
            break;
          }
          case AggFunc::kCount:
            *acc += n;
            break;
          case AggFunc::kMin: {
            int64_t m2 = *acc;
            for (int k = 0; k < n; ++k) {
              const int64_t x = v[sel[k]];
              if (x < m2) m2 = x;
            }
            *acc = m2;
            break;
          }
          case AggFunc::kMax: {
            int64_t m2 = *acc;
            for (int k = 0; k < n; ++k) {
              const int64_t x = v[sel[k]];
              if (x > m2) m2 = x;
            }
            *acc = m2;
            break;
          }
        }
        break;
      }
      case VecStep::Kind::kGroupByAgg: {
        auto* ht = static_cast<AggHashTable*>(ctx_.ht_slots[in.a]);
        const int64_t* key = L.reg(in.b);
        const int64_t* vals[8];
        for (int i = 0; i < in.d; ++i) vals[i] = L.reg(in.c + i);
        int64_t tmp[8];
        uint64_t probes = 0;
        const bool atomic = ctx_.atomic_group_update;
        for (int k = 0; k < n; ++k) {
          const int32_t lane = sel[k];
          for (int i = 0; i < in.d; ++i) tmp[i] = vals[i][lane];
          ht->Update(key[lane], tmp, atomic, &probes);
        }
        CountAccess(stats, in.cls, probes);
        if (atomic) stats->atomics += static_cast<uint64_t>(in.d) * n;
        break;
      }
      case VecStep::Kind::kEmit: {
        const int64_t* vals[kMaxRegs];
        for (int i = 0; i < in.b; ++i) vals[i] = L.reg(in.a + i);
        if (in.d == 0) {
          ctx_.emit->AppendBatch(vals, in.b, sel.ptr(),
                                 static_cast<uint64_t>(n), stats);
        } else {
          // Hash-pack: counting partition — one pass to bucket and count, one
          // stable ascending scatter — so per-bucket lane order matches the
          // interpreter's append order at O(n + buckets) instead of
          // O(n * buckets).
          const int64_t* tag = L.reg(in.c);
          const uint64_t nt = static_cast<uint64_t>(ctx_.n_emit_targets);
          if (L.buckets_tmp.size() < static_cast<size_t>(n)) {
            L.buckets_tmp.resize(n);
          }
          if (L.emit_starts.size() < nt + 1) {
            L.emit_starts.resize(nt + 1);
            L.emit_cursor.resize(nt + 1);
          }
          uint64_t* bucket_of = L.buckets_tmp.data();
          int32_t* starts = L.emit_starts.data();
          int32_t* cursor = L.emit_cursor.data();
          std::fill(starts, starts + nt + 1, 0);
          for (int k = 0; k < n; ++k) {
            const uint64_t b = static_cast<uint64_t>(tag[sel[k]]) % nt;
            bucket_of[k] = b;
            ++starts[b + 1];
          }
          for (uint64_t b = 0; b < nt; ++b) starts[b + 1] += starts[b];
          std::copy(starts, starts + nt + 1, cursor);
          int32_t* out = L.scratch.data();
          for (int k = 0; k < n; ++k) out[cursor[bucket_of[k]]++] = sel[k];
          for (uint64_t b = 0; b < nt; ++b) {
            const int32_t m = starts[b + 1] - starts[b];
            if (m > 0) {
              ctx_.emit_targets[b]->AppendBatch(vals, in.b, out + starts[b],
                                                static_cast<uint64_t>(m), stats);
            }
          }
        }
        break;
      }
      case VecStep::Kind::kLoop:
        return RunLoop(vp_.loops[s.loop_idx], depth, sel, n);
    }
    return Status::OK();
  }

  /// Fused binary-primitive loop. The register columns all live in one backing
  /// array, which blocks auto-vectorization under the compiler's aliasing
  /// rules; generated code always writes a fresh register, so the distinct-
  /// operand fast path can assert no overlap (__restrict) and let the loop
  /// vectorize. The aliasing-safe fallback keeps hand-built programs correct.
  template <typename SEL, typename F>
  static inline void BinLoop(int64_t* a, const int64_t* b, const int64_t* c,
                             SEL sel, int n, F f) {
    if (a != b && a != c) {
      int64_t* __restrict ar = a;
      const int64_t* __restrict br = b;
      const int64_t* __restrict cr = c;
      for (int k = 0; k < n; ++k) {
        const int32_t l = sel[k];
        ar[l] = f(br[l], cr[l]);
      }
    } else {
      for (int k = 0; k < n; ++k) {
        const int32_t l = sel[k];
        a[l] = f(b[l], c[l]);
      }
    }
  }

  template <typename SEL>
  Status RunBin(Level& L, const Instr& in, SEL sel, int n) {
    int64_t* a = L.reg(in.a);
    const int64_t* b = L.reg(in.b);
    const int64_t* c = L.reg(in.c);
    switch (in.op) {
      case OpCode::kAdd:
        BinLoop(a, b, c, sel, n, [](int64_t x, int64_t y) { return x + y; });
        break;
      case OpCode::kSub:
        BinLoop(a, b, c, sel, n, [](int64_t x, int64_t y) { return x - y; });
        break;
      case OpCode::kMul:
        BinLoop(a, b, c, sel, n, [](int64_t x, int64_t y) { return x * y; });
        break;
      case OpCode::kDiv:
        for (int k = 0; k < n; ++k) {
          const int64_t d = c[sel[k]];
          if (d == 0) {
            return Status::Internal("division by zero in pipeline '" + p_.label +
                                    "'");
          }
          a[sel[k]] = b[sel[k]] / d;
        }
        break;
      case OpCode::kShl: {
        const int64_t imm = in.imm;
        BinLoop(a, b, b, sel, n,
                [imm](int64_t x, int64_t) { return x << imm; });
        break;
      }
      case OpCode::kCmpLt:
        BinLoop(a, b, c, sel, n,
                [](int64_t x, int64_t y) { return int64_t{x < y}; });
        break;
      case OpCode::kCmpLe:
        BinLoop(a, b, c, sel, n,
                [](int64_t x, int64_t y) { return int64_t{x <= y}; });
        break;
      case OpCode::kCmpGt:
        BinLoop(a, b, c, sel, n,
                [](int64_t x, int64_t y) { return int64_t{x > y}; });
        break;
      case OpCode::kCmpGe:
        BinLoop(a, b, c, sel, n,
                [](int64_t x, int64_t y) { return int64_t{x >= y}; });
        break;
      case OpCode::kCmpEq:
        BinLoop(a, b, c, sel, n,
                [](int64_t x, int64_t y) { return int64_t{x == y}; });
        break;
      case OpCode::kCmpNe:
        BinLoop(a, b, c, sel, n,
                [](int64_t x, int64_t y) { return int64_t{x != y}; });
        break;
      case OpCode::kAnd:
        BinLoop(a, b, c, sel, n, [](int64_t x, int64_t y) {
          return int64_t{x != 0 && y != 0};
        });
        break;
      case OpCode::kOr:
        BinLoop(a, b, c, sel, n, [](int64_t x, int64_t y) {
          return int64_t{x != 0 || y != 0};
        });
        break;
      default:
        return Status::Internal("non-binary opcode in kBin step");
    }
    return Status::OK();
  }

  /// Match-list expansion: walks each selected lane's whole bucket chain once
  /// (charging exactly the accesses and micro-ops the interpreter's
  /// probe-init / iter-next sequence would), then runs the body over the
  /// expanded lanes — in lane-major order, which is the interpreter's
  /// tuple-major processing order.
  template <typename SEL>
  Status RunLoop(const VecLoop& loop, int depth, SEL sel, int n) {
    Level& P = levels_[depth];
    Level& C = levels_[depth + 1];
    sim::CostStats* stats = ctx_.stats;
    auto* ht = static_cast<JoinHashTable*>(ctx_.ht_slots[loop.probe.c]);
    const int64_t* key = P.reg(loop.probe.b);
    constexpr int kPrefetchDist = 16;

    // Pass 1: hash every selected key into its bucket index (pure compute,
    // one tight loop). Pass 2: resolve bucket heads with software-pipelined
    // prefetching (the lookahead a tuple-at-a-time interpreter can't do),
    // prefetching each head entry for the chain walk of pass 3.
    C.EnsureLanes(std::max<uint64_t>(static_cast<uint64_t>(n), kVecBatchRows),
                  vp_.n_regs);
    if (C.entries_tmp.size() < static_cast<size_t>(n)) C.entries_tmp.resize(n);
    if (C.buckets_tmp.size() < static_cast<size_t>(n)) C.buckets_tmp.resize(n);
    if (C.src_tmp.size() < C.stride) C.src_tmp.resize(C.stride);
    uint64_t* buckets = C.buckets_tmp.data();
    for (int k = 0; k < n; ++k) buckets[k] = ht->BucketOf(key[sel[k]]);
    int64_t* heads = C.entries_tmp.data();
    for (int k = 0; k < kPrefetchDist && k < n; ++k) {
      ht->PrefetchBucketSlot(buckets[k]);
    }
    for (int k = 0; k < n; ++k) {
      if (k + kPrefetchDist < n) ht->PrefetchBucketSlot(buckets[k + kPrefetchDist]);
      heads[k] = ht->HeadOfBucket(buckets[k]);
      ht->PrefetchEntry(heads[k]);
    }

    // Pass 2: walk each chain once, expanding matches straight into the child
    // level's iterator column (lane-major, the interpreter's tuple order).
    int64_t* citer = C.reg(loop.probe.a);
    int32_t* src = C.src_tmp.data();
    uint64_t cap = C.stride;
    uint64_t m = 0;
    uint64_t accesses = 0;
    for (int k = 0; k < n; ++k) {
      const int32_t lane = sel[k];
      const int64_t kv = key[lane];
      uint64_t hops = 0;
      int64_t e = ht->FindKeyFrom(heads[k], kv, &hops);
      accesses += 1 + hops;
      while (e >= 0) {
        if (m == cap) {
          // Rare multi-match overflow: grow the child level, preserving the
          // already-expanded iterator column across the re-stride.
          std::vector<int64_t> stash(citer, citer + m);
          C.EnsureLanes(cap * 2, vp_.n_regs);
          C.src_tmp.resize(C.stride);
          citer = C.reg(loop.probe.a);
          std::copy(stash.begin(), stash.end(), citer);
          src = C.src_tmp.data();
          cap = C.stride;
        }
        citer[m] = e;
        src[m] = lane;
        ++m;
        hops = 0;
        e = ht->FindKeyFrom(ht->NextEntry(e), kv, &hops);
        accesses += hops;
      }
    }
    if (loop.iter_read_after) {
      // The interpreter leaves the iterator register exhausted (-1).
      int64_t* iter = P.reg(loop.probe.a);
      for (int k = 0; k < n; ++k) iter[sel[k]] = -1;
    }
    CountAccess(stats, loop.probe.cls, accesses);
    // Interpreter micro-ops: probe-init once per lane, the loop-header check
    // once per match plus the exiting check, iter-next and the backedge jump
    // once per match: n + (m + n) + m + m.
    stats->ops += 2 * static_cast<uint64_t>(n) + 3 * m;
    if (m == 0) return Status::OK();
    HETEX_CHECK(m < (1ull << 31)) << "probe expansion overflows lane index";

    const int32_t* s = src;
    for (int16_t r : loop.live_in) {
      const int64_t* pr = P.reg(r);
      int64_t* cr = C.reg(r);
      for (uint64_t i = 0; i < m; ++i) cr[i] = pr[s[i]];
    }
    if (loop.needs_rows) {
      if (P.affine_rows) {
        for (uint64_t i = 0; i < m; ++i) {
          C.rows[i] = P.row0 + static_cast<uint64_t>(s[i]) * P.row_step;
        }
      } else {
        for (uint64_t i = 0; i < m; ++i) C.rows[i] = P.rows[s[i]];
      }
    }
    C.n_sel = static_cast<int>(m);
    C.dense = true;
    C.affine_rows = false;
    return RunBlock(loop.body, depth + 1);
  }

  const PipelineProgram& p_;
  const VectorProgram& vp_;
  ExecCtx& ctx_;
  std::vector<Level>& levels_;
};

}  // namespace

VectorizeResult TryVectorize(const PipelineProgram& program) {
  g_attempts.fetch_add(1, std::memory_order_relaxed);
  auto vp = std::make_shared<VectorProgram>();
  vp->n_regs = program.n_regs;

  auto fallback = [&](std::string reason) {
    g_fallbacks.fetch_add(1, std::memory_order_relaxed);
    HETEX_LOG(Warning) << "vectorizer fallback for pipeline '" << program.label
                       << "': " << reason << " (row interpreter tier retained)";
    VectorizeResult r;
    r.reason = std::move(reason);
    return r;
  };

  const int n = static_cast<int>(program.code.size());
  if (n == 0 || program.code.back().op != OpCode::kEnd) {
    return fallback("program not kEnd-terminated");
  }
  // The interpreter interleaves emits per tuple; batch execution runs each
  // emit step over the whole selection. With a single kEmit the per-target
  // append order is identical (ascending lanes / lane-major expansion), but
  // two emit sites would reorder rows across tuples — fall back.
  int n_emits = 0;
  for (const Instr& in : program.code) n_emits += in.op == OpCode::kEmit;
  if (n_emits > 1) {
    return fallback("multiple emit sites (append order would diverge)");
  }
  Parser parser(program, vp.get());
  bool has_load = false;
  if (!parser.ParseBlock(0, n - 1, 0, &vp->top, &has_load)) {
    return fallback(parser.error());
  }

  Analyzer analyzer(vp.get());
  std::array<uint8_t, kMaxRegs> state{};
  std::array<bool, kMaxRegs> writes{};
  std::vector<int16_t> top_live_in;
  if (!analyzer.AnalyzeBlock(vp->top, state, &top_live_in, writes)) {
    return fallback(analyzer.error());
  }
  if (!top_live_in.empty()) {
    // The interpreter carries register values across tuples; batch execution
    // does not, so a top-level read-before-write cannot be reproduced.
    return fallback("register r" + std::to_string(top_live_in.front()) +
                    " read before written");
  }

  g_vectorized.fetch_add(1, std::memory_order_relaxed);
  VectorizeResult r;
  r.program = std::move(vp);
  return r;
}

Status RunRowsVectorized(const PipelineProgram& program, ExecCtx& ctx,
                         uint64_t rows) {
  HETEX_CHECK(program.finalized) << "pipeline '" << program.label
                                 << "' executed before ConvertToMachineCode";
  HETEX_CHECK(program.vec != nullptr)
      << "pipeline '" << program.label << "' has no vectorized lowering";
  const VectorProgram& vp = *program.vec;

  thread_local std::vector<Level> levels;
  if (static_cast<int>(levels.size()) < vp.max_loop_depth + 1) {
    levels.resize(vp.max_loop_depth + 1);
  }

  VecRunner runner(program, vp, ctx, levels);
  sim::CostStats* stats = ctx.stats;
  uint64_t tuples = 0;
  uint64_t row = ctx.row_begin;
  Status st;
  while (row < rows) {
    Level& L0 = levels[0];
    L0.EnsureLanes(kVecBatchRows, vp.n_regs);
    const uint64_t remaining = (rows - row + ctx.row_step - 1) / ctx.row_step;
    const int n = static_cast<int>(
        std::min<uint64_t>(remaining, static_cast<uint64_t>(kVecBatchRows)));
    L0.n_sel = n;
    L0.dense = true;
    L0.affine_rows = true;
    L0.row0 = row;
    L0.row_step = ctx.row_step;
    row += static_cast<uint64_t>(n) * ctx.row_step;
    tuples += static_cast<uint64_t>(n);
    st = runner.RunBlock(vp.top, 0);
    if (!st.ok()) break;
    // Every surviving tuple executes the terminating kEnd.
    stats->ops += static_cast<uint64_t>(levels[0].n_sel);
  }
  stats->tuples += tuples;
  return st;
}

VectorizerCounters GetVectorizerCounters() {
  VectorizerCounters c;
  c.attempts = g_attempts.load(std::memory_order_relaxed);
  c.vectorized = g_vectorized.load(std::memory_order_relaxed);
  c.fallbacks = g_fallbacks.load(std::memory_order_relaxed);
  return c;
}

void ResetVectorizerCounters() {
  g_attempts.store(0, std::memory_order_relaxed);
  g_vectorized.store(0, std::memory_order_relaxed);
  g_fallbacks.store(0, std::memory_order_relaxed);
}

}  // namespace hetex::jit
