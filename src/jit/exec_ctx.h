#ifndef HETEX_JIT_EXEC_CTX_H_
#define HETEX_JIT_EXEC_CTX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/int_width.h"
#include "common/logging.h"
#include "sim/cost_model.h"

namespace hetex::jit {

/// Binding of one input column for the current block: its data, and the code
/// its values are stored in (IntCode: width in bytes, 1, 2, 4 or 8, and
/// base). A load sign-extends the stored value into a 64-bit VM register and
/// adds the base back.
struct ColumnBinding {
  const std::byte* data = nullptr;
  uint32_t width = 8;
  int64_t base = 0;

  int64_t Load(uint64_t row) const {
    return LoadInt(data + row * width, IntCode{width, base});
  }
};

/// \brief Columnar output destination of a pipeline's Emit instruction.
///
/// The pack operator installs a fresh block set here; `on_full` (CPU mode) flushes
/// the filled block downstream and installs the next one. GPU kernels append with
/// an atomic cursor into pre-sized output (sized by the launching driver), and the
/// filled block is forwarded after the kernel completes.
///
/// The cursor is split by append mode: the single-threaded CPU path uses a plain
/// cursor (no atomic load+store per row), the GPU path keeps the device-atomic
/// cursor. The vectorized tier appends whole selection batches via AppendBatch,
/// which additionally hoists the capacity check out of the per-row flow.
class EmitTarget {
 public:
  /// One output column: its block and the code it is packed in (each value
  /// v stored as v − base at `width` bytes).
  struct Col {
    std::byte* data = nullptr;
    uint32_t width = 8;
    int64_t base = 0;
  };

  std::vector<Col> cols;
  uint64_t capacity = 0;
  bool atomic_append = false;
  std::function<void()> on_full;  ///< must make room and reset the cursor

  void Append(const int64_t* vals, int n, sim::CostStats* stats) {
    uint64_t idx;
    if (atomic_append) {
      idx = cursor_.fetch_add(1, std::memory_order_relaxed);
      HETEX_CHECK(idx < capacity)
          << "GPU emit overflow: output block undersized (" << capacity << ")";
    } else {
      if (plain_cursor_ == capacity) {
        on_full();
        HETEX_CHECK(plain_cursor_ < capacity)
            << "EmitTarget::on_full did not make room";
      }
      idx = plain_cursor_++;
    }
    uint64_t bytes = 0;
    for (int i = 0; i < n; ++i) {
      Col& c = cols[i];
      StoreInt(c.data + idx * c.width, IntCode{c.width, c.base}, vals[i]);
      bytes += c.width;
    }
    stats->bytes_written += bytes;
  }

  /// \brief Batch append of the vectorized tier: `n` rows gathered from
  /// lane-major register arrays (`vals[c]` holds output column c) through the
  /// selection vector `sel` (null = the identity selection, lanes [0, n)).
  ///
  /// Produces byte-identical output and identical `CostStats` to `n` Append
  /// calls in `sel` order — including the `on_full` flush boundaries — but pays
  /// the capacity check once per filled chunk instead of once per row.
  void AppendBatch(const int64_t* const* vals, int n_vals, const int32_t* sel,
                   uint64_t n, sim::CostStats* stats) {
    uint64_t row_bytes = 0;
    for (int c = 0; c < n_vals; ++c) row_bytes += cols[c].width;
    uint64_t done = 0;
    while (done < n) {
      uint64_t idx, take;
      if (atomic_append) {
        take = n - done;
        idx = cursor_.fetch_add(take, std::memory_order_relaxed);
        HETEX_CHECK(idx + take <= capacity)
            << "GPU emit overflow: output block undersized (" << capacity << ")";
      } else {
        if (plain_cursor_ == capacity) {
          on_full();
          HETEX_CHECK(plain_cursor_ < capacity)
              << "EmitTarget::on_full did not make room";
        }
        take = n - done;
        if (take > capacity - plain_cursor_) take = capacity - plain_cursor_;
        idx = plain_cursor_;
        plain_cursor_ += take;
      }
      // `cols` is re-read each chunk: on_full may install a fresh block set.
      for (int c = 0; c < n_vals; ++c) {
        const int64_t* src = vals[c];
        Col& col = cols[c];
        // The width branch, hoisted out of the row loop: an encoding,
        // narrowing copy.
        const int64_t base = col.base;
        DispatchIntWidth(col.width, [&](auto w) {
          std::byte* dst = col.data + idx * w();
          if (sel == nullptr) {
            for (uint64_t r = 0; r < take; ++r) {
              StoreIntAs<w()>(dst + r * w(), EncodeInt(src[done + r], base));
            }
          } else {
            for (uint64_t r = 0; r < take; ++r) {
              StoreIntAs<w()>(dst + r * w(), EncodeInt(src[sel[done + r]], base));
            }
          }
        });
      }
      stats->bytes_written += row_bytes * take;
      done += take;
    }
  }

  uint64_t rows() const {
    return atomic_append ? cursor_.load(std::memory_order_relaxed)
                         : plain_cursor_;
  }
  void ResetCursor() {
    cursor_.store(0, std::memory_order_relaxed);
    plain_cursor_ = 0;
  }

 private:
  std::atomic<uint64_t> cursor_{0};
  uint64_t plain_cursor_ = 0;
};

/// \brief Per-execution context handed to the interpreter.
///
/// On the CPU a pipeline instance owns one ExecCtx and iterates rows [0, rows)
/// with step 1; on the GPU each logical kernel thread gets its own ExecCtx with a
/// grid-stride (row_begin = threadId, row_step = gridSize) — the values
/// `threadIdInWorker` / `#threadsInWorker` resolve to per the paper's providers.
struct ExecCtx {
  int64_t regs[64] = {};
  const ColumnBinding* cols = nullptr;
  int n_cols = 0;
  EmitTarget* emit = nullptr;          ///< single-target emit (bucket 0)
  EmitTarget** emit_targets = nullptr; ///< hash-pack buckets (tagged emits)
  int n_emit_targets = 0;
  int64_t* local_accs = nullptr;   ///< accumulator area (instance- or thread-local)
  void** ht_slots = nullptr;       ///< JoinHashTable* / AggHashTable* per slot
  sim::CostStats* stats = nullptr;
  uint64_t row_begin = 0;
  uint64_t row_step = 1;
  bool atomic_group_update = false;  ///< GPU: agg-HT folds must be atomic
  /// Join-HT inserts pay the bucket-head CAS: GPU kernels, and CPU workers
  /// inserting into a replica other instances write too.
  bool atomic_ht_insert = false;
};

}  // namespace hetex::jit

#endif  // HETEX_JIT_EXEC_CTX_H_
