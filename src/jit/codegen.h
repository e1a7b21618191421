#ifndef HETEX_JIT_CODEGEN_H_
#define HETEX_JIT_CODEGEN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "jit/exec_ctx.h"
#include "jit/program.h"

namespace hetex::jit {

/// \brief Tier-2 codegen backend: translates a validated PipelineProgram into a
/// self-contained C++ translation unit, specialized to the span:
///
///  - column loads are typed to the binding schema's widths (no per-row width
///    branch),
///  - constants propagate through the straight-line code, so filters against
///    literals compile to immediate compares and constant-true/false filters
///    disappear (their cost accounting does not — all tiers charge identical
///    CostStats),
///  - the canonical probe-loop idiom is unrolled into an inline bucket-chain
///    walk over the hash table's raw arrays (no per-entry virtual dispatch),
///  - pipeline breakers that need engine state (emit, HT insert, group-by
///    update) go through a small C hook table the host passes in.
///
/// The kernel cache (jit/kernel_cache.h) compiles the unit out of process,
/// dlopens the object and persists the .cc/.so pair on disk.

/// ABI version stamped into every generated TU (exported as `hx_abi_version`)
/// and into the kernel cache's .meta sidecars. Objects built against another
/// version are never loaded — they recompile instead.
/// v2: hook table grew kHookEmitBatch (batched emit for single-emit shapes).
/// v3: `atomic_mode` is a bit set (kAtomicGroupBy | kAtomicHtInsert).
inline constexpr uint32_t kCodegenAbiVersion = 3;

/// Bits of a kernel's `atomic_mode` argument: which worker-scoped atomics the
/// launching provider pays for (ExecCtx::atomic_group_update / atomic_ht_insert).
enum : int {
  kAtomicGroupBy = 1,   ///< group-by folds are device atomics (GPU)
  kAtomicHtInsert = 2,  ///< join-HT inserts CAS a shared bucket head
};

/// Indices into the flat `stats` counter array a generated kernel accumulates
/// into. Flat arrays (not structs) keep the generated code free of any layout
/// coupling with engine headers; codegen emits these indices as literals.
enum : int {
  kStatTuples = 0,
  kStatOps,
  kStatBytesRead,
  kStatBytesWritten,
  kStatAtomics,
  kStatNear,
  kStatMid,
  kStatFar,
  kStatCount,
};

/// Indices into the hook (C function pointer) table.
enum : int {
  kHookEmit = 0,     ///< void(void* EmitTarget, const int64_t* vals, int n, uint64_t* bytes_written)
  kHookHtInsert,     ///< void(void* JoinHashTable, int64_t key, const int64_t* payload)
  kHookGroupBy,      ///< void(void* AggHashTable, int64_t key, const int64_t* vals, int atomic, uint64_t* probes)
  kHookEmitBatch,    ///< void(void* EmitTarget, const int64_t* const* vals (column-major), int n_vals, uint64_t n, uint64_t* bytes_written)
  kHookCount,
};

extern "C" {
/// Entry point of a generated kernel (`hx_kernel` in the shared object).
/// Everything crosses as flat arrays/scalars so the generated source never
/// includes an engine header. Returns 0 on success, 1 on division by zero
/// (partial counters are already written back).
typedef int (*NativeKernelFn)(
    const void* const* cols,           // input column base pointers
    void* emit0,                       // EmitTarget* (nullable)
    void* const* emit_targets,         // hash-pack bucket targets (nullable)
    int64_t n_emit_targets,
    int64_t* local_accs,               // instance/thread-local accumulators
    const int64_t* const* ht_heads,    // per HT slot: bucket-head array (join slots)
    const int64_t* const* ht_entries,  // per HT slot: entry storage
    const uint64_t* ht_masks,          // per HT slot: bucket mask
    const uint64_t* ht_strides,        // per HT slot: int64 slots per entry
    void* const* ht_objs,              // raw ht_slots, for insert/group-by hooks
    uint64_t* stats,                   // kStat* counters (accumulated into)
    uint64_t row_begin, uint64_t row_step, uint64_t rows,
    int atomic_mode,                   // kAtomic* bits
    const void* const* hooks);         // kHook* function table
}

/// \brief A dlopen-ed (or still-compiling) tier-2 kernel.
///
/// Shared between the kernel cache and every finalized program that keys to the
/// same signature. Compilation may run on a background thread: the program
/// serves its fallback tier until `state` publishes kReady (release), at which
/// point Run() hot-swaps to `fn` (acquire) — the tier-up never blocks a query.
struct NativeKernel {
  enum State : int { kPending = 0, kReady = 1, kFailed = 2 };
  enum class Origin : uint8_t { kNone, kCompiled, kDisk };

  ~NativeKernel();  // dlcloses the handle

  bool ready() const { return state.load(std::memory_order_acquire) == kReady; }
  bool failed() const { return state.load(std::memory_order_acquire) == kFailed; }

  std::atomic<int> state{kPending};
  NativeKernelFn fn = nullptr;
  void* dl_handle = nullptr;
  Origin origin = Origin::kNone;
  uint64_t signature = 0;       ///< content hash of the generated source
  std::string label;            ///< pipeline label (diagnostics)
  std::string error;            ///< compile/load failure detail (state == kFailed)
  uint32_t join_slot_mask = 0;  ///< HT slots probed inline (RunNative marshaling)
};

/// Result of a codegen attempt: either the full translation unit, or the named
/// reason the program shape could not be proven compilable (fallback is never
/// silent — the caller logs it and GetCodegenCounters records it).
struct GenerateResult {
  std::string source;           ///< empty on fallback
  std::string reason;           ///< fallback reason when source is empty
  uint64_t signature = 0;       ///< content hash of `source` (cache key)
  uint32_t join_slot_mask = 0;  ///< HT slots the kernel probes inline
};

/// Attempts to translate a validated program into a self-contained C++ TU.
/// Requires `program.input_widths` to cover `n_input_cols` (the binding schema
/// is what the loads specialize to); programs without it fall back.
GenerateResult GenerateSource(const PipelineProgram& program);

/// Executes one block through the program's ready native kernel. Produces
/// identical results and identical CostStats to RunRows()/RunRowsVectorized()
/// on the same program; returns a runtime error (e.g. division by zero)
/// instead of invoking UB. The caller must have checked native->ready().
Status RunNative(const PipelineProgram& program, ExecCtx& ctx, uint64_t rows);

/// Process-wide tier-2 telemetry (Reset is for tests). Compiler invocations and
/// disk traffic live here too so a warm-cache run is provably compile-free.
struct CodegenCounters {
  uint64_t attempts = 0;             ///< GenerateSource calls
  uint64_t generated = 0;            ///< sources successfully generated
  uint64_t fallbacks = 0;            ///< named codegen fallbacks (incl. compile failures)
  uint64_t compiler_invocations = 0; ///< out-of-process compiler runs
  uint64_t compile_failures = 0;     ///< compiler or dlopen failures
  uint64_t disk_hits = 0;            ///< kernels loaded from the on-disk cache
  uint64_t rejected_objects = 0;     ///< stale/corrupt objects refused by hash check
  uint64_t native_invocations = 0;   ///< blocks (CPU) / logical threads (GPU) run natively
};
CodegenCounters GetCodegenCounters();
void ResetCodegenCounters();

namespace internal {
/// Counter mutation hooks for the kernel cache (same process-wide registry).
void CountCompilerInvocation();
void CountCompileFailure();
void CountDiskHit();
void CountRejectedObject();
void CountCodegenFallback();
}  // namespace internal

/// \brief Tier-2 configuration, resolved once per System.
///
/// Env knobs:
///  - HETEX_KERNEL_DIR: persistent kernel directory; setting it enables tier 2.
///  - HETEX_COMPILER_CMD: out-of-process compiler command prefix (appended with
///    `<src.cc> -o <out.so>`). A nonexistent command degrades to the
///    vectorizer with a counted reason — never an error.
///  - HETEX_TIER2: "0" force-disables tier 2, any other value force-enables it
///    (with a default kernel dir when HETEX_KERNEL_DIR is unset).
///  - HETEX_KERNEL_DIR_MAX_MB: size cap on the kernel directory in MiB; after
///    every compile the cache evicts whole kernel triples, oldest build first,
///    until the directory fits. Unset or 0 = unbounded.
struct CodegenOptions {
  bool enabled = false;
  bool async = true;           ///< compile on the background pool (tests pin sync)
  int compile_threads = 2;
  std::string kernel_dir;      ///< empty = <tmp>/hetex-kernels
  std::string compiler_cmd;    ///< empty = "c++ -O3 -march=native -fPIC -shared"
  uint64_t max_dir_bytes = 0;  ///< kernel-dir size cap; 0 = unbounded

  static CodegenOptions FromEnv();
};

}  // namespace hetex::jit

#endif  // HETEX_JIT_CODEGEN_H_
