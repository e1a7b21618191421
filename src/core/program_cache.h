#ifndef HETEX_CORE_PROGRAM_CACHE_H_
#define HETEX_CORE_PROGRAM_CACHE_H_

#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/compiler.h"
#include "jit/device_provider.h"

namespace hetex::core {

/// \brief Per-device cache of finalized (validated + tier-lowered) pipeline
/// programs, keyed by span signature: program code hash + binding schema.
///
/// The N worker instances of a span all request the same program template; the
/// cache finalizes it once per device kind and hands every instance the same
/// immutable compiled program. Because the cache lives on the System (not the
/// per-query QueryCompiler), repeated ExecutePlan runs of the same query also
/// stop re-finalizing identical programs. Hash collisions are harmless: entries
/// under one hash are compared field-by-field before reuse.
class ProgramCache {
 public:
  struct Counters {
    uint64_t hits = 0;      ///< in-process hits: program already finalized here
    uint64_t misses = 0;    ///< one finalization per miss
    uint64_t disk_hits = 0; ///< misses whose tier-2 kernel loaded from the
                            ///< on-disk kernel cache (zero compiler invocations
                            ///< — the observable restart-reuse signal)
  };

  /// Returns the finalized program for `pipeline` on `provider`'s device kind,
  /// finalizing (ConvertToMachineCode) on first use. Thread-safe.
  Result<std::shared_ptr<const jit::PipelineProgram>> GetOrCompile(
      jit::DeviceProvider& provider, const CompiledPipeline& pipeline);

  /// Hit/miss counters of one device kind (the per-device view plan_explorer
  /// and the parity/bench tooling print).
  Counters counters(sim::DeviceType type) const;

  uint64_t size() const;
  void Clear();

 private:
  using Entry = std::shared_ptr<const jit::PipelineProgram>;

  static uint64_t Signature(const CompiledPipeline& pipeline);
  /// Finalization keeps the template's code, label, registers, accumulators
  /// and binding widths, so a compiled program is compared directly.
  static bool Matches(const jit::PipelineProgram& compiled,
                      const CompiledPipeline& pipeline);

  mutable std::mutex mu_;
  // (device kind + tier policy, signature) -> compiled programs (same-hash
  // chain).
  std::map<std::pair<int, uint64_t>, std::vector<Entry>> entries_;
  Counters counters_[2];  // indexed by sim::DeviceType
};

}  // namespace hetex::core

#endif  // HETEX_CORE_PROGRAM_CACHE_H_
