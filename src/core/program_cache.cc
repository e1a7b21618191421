#include "core/program_cache.h"

#include "common/hash.h"
#include "jit/codegen.h"

namespace hetex::core {

namespace {

inline uint64_t Mix(uint64_t h, uint64_t v) {
  return HashMix64(h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2)));
}

bool SameInstr(const jit::Instr& a, const jit::Instr& b) {
  return a.op == b.op && a.cls == b.cls && a.a == b.a && a.b == b.b &&
         a.c == b.c && a.d == b.d && a.imm == b.imm;
}

}  // namespace

uint64_t ProgramCache::Signature(const CompiledPipeline& pipeline) {
  const jit::PipelineProgram& p = pipeline.program;
  uint64_t h = 0xc0de;
  for (const jit::Instr& in : p.code) {
    h = Mix(h, static_cast<uint64_t>(in.op) | (static_cast<uint64_t>(in.cls) << 8));
    h = Mix(h, (static_cast<uint64_t>(static_cast<uint16_t>(in.a)) << 48) |
                   (static_cast<uint64_t>(static_cast<uint16_t>(in.b)) << 32) |
                   (static_cast<uint64_t>(static_cast<uint16_t>(in.c)) << 16) |
                   static_cast<uint64_t>(static_cast<uint16_t>(in.d)));
    h = Mix(h, static_cast<uint64_t>(in.imm));
  }
  h = Mix(h, static_cast<uint64_t>(p.n_regs));
  h = Mix(h, static_cast<uint64_t>(p.n_local_accs));
  for (int i = 0; i < p.n_local_accs; ++i) {
    h = Mix(h, static_cast<uint64_t>(p.local_acc_funcs[i]));
  }
  // Binding schema: the input column widths the runtime will bind positionally.
  for (const ColSlot& slot : pipeline.input_cols) {
    h = Mix(h, slot.width);
  }
  // The label is part of the span identity: a shared compiled program would
  // otherwise report another span's name in runtime diagnostics.
  for (const char c : p.label) h = Mix(h, static_cast<uint64_t>(c));
  return h;
}

bool ProgramCache::Matches(const jit::PipelineProgram& compiled,
                           const CompiledPipeline& pipeline) {
  const jit::PipelineProgram& p = pipeline.program;
  if (compiled.label != p.label || compiled.n_regs != p.n_regs ||
      compiled.n_local_accs != p.n_local_accs ||
      compiled.code.size() != p.code.size() ||
      compiled.input_widths.size() != pipeline.input_cols.size()) {
    return false;
  }
  for (int i = 0; i < p.n_local_accs; ++i) {
    if (compiled.local_acc_funcs[i] != p.local_acc_funcs[i]) return false;
  }
  for (size_t i = 0; i < p.code.size(); ++i) {
    if (!SameInstr(compiled.code[i], p.code[i])) return false;
  }
  for (size_t i = 0; i < compiled.input_widths.size(); ++i) {
    if (compiled.input_widths[i] != pipeline.input_cols[i].width) return false;
  }
  return true;
}

Result<std::shared_ptr<const jit::PipelineProgram>> ProgramCache::GetOrCompile(
    jit::DeviceProvider& provider, const CompiledPipeline& pipeline) {
  const int kind = static_cast<int>(provider.type());
  // The tier policy is part of the compiled artifact (it decides which tier
  // ConvertToMachineCode installs), so it is part of the key: a forced-
  // interpreter provider must never be served a vectorized- or native-tier
  // cache hit, and vice versa.
  const int keyed_kind = kind * 4 + static_cast<int>(provider.tier_policy());
  const uint64_t sig = Signature(pipeline);
  const auto key = std::make_pair(keyed_kind, sig);

  std::lock_guard<std::mutex> lock(mu_);
  auto& chain = entries_[key];
  for (const Entry& e : chain) {
    if (Matches(*e, pipeline)) {
      ++counters_[kind].hits;
      return e;
    }
  }

  // Miss: finalize once; every instance of the span shares the result. The
  // binding schema travels with the program so the tier-2 codegen can
  // specialize column loads to the widths the runtime will bind.
  auto compiled = std::make_shared<jit::PipelineProgram>(pipeline.program);
  compiled->input_widths.clear();
  compiled->input_widths.reserve(pipeline.input_cols.size());
  for (const ColSlot& slot : pipeline.input_cols) {
    compiled->input_widths.push_back(slot.width);
  }
  compiled->n_input_cols = static_cast<int>(pipeline.input_cols.size());
  HETEX_RETURN_NOT_OK(provider.ConvertToMachineCode(compiled.get()));
  if (compiled->native != nullptr && compiled->native->ready() &&
      compiled->native->origin == jit::NativeKernel::Origin::kDisk) {
    ++counters_[kind].disk_hits;
  }
  chain.push_back(compiled);
  ++counters_[kind].misses;
  return chain.back();
}

ProgramCache::Counters ProgramCache::counters(sim::DeviceType type) const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_[static_cast<int>(type)];
}

uint64_t ProgramCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& [key, chain] : entries_) n += chain.size();
  return n;
}

void ProgramCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  counters_[0] = Counters{};
  counters_[1] = Counters{};
}

}  // namespace hetex::core
