#include "core/system.h"

namespace hetex::core {

System::System() : System(Options{}) {}

System::System(Options options)
    : topology_(options.topology),
      fault_(options.faults),
      memory_(topology_),
      blocks_(topology_, options.blocks),
      dma_(&topology_),
      reuse_(options.reuse),
      tier_policy_(options.tier_policy) {
  blocks_.set_fault_injector(&fault_);
  if (reuse_.result_cache) {
    result_cache_ = std::make_unique<ResultCache>(reuse_.result_cache_bytes);
  }
  for (int g = 0; g < topology_.num_gpus(); ++g) {
    gpus_.push_back(
        std::make_unique<sim::GpuDevice>(topology_.gpu(g), &topology_.cost_model()));
  }
  if (options.codegen.enabled) {
    kernel_cache_ = std::make_unique<jit::KernelCache>(options.codegen);
    kernel_cache_->set_fault_injector(&fault_);
  }
}

std::unique_ptr<jit::DeviceProvider> System::MakeProvider(sim::DeviceId device) {
  std::unique_ptr<jit::DeviceProvider> provider;
  if (device.is_cpu()) {
    provider = std::make_unique<jit::CpuProvider>(device.index, &topology_,
                                                  &memory_, &blocks_);
  } else {
    provider = std::make_unique<jit::GpuProvider>(gpus_.at(device.index).get(),
                                                  &topology_, &memory_, &blocks_);
  }
  provider->set_tier_policy(tier_policy_);
  provider->set_kernel_cache(kernel_cache_.get());
  provider->set_fault_injector(&fault_);
  return provider;
}

std::vector<int> System::AvailableGpusAt(sim::VTime t,
                                         const std::vector<int>& exclude) const {
  std::vector<int> out;
  for (int g = 0; g < topology_.num_gpus(); ++g) {
    bool excluded = false;
    for (int e : exclude) excluded = excluded || e == g;
    if (!excluded && fault_.GpuAvailableAt(g, t)) out.push_back(g);
  }
  return out;
}

std::vector<sim::MemNodeId> System::HostNodes() const {
  std::vector<sim::MemNodeId> nodes;
  for (int s = 0; s < topology_.num_sockets(); ++s) {
    nodes.push_back(topology_.socket(s).mem);
  }
  return nodes;
}

std::vector<sim::MemNodeId> System::GpuNodes() const {
  std::vector<sim::MemNodeId> nodes;
  for (int g = 0; g < topology_.num_gpus(); ++g) {
    nodes.push_back(topology_.gpu(g).mem);
  }
  return nodes;
}

}  // namespace hetex::core
