#include "plan/enumerator.h"

#include <set>
#include <sstream>

namespace hetex::plan {

namespace {

const char* ModeTag(ExecPolicy::Mode mode) {
  switch (mode) {
    case ExecPolicy::Mode::kCpuOnly: return "cpu";
    case ExecPolicy::Mode::kGpuOnly: return "gpu";
    case ExecPolicy::Mode::kHybrid: return "het";
  }
  return "?";
}

std::string Label(const ExecPolicy& p) {
  std::ostringstream os;
  os << ModeTag(p.mode) << "/fused/" << (p.load_balance ? "lb" : "rr") << "/b"
     << p.block_rows;
  if (p.mode != ExecPolicy::Mode::kGpuOnly && p.cpu_workers > 0) {
    os << "/w" << p.cpu_workers;
  }
  if (p.mode != ExecPolicy::Mode::kCpuOnly && !p.gpus.empty()) {
    os << "/g";
    for (size_t i = 0; i < p.gpus.size(); ++i) {
      os << (i > 0 ? "+" : "") << p.gpus[i];
    }
  }
  return os.str();
}

}  // namespace

std::vector<PlanCandidate> EnumeratePlans(const QuerySpec& spec,
                                          const ExecPolicy& base,
                                          const sim::Topology& topo,
                                          const std::vector<int>* available_gpus) {
  std::vector<PlanCandidate> out;
  std::set<std::string> seen;

  auto add = [&](ExecPolicy policy) {
    if (available_gpus != nullptr &&
        policy.mode != ExecPolicy::Mode::kCpuOnly && policy.gpus.empty()) {
      // "All GPUs" means "all *surviving* GPUs" under a restricted device set.
      policy.gpus = *available_gpus;
    }
    PlanCandidate cand;
    cand.label = Label(policy);
    if (!seen.insert(cand.label).second) return;  // deduplicated variant
    cand.policy = policy;
    cand.plan = BuildHetPlan(spec, policy, topo);
    // Every candidate must be a plan the lowering accepts; the heuristic
    // builder guarantees this, but keep the contract enforced.
    if (!ValidateHetPlan(cand.plan).ok()) return;
    out.push_back(std::move(cand));
  };

  if (!base.use_hetexchange) {
    // Bare single-unit plan: no exchanges, nothing to search.
    add(base);
    return out;
  }

  // Placement mixes within the base policy's constraints.
  std::vector<ExecPolicy::Mode> mixes;
  const bool gpus_available =
      topo.num_gpus() > 0 &&
      (available_gpus == nullptr || !available_gpus->empty());
  switch (base.mode) {
    case ExecPolicy::Mode::kCpuOnly:
      mixes = {ExecPolicy::Mode::kCpuOnly};
      break;
    case ExecPolicy::Mode::kGpuOnly:
      // A GPU-pinned base with no surviving device yields no candidates — the
      // optimizer reports the empty space instead of planning onto a lost GPU.
      if (gpus_available) mixes = {ExecPolicy::Mode::kGpuOnly};
      break;
    case ExecPolicy::Mode::kHybrid:
      mixes = {ExecPolicy::Mode::kCpuOnly};
      if (gpus_available) {
        mixes.push_back(ExecPolicy::Mode::kGpuOnly);
        mixes.push_back(ExecPolicy::Mode::kHybrid);
      }
      break;
  }

  const int base_workers =
      base.cpu_workers < 0 ? topo.num_cores() : base.cpu_workers;

  // GPU pool the placement search may pin builds to: the base policy's
  // explicit set, else the surviving set, else every GPU in the fabric. Empty
  // on a no-GPU topology — no GPU-placed candidate is ever emitted then.
  std::vector<int> gpu_pool;
  if (!base.gpus.empty()) {
    gpu_pool = base.gpus;
  } else if (available_gpus != nullptr) {
    gpu_pool = *available_gpus;
  } else {
    for (int g = 0; g < topo.num_gpus(); ++g) gpu_pool.push_back(g);
  }

  for (ExecPolicy::Mode mix : mixes) {
    ExecPolicy p = base;
    p.mode = mix;
    if (mix != ExecPolicy::Mode::kGpuOnly) p.cpu_workers = base_workers;

    // Router policy.
    for (bool lb : {true, false}) {
      ExecPolicy v = p;
      v.load_balance = lb;
      add(v);
    }

    // Segmentation granularity: a 4× coarser variant (fewer, larger blocks
    // trade control-plane cost against distribution slack).
    {
      ExecPolicy v = p;
      v.load_balance = true;
      v.block_rows = base.block_rows * 4;
      add(v);
    }

    // CPU degree of parallelism: half the workers (contended sockets can
    // prefer fewer streams; the Fig. 6/7 saturation regime).
    if (mix != ExecPolicy::Mode::kGpuOnly && base_workers > 1) {
      ExecPolicy v = p;
      v.load_balance = true;
      v.cpu_workers = base_workers / 2;
      add(v);
    }

    // Per-join build placement across the fabric: pin the GPU side to each
    // single GPU in the pool. The coster prices the resulting per-link (PCIe
    // or NVLink peer) traffic asymmetrically, so on a backlogged fabric one
    // build GPU can beat the symmetric spread.
    if (mix != ExecPolicy::Mode::kCpuOnly && gpu_pool.size() > 1) {
      for (int g : gpu_pool) {
        ExecPolicy v = p;
        v.load_balance = true;
        v.gpus = {g};
        add(v);
      }
    }
  }
  return out;
}

}  // namespace hetex::plan
