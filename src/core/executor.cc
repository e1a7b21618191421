#include "core/executor.h"

#include <algorithm>

#include "common/timer.h"
#include "core/compiler.h"
#include "core/graph_builder.h"
#include "core/scheduler.h"

namespace hetex::core {

QueryExecutor::QueryExecutor(System* system) : system_(system) {}

QueryExecutor::~QueryExecutor() = default;

QueryResult QueryExecutor::Execute(const plan::QuerySpec& spec) {
  return ExecuteOptimized(spec, plan::ExecPolicy{});
}

QueryResult QueryExecutor::Execute(const plan::QuerySpec& spec,
                                   const plan::ExecPolicy& policy) {
  // A GPU-placed policy on a no-GPU topology is a named user error, not a
  // lowering abort: surface it on the result before BuildHetPlan would trip
  // its layout invariants.
  if (Status st = plan::ValidatePolicyForTopology(policy, system_->topology());
      !st.ok()) {
    QueryResult out;
    out.status = std::move(st);
    return out;
  }
  return ExecutePlan(spec,
                     plan::BuildHetPlan(spec, policy, system_->topology()));
}

Status QueryExecutor::Optimize(const plan::QuerySpec& spec,
                               const plan::ExecPolicy& base,
                               plan::OptimizeResult* out) const {
  // An idle arrival: every link's backlog beyond the horizon is zero.
  return OptimizeAt(spec, base, system_->VirtualHorizon(), out);
}

Status QueryExecutor::OptimizeAt(const plan::QuerySpec& spec,
                                 const plan::ExecPolicy& base, sim::VTime epoch,
                                 plan::OptimizeResult* out,
                                 const std::vector<int>* exclude_gpus) const {
  plan::PlanCoster::Options opts;
  opts.pack_block_rows = system_->blocks().options().block_bytes / 8;
  // Device health: only restrict the candidate space when the fault plane can
  // actually change it — with the injector disabled and no exclusions the
  // optimization is byte-identical to the pre-fault-plane path.
  if (system_->fault().enabled() ||
      (exclude_gpus != nullptr && !exclude_gpus->empty())) {
    opts.available_gpus = system_->AvailableGpusAt(
        epoch, exclude_gpus != nullptr ? *exclude_gpus : std::vector<int>{});
  }
  // Load signal: work already queued on each interconnect link — PCIe, GPU
  // peer and inter-socket — past this session's arrival. In-flight queries'
  // transfers serialize ahead of ours, so the coster charges them as a start
  // offset on the link occupancy bound — for DMA mem-moves and UVA kernel
  // streams alike.
  const sim::Topology& topo = system_->topology();
  opts.link_backlog.resize(topo.num_links());
  for (int l = 0; l < topo.num_links(); ++l) {
    opts.link_backlog[l] = std::max(0.0, topo.link(l).free_at() - epoch);
  }
  // CPU load signal: workers whose execution-phase intervals overlap this
  // session's epoch on each socket's DRAM timeline. The runtime divides every
  // socket's aggregate across intervals overlapping in virtual time, so
  // candidates leaning on a crowded socket cost more.
  opts.socket_backlog_workers.resize(topo.num_sockets());
  for (int s = 0; s < topo.num_sockets(); ++s) {
    opts.socket_backlog_workers[s] = topo.socket_dram(s).workers_overlapping(epoch);
  }
  return plan::Optimize(spec, base, system_->catalog(), system_->topology(),
                        out, opts);
}

QueryResult QueryExecutor::ExecuteOptimized(const plan::QuerySpec& spec,
                                            const plan::ExecPolicy& base,
                                            plan::OptimizeResult* explain) {
  plan::OptimizeResult local;
  plan::OptimizeResult* result = explain != nullptr ? explain : &local;
  QueryResult out;
  out.status = Optimize(spec, base, result);
  if (!out.status.ok()) return out;
  return ExecutePlan(spec, result->best().plan);
}

std::string QueryExecutor::Explain(const plan::QuerySpec& spec,
                                   const plan::ExecPolicy& base) const {
  plan::OptimizeResult result;
  const Status st = Optimize(spec, base, &result);
  if (!st.ok()) return st.ToString() + "\n";
  return result.ToString();
}

QueryResult QueryExecutor::ExecutePlan(const plan::QuerySpec& spec,
                                       const plan::HetPlan& plan) {
  // Solo session: a fresh id and an epoch past every shared-resource backlog,
  // so the query sees an idle server (the session-scoped equivalent of the old
  // rewind-all-clocks reset — but safe with other queries in flight).
  const QuerySession session{system_->NextQueryId(), system_->VirtualHorizon()};
  return ExecutePlan(spec, plan, session);
}

QueryResult QueryExecutor::ExecutePlan(const plan::QuerySpec& spec,
                                       const plan::HetPlan& plan,
                                       const QuerySession& session) {
  Timer timer;
  QueryResult result;
  result.query_id = session.query_id;

  // Every plan — heuristic or hand-mutated — passes the §3.3 converter rules
  // before it is allowed to touch the runtime.
  result.status = plan::ValidateHetPlan(plan);
  if (!result.status.ok()) return result;

  GraphBuilder builder(system_, &plan, &session);
  result.status = builder.Analyze();
  if (!result.status.ok()) return result;

  QueryCompiler compiler(spec, system_->catalog(), system_->cost_model());
  result.status = builder.Run(&compiler, &result);
  result.wall_seconds = timer.ElapsedSeconds();

  system_->blocks().FlushReleases();
  return result;
}

QueryScheduler& QueryExecutor::scheduler() {
  std::lock_guard<std::mutex> lock(scheduler_mu_);
  if (scheduler_ == nullptr) {
    scheduler_ = std::make_unique<QueryScheduler>(system_);
  }
  return *scheduler_;
}

QueryHandle QueryExecutor::Submit(const plan::QuerySpec& spec) {
  return scheduler().Submit(spec);
}

QueryHandle QueryExecutor::Submit(const plan::QuerySpec& spec,
                                  const plan::ExecPolicy& policy) {
  SubmitOptions opts;
  opts.policy = policy;
  return scheduler().Submit(spec, std::move(opts));
}

QueryResult QueryExecutor::Wait(QueryHandle handle) {
  return scheduler().Wait(handle);
}

Status QueryExecutor::Cancel(QueryHandle handle) {
  return scheduler().Cancel(handle);
}

}  // namespace hetex::core
