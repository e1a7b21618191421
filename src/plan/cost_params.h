#ifndef HETEX_PLAN_COST_PARAMS_H_
#define HETEX_PLAN_COST_PARAMS_H_

namespace hetex::plan {

/// \brief Single source of truth for the control-plane cost constants of the
/// HetExchange operators.
///
/// Three consumers read these numbers and must agree on them:
///   1. `sim::CostModel` seeds its runtime-simulation defaults from this struct
///      (`CostModel::Paper()` and the in-class member initializers),
///   2. `BuildHetPlan` stamps them onto plan nodes (via the topology's cost
///      model, so benchmark-scaled models — `ScaleFixedLatencies` — stay
///      consistent), and
///   3. `PlanCoster` prices candidate plans with the same stamps.
/// Editing a value here therefore changes the planner's estimates and the
/// runtime simulation together; they can never drift apart silently.
///
/// This header is dependency-free on purpose: it is included from both the
/// `sim` and `plan` layers.
struct CostParams {
  /// Router instantiation + thread pinning (the paper measures ~10 ms, §6.4):
  /// the System's worker-pool bring-up, paid once per System over the first
  /// router_init_latency of its virtual timeline (core::System::bring_up). A
  /// query's own set-up is task_spawn_latency, stamped on its routers.
  double router_init_latency = 1e-2;
  /// Per-message routing decision (control plane only, §3.1).
  double router_control_cost = 100e-9;
  /// Per-block segmentation cost (control plane only).
  double segmenter_block_cost = 20e-9;
  /// Spawning a host task (the gpu2cpu crossing, §3.2), and waking the
  /// System's parked workers at a query's start (the routers' init stamp).
  double task_spawn_latency = 2e-6;
  /// Fixed per-transfer DMA setup cost on a PCIe link.
  double dma_latency = 1e-5;
  /// Fixed per-transfer setup cost on an NVLink-class GPU peer link. Peer DMA
  /// skips the host round-trip, so setup is cheaper than a PCIe transfer.
  double peer_dma_latency = 5e-6;
  /// Fixed per-hop cost of a cross-socket (UPI/QPI-class) cache-line transfer
  /// batch; charged once per delivered block that crosses sockets.
  double inter_socket_latency = 5e-7;
  /// Fixed cost of launching one GPU kernel.
  double kernel_launch_latency = 8e-6;
};

}  // namespace hetex::plan

#endif  // HETEX_PLAN_COST_PARAMS_H_
