#include "core/runtime.h"

#include <algorithm>

#include "common/logging.h"

namespace hetex::core {

WorkerInstance::WorkerInstance(int id, sim::DeviceId device, System* system,
                               size_t channel_capacity, sim::VTime epoch,
                               uint64_t query_id, const QueryControl* control)
    : id_(id),
      device_(device),
      system_(system),
      control_(control),
      provider_(system->MakeProvider(device)),
      channel_(channel_capacity) {
  provider_->set_session_epoch(epoch);
  provider_->set_session_id(query_id);
  if (control != nullptr) provider_->set_stop_flag(&control->stopped);
}

Edge::Edge(System* system, Options options, std::vector<WorkerInstance*> consumers)
    : system_(system), options_(options), consumers_(std::move(consumers)) {
  HETEX_CHECK(!consumers_.empty()) << "edge with no consumers";
  std::map<sim::DeviceId, size_t> group_of;  // unit -> broadcast group
  for (size_t i = 0; i < consumers_.size(); ++i) {
    if (!options_.unit_broadcast) {
      broadcast_groups_.push_back({static_cast<int>(i)});
      continue;
    }
    auto [it, fresh] =
        group_of.emplace(consumers_[i]->device(), broadcast_groups_.size());
    if (fresh) broadcast_groups_.emplace_back();
    broadcast_groups_[it->second].push_back(static_cast<int>(i));
  }
}

void Edge::CloseProducer() {
  if (producers_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    for (WorkerInstance* c : consumers_) c->channel().Close();
  }
}

namespace {

/// Does `dev` need a mem-move to consume a block on `node`? (kRemotePcie counts:
/// the whole point of mem-move is avoiding PCIe-latency element accesses.)
bool NeedsMove(const sim::Topology& topo, sim::DeviceId dev, sim::MemNodeId node) {
  return topo.CanAccess(dev, node) != sim::MemAccess::kLocal;
}

bool MsgNeedsMove(const sim::Topology& topo, sim::DeviceId dev, const DataMsg& msg) {
  for (const auto& h : msg.cols) {
    if (NeedsMove(topo, dev, h.node())) return true;
  }
  return false;
}

void AddRefMsgBlocks(DataMsg& msg) {
  for (auto& h : msg.cols) {
    if (h.block->owner != nullptr) memory::BlockManager::AddRef(h.block);
  }
}

}  // namespace

void ReleaseMsgBlocks(System* system, DataMsg& msg, sim::MemNodeId holder_node) {
  for (auto& h : msg.cols) {
    if (h.block != nullptr && h.block->owner != nullptr) {
      system->blocks().Release(h.block, holder_node);
    }
  }
  msg.cols.clear();
}

DataMsg Edge::MoveToNode(DataMsg msg, sim::MemNodeId target_node,
                         sim::MemNodeId producer_node) {
  const sim::Topology& topo = system_->topology();
  DataMsg out;
  out.rows = msg.rows;
  out.ready_at = msg.ready_at;
  out.tag = msg.tag;

  // First mem-move failure (staging acquisition, injected DMA fault,
  // cancellation). Once set, remaining columns are skipped and the whole
  // message degrades to an error marker on the failure path below.
  Status fail = Status::OK();

  for (auto& h : msg.cols) {
    if (h.node() == target_node) {
      // Already local: forward the handle, no transfer (paper §3.2).
      if (h.block->owner != nullptr) memory::BlockManager::AddRef(h.block);
      out.cols.push_back(h);
      continue;
    }
    HETEX_CHECK(topo.mem_node(h.node()).is_gpu ||
                topo.mem_node(target_node).is_gpu)
        << "host-to-host moves need no mem-move on this server";

    // One DMA per hop of the route, each landing in a fresh block on the
    // hop's node and starting when the previous hop completed. The second hop
    // of a staged GPU->GPU route reads the first hop's staging block, which is
    // free again once that copy returned.
    memory::BlockHandle moved = h;
    moved.ready_at = msg.ready_at;
    memory::Block* staged = nullptr;  // the previous hop's landing block
    for (const sim::Topology::Hop& hop : topo.Route(h.node(), target_node)) {
      Status acquire_error = Status::OK();
      memory::Block* dst = system_->blocks().Acquire(
          hop.to, producer_node, &acquire_error,
          options_.control != nullptr ? &options_.control->stopped : nullptr);
      if (dst == nullptr) {
        fail = std::move(acquire_error);
      } else if (sim::FaultInjector& inj = system_->fault(); inj.enabled()) {
        // Fault check precedes the DMA reservation: a failed transfer strands
        // nothing on the shared link timeline.
        fail = inj.OnDmaTransfer(hop.link);
        if (!fail.ok()) system_->blocks().Release(dst, producer_node);
      }
      if (!fail.ok()) break;
      HETEX_CHECK(dst->capacity >= moved.bytes) << "staging block too small";
      moved.ready_at = system_->dma().Transfer(
          moved.data(), dst->data, moved.bytes, hop.link, moved.ready_at,
          !moved.block->pinned, options_.epoch);
      if (staged != nullptr) system_->blocks().Release(staged, producer_node);
      staged = moved.block = dst;
    }
    if (!fail.ok()) {
      if (staged != nullptr) system_->blocks().Release(staged, producer_node);
      break;
    }
    out.cols.push_back(moved);
  }
  // The copies are done: the producer's references to the sources go back
  // now, and on failure the consumer receives an empty message carrying only
  // the error.
  ReleaseMsgBlocks(system_, msg, producer_node);
  if (!fail.ok()) {
    ReleaseMsgBlocks(system_, out, producer_node);
    if (options_.control != nullptr) options_.control->Fail(fail);
    out.error = std::move(fail);
  }
  return out;
}

void Edge::DeliverTo(WorkerInstance* target, DataMsg msg,
                     sim::MemNodeId producer_node) {
  const sim::Topology& topo = system_->topology();
  if (options_.mem_move && msg.error.ok() &&
      MsgNeedsMove(topo, target->device(), msg)) {
    msg = MoveToNode(std::move(msg), target->node(), producer_node);
  } else if (!options_.mem_move) {
    // UVA-style edge (bare GPU mode): the consumer must at least be able to
    // address the data; it pays PCIe bandwidth while executing.
    for (const auto& h : msg.cols) {
      HETEX_CHECK(topo.CanAccess(target->device(), h.node()) !=
                  sim::MemAccess::kNone)
          << "consumer " << target->device().ToString()
          << " cannot address block on node " << h.node();
    }
  }
  // Cross-socket column reads: a CPU consumer reading another socket's DRAM
  // in place crosses the route's inter-socket link (when the topology models
  // one). Charged per delivered block on the shared epoch-anchored timeline,
  // so concurrent sessions queue behind each other on the QPI/UPI hop too.
  if (msg.error.ok() && target->device().is_cpu()) {
    int link = -1;
    uint64_t cross_bytes = 0;
    for (const auto& h : msg.cols) {
      const sim::Topology::Hops route = topo.Route(h.node(), target->node());
      if (route.empty()) continue;
      link = route.back().link;
      cross_bytes += h.bytes;
    }
    if (cross_bytes > 0) {
      const auto window = system_->topology().link(link).Reserve(
          cross_bytes, msg.ready_at, options_.epoch);
      msg.ready_at = sim::MaxT(msg.ready_at, window.end);
    }
  }
  target->NoteEnqueued();
  const bool pushed = target->channel().Push(std::move(msg));
  HETEX_CHECK(pushed) << "push to closed consumer channel";
}

void Edge::Push(DataMsg msg, sim::MemNodeId producer_node) {
  if (options_.control != nullptr && msg.error.ok() &&
      options_.control->stopped.load(std::memory_order_relaxed)) {
    // Stopped run (cancelled, or failed elsewhere): stop moving data, just
    // drop the payload. (Error-marked messages still flow — consumers must
    // observe the fault to stop cleanly.)
    ReleaseMsgBlocks(system_, msg, producer_node);
    return;
  }
  const sim::Topology& topo = system_->topology();
  msg.ready_at += options_.control_cost;
  if (producer_node >= 0 && topo.mem_node(producer_node).is_gpu) {
    msg.ready_at += options_.crossing_latency;
  }

  if (options_.policy == plan::RouterPolicy::kBroadcast) {
    // Mem-move owns broadcast (data-flow duplication); the router then routes by
    // target id — from its perspective this is just a hash policy (§3.1). A
    // unit broadcast rotates each unit's copy over that unit's consumers in
    // message order, so which instance builds which block is deterministic.
    const uint64_t seq = rr_next_.fetch_add(1, std::memory_order_relaxed);
    for (const std::vector<int>& group : broadcast_groups_) {
      const int i = group[seq % group.size()];
      DataMsg copy;
      copy.rows = msg.rows;
      copy.ready_at = msg.ready_at;
      copy.tag = i;  // target id produced by the mem-move
      copy.cols = msg.cols;
      AddRefMsgBlocks(copy);
      DeliverTo(consumers_[i], std::move(copy), producer_node);
    }
    ReleaseMsgBlocks(system_, msg, producer_node);
    return;
  }

  WorkerInstance* target = nullptr;
  switch (options_.policy) {
    case plan::RouterPolicy::kRoundRobin:
    case plan::RouterPolicy::kUnion: {
      target = consumers_[rr_next_.fetch_add(1, std::memory_order_relaxed) %
                          consumers_.size()];
      break;
    }
    case plan::RouterPolicy::kHash: {
      target = consumers_[msg.tag % consumers_.size()];
      break;
    }
    case plan::RouterPolicy::kLoadBalance: {
      // GPU-resident blocks go to their local GPU (avoids absurd device->host->
      // device round trips); everything else goes to the least-backlogged
      // consumer in virtual time.
      const sim::MemNodeId node = msg.cols.empty() ? -1 : msg.cols[0].node();
      const bool gpu_resident = node >= 0 && topo.mem_node(node).is_gpu;
      uint64_t msg_bytes = 0;
      for (const auto& h : msg.cols) msg_bytes += h.bytes;
      const sim::CostModel& cm = topo.cost_model();
      double best = 0;
      for (WorkerInstance* c : consumers_) {
        if (gpu_resident && c->node() != node) continue;
        // Bandwidth-based prior: a GPU consumer of non-local data is PCIe-bound;
        // a CPU worker streams at (at best) one core's share of its socket.
        double prior_rate = cm.cpu_core_bw;
        if (c->device().is_gpu()) {
          prior_rate = (node >= 0 && c->node() == node) ? cm.gpu_mem_bw : cm.pcie_bw;
        }
        const double backlog =
            c->EstimatedBacklog(static_cast<double>(msg_bytes) / prior_rate);
        if (target == nullptr || backlog < best) {
          target = c;
          best = backlog;
        }
      }
      if (target == nullptr) target = consumers_[0];
      break;
    }
    case plan::RouterPolicy::kBroadcast:
      break;  // handled above
  }
  DeliverTo(target, std::move(msg), producer_node);
}

WorkerGroup::WorkerGroup(System* system, std::vector<sim::DeviceId> devices,
                         ProcessorFactory factory, Edge* out,
                         size_t channel_capacity,
                         std::vector<sim::VTime> start_clocks,
                         sim::VTime epoch, uint64_t query_id,
                         const QueryControl* control)
    : system_(system),
      factory_(std::move(factory)),
      out_(out),
      control_(control),
      start_clocks_(std::move(start_clocks)) {
  HETEX_CHECK(start_clocks_.size() == devices.size())
      << "worker group needs one start clock per device";
  int id = 0;
  for (const auto& dev : devices) {
    instances_.push_back(std::make_unique<WorkerInstance>(
        id++, dev, system, channel_capacity, epoch, query_id, control));
  }
}

std::vector<WorkerInstance*> WorkerGroup::instance_ptrs() {
  std::vector<WorkerInstance*> out;
  out.reserve(instances_.size());
  for (auto& inst : instances_) out.push_back(inst.get());
  return out;
}

void WorkerGroup::Start() {
  // Deterministic per-socket worker counts drive the CPU fluid-share model.
  std::map<int, int> socket_workers;
  for (auto& inst : instances_) {
    if (inst->device().is_cpu()) socket_workers[inst->device().index] += 1;
  }
  for (auto& inst : instances_) {
    inst->set_clock(start_clocks_[inst->id()]);
    if (inst->device().is_cpu()) {
      static_cast<jit::CpuProvider&>(inst->provider())
          .set_socket_concurrency(socket_workers[inst->device().index]);
    }
    if (out_ != nullptr) out_->AddProducer();
  }
  for (auto& inst : instances_) {
    threads_.emplace_back([this, raw = inst.get()] { RunInstance(*raw); });
  }
}

void WorkerGroup::RunInstance(WorkerInstance& inst) {
  auto processor = factory_(inst);
  processor->Init(inst);
  while (auto msg = inst.channel().Pop()) {
    inst.NoteDequeued();
    // A mem-move failure marker or a stopped run (cancellation, an expired
    // deadline, a failure elsewhere) puts the instance into error-drain mode:
    // ProcessMsg becomes a no-op, the channel keeps draining (so producers
    // never block on backpressure), and Finish's error path runs the usual
    // cleanup.
    if (!msg->error.ok()) inst.NoteError(std::move(msg->error));
    if (control_ != nullptr && inst.error().ok()) {
      inst.NoteError(control_->CheckLive(inst.clock()));
    }
    const sim::VTime before = inst.clock();
    processor->ProcessMsg(inst, *msg);
    inst.NoteBlockCost(inst.clock() - before);
    ReleaseMsgBlocks(system_, *msg, inst.node());
  }
  processor->Finish(inst);
  if (out_ != nullptr) out_->CloseProducer();
}

void WorkerGroup::Join() {
  for (auto& t : threads_) t.join();
  threads_.clear();
  for (auto& inst : instances_) max_end_ = sim::MaxT(max_end_, inst->clock());
}

sim::CostStats WorkerGroup::total_stats() const {
  sim::CostStats total;
  for (const auto& inst : instances_) total.Add(inst->stats());
  return total;
}

SourceDriver::SourceDriver(System* system, const storage::Table* table,
                           std::vector<int> col_indices, uint64_t block_rows,
                           Edge* out, sim::VTime initial_clock,
                           double per_block_cost)
    : system_(system),
      table_(table),
      col_indices_(std::move(col_indices)),
      block_rows_(block_rows),
      out_(out),
      clock_(initial_clock),
      per_block_cost_(per_block_cost) {
  HETEX_CHECK(table_->placed()) << "table " << table_->name() << " not placed";
  HETEX_CHECK(block_rows_ > 0);
}

SourceDriver::~SourceDriver() { Join(); }

void SourceDriver::Start() {
  out_->AddProducer();
  started_ = true;
  thread_ = std::thread([this] { Run(); });
}

void SourceDriver::Join() {
  if (thread_.joinable()) thread_.join();
}

void SourceDriver::Run() {
  const sim::MemNodeId producer_node = system_->topology().socket(0).mem;
  for (const auto& chunk : table_->chunks()) {
    if (control_ != nullptr && !control_->CheckLive(clock_).ok()) break;
    for (uint64_t off = 0; off < chunk.rows; off += block_rows_) {
      if (control_ != nullptr && !control_->CheckLive(clock_).ok()) break;
      const uint64_t rows = std::min(block_rows_, chunk.rows - off);
      DataMsg msg;
      msg.rows = rows;
      msg.cols.reserve(col_indices_.size());
      for (int ci : col_indices_) {
        const auto& col = table_->column(ci);
        foreign_blocks_.emplace_back();
        memory::Block& block = foreign_blocks_.back();
        block.data = chunk.col_data[ci] + off * col.width();
        block.capacity = rows * col.width();
        block.node = chunk.node;
        block.owner = nullptr;
        block.pinned = table_->pinned();
        memory::BlockHandle handle;
        handle.block = &block;
        handle.bytes = rows * col.width();
        handle.rows = rows;
        handle.ready_at = clock_;
        msg.cols.push_back(handle);
      }
      clock_ += per_block_cost_;
      msg.ready_at = clock_;
      out_->Push(std::move(msg), producer_node);
    }
  }
  out_->CloseProducer();
}

}  // namespace hetex::core
