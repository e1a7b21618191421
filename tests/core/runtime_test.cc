#include "core/runtime.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <map>
#include <utility>

#include "core/system.h"
#include "plan/analysis.h"
#include "test_util.h"

namespace hetex::core {
namespace {

System::Options SmallSystem() {
  System::Options o;
  o.topology.cores_per_socket = 2;
  o.topology.gpu_sim_threads = 2;
  o.blocks.block_bytes = 4096;
  o.blocks.host_arena_blocks = 64;
  o.blocks.gpu_arena_blocks = 32;
  return o;
}

/// Processor that records the messages an instance consumed.
class RecordingProcessor : public BlockProcessor {
 public:
  struct Log {
    std::mutex mu;
    std::map<int, std::vector<DataMsg>> by_instance;  // copies (handles only)
    /// The first column's bytes of each message, by instance.
    std::map<int, std::vector<std::vector<uint8_t>>> payloads;
  };

  explicit RecordingProcessor(Log* log) : log_(log) {}
  void Init(WorkerInstance&) override {}
  void ProcessMsg(WorkerInstance& inst, DataMsg& msg) override {
    inst.AdvanceTo(sim::MaxT(inst.clock(), msg.ReadyAt()) + 1e-6);
    std::lock_guard<std::mutex> lock(log_->mu);
    DataMsg copy;
    copy.rows = msg.rows;
    copy.tag = msg.tag;
    copy.ready_at = msg.ReadyAt();
    // Note the data nodes (blocks themselves are released by the runtime).
    for (auto& h : msg.cols) {
      memory::BlockHandle stub;
      stub.rows = h.rows;
      stub.bytes = h.bytes;
      stub.ready_at = h.node();  // smuggle the node id for assertions
      copy.cols.push_back(stub);
    }
    if (!msg.cols.empty()) {
      const auto* data = reinterpret_cast<const uint8_t*>(msg.cols[0].data());
      log_->payloads[inst.id()].emplace_back(data, data + msg.cols[0].bytes);
    }
    log_->by_instance[inst.id()].push_back(std::move(copy));
  }
  void Finish(WorkerInstance&) override {}

 private:
  Log* log_;
};

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() : system_(SmallSystem()) {}

  /// Sends `n` single-column host blocks of 10 rows through an edge into
  /// `group`.
  void Drive(Edge& edge, WorkerGroup& group, int n) {
    Drive(edge, group, std::vector<uint64_t>(n, 10));
  }

  /// Sends one single-column host block per entry of `rows`, of that many
  /// 4-byte rows.
  void Drive(Edge& edge, WorkerGroup& group,
             const std::vector<uint64_t>& rows) {
    group.Start();
    edge.AddProducer();
    const sim::MemNodeId host = system_.topology().socket(0).mem;
    for (size_t i = 0; i < rows.size(); ++i) {
      memory::Block* block = system_.blocks().Acquire(host, host);
      DataMsg msg;
      msg.rows = rows[i];
      msg.tag = static_cast<uint64_t>(i);
      memory::BlockHandle h;
      h.block = block;
      h.rows = rows[i];
      h.bytes = rows[i] * 4;
      msg.cols.push_back(h);
      edge.Push(std::move(msg), host);
    }
    edge.CloseProducer();
    group.Join();
  }

  System system_;
  RecordingProcessor::Log log_;

  ProcessorFactory Recorder() {
    return [this](WorkerInstance&) {
      return std::make_unique<RecordingProcessor>(&log_);
    };
  }
};

TEST_F(RuntimeTest, RoundRobinDistributesEvenly) {
  WorkerGroup group(&system_, {sim::DeviceId::Cpu(0), sim::DeviceId::Cpu(1)},
                    Recorder(), nullptr, 8, {0.0, 0.0});
  Edge::Options opts;
  opts.policy = plan::RouterPolicy::kRoundRobin;
  Edge edge(&system_, opts, group.instance_ptrs());
  Drive(edge, group, 10);
  EXPECT_EQ(log_.by_instance[0].size(), 5u);
  EXPECT_EQ(log_.by_instance[1].size(), 5u);
}

TEST_F(RuntimeTest, HashPolicyRoutesByTag) {
  WorkerGroup group(&system_, {sim::DeviceId::Cpu(0), sim::DeviceId::Cpu(1)},
                    Recorder(), nullptr, 8, {0.0, 0.0});
  Edge::Options opts;
  opts.policy = plan::RouterPolicy::kHash;
  Edge edge(&system_, opts, group.instance_ptrs());
  Drive(edge, group, 9);
  for (const auto& msg : log_.by_instance[0]) EXPECT_EQ(msg.tag % 2, 0u);
  for (const auto& msg : log_.by_instance[1]) EXPECT_EQ(msg.tag % 2, 1u);
}

TEST_F(RuntimeTest, BroadcastReachesEveryConsumer) {
  WorkerGroup group(&system_, {sim::DeviceId::Cpu(0), sim::DeviceId::Cpu(1)},
                    Recorder(), nullptr, 8, {0.0, 0.0});
  Edge::Options opts;
  opts.policy = plan::RouterPolicy::kBroadcast;
  Edge edge(&system_, opts, group.instance_ptrs());
  Drive(edge, group, 4);
  EXPECT_EQ(log_.by_instance[0].size(), 4u);
  EXPECT_EQ(log_.by_instance[1].size(), 4u);
  // Broadcast tags are target ids (the mem-move contract, §3.2).
  EXPECT_EQ(log_.by_instance[0][0].tag, 0u);
  EXPECT_EQ(log_.by_instance[1][0].tag, 1u);
  // All blocks returned to the arena (refcounted multicast).
  system_.blocks().FlushReleases();
  EXPECT_EQ(system_.blocks().manager(system_.topology().socket(0).mem).in_use(),
            0u);
}

TEST_F(RuntimeTest, MemMoveCopiesToGpuAndAttachesTicket) {
  WorkerGroup group(&system_, {sim::DeviceId::Gpu(0)}, Recorder(), nullptr, 8,
                    {0.0});
  Edge::Options opts;
  opts.policy = plan::RouterPolicy::kRoundRobin;
  opts.mem_move = true;
  Edge edge(&system_, opts, group.instance_ptrs());
  Drive(edge, group, 3);
  ASSERT_EQ(log_.by_instance[0].size(), 3u);
  const sim::MemNodeId gpu_node = system_.topology().gpu(0).mem;
  for (const auto& msg : log_.by_instance[0]) {
    // stub.ready_at smuggles the node id.
    EXPECT_EQ(static_cast<sim::MemNodeId>(msg.cols[0].ready_at), gpu_node);
    EXPECT_GT(msg.ready_at, 0.0);  // DMA took virtual time
  }
  system_.blocks().FlushReleases();
  EXPECT_EQ(system_.blocks().manager(gpu_node).in_use(), 0u);
}

TEST_F(RuntimeTest, HostConsumersGetZeroCopyHandles) {
  WorkerGroup group(&system_, {sim::DeviceId::Cpu(1)}, Recorder(), nullptr, 8,
                    {0.0});
  Edge::Options opts;
  opts.policy = plan::RouterPolicy::kRoundRobin;
  Edge edge(&system_, opts, group.instance_ptrs());
  Drive(edge, group, 2);
  // Socket-0 blocks consumed by socket-1 worker without a move (coherent host).
  const sim::MemNodeId src = system_.topology().socket(0).mem;
  for (const auto& msg : log_.by_instance[0]) {
    EXPECT_EQ(static_cast<sim::MemNodeId>(msg.cols[0].ready_at), src);
  }
}

TEST_F(RuntimeTest, LoadBalanceKeepsGpuResidentBlocksLocal) {
  WorkerGroup group(&system_, {sim::DeviceId::Gpu(0), sim::DeviceId::Gpu(1)},
                    Recorder(), nullptr, 8, {0.0, 0.0});
  Edge::Options opts;
  opts.policy = plan::RouterPolicy::kLoadBalance;
  Edge edge(&system_, opts, group.instance_ptrs());

  group.Start();
  edge.AddProducer();
  // Blocks already resident on gpu1 must route to gpu1, never gpu0.
  const sim::MemNodeId gpu1 = system_.topology().gpu(1).mem;
  for (int i = 0; i < 6; ++i) {
    memory::Block* block = system_.blocks().Acquire(gpu1, gpu1);
    DataMsg msg;
    msg.rows = 1;
    memory::BlockHandle h;
    h.block = block;
    h.rows = 1;
    h.bytes = 8;
    msg.cols.push_back(h);
    edge.Push(std::move(msg), system_.topology().socket(0).mem);
  }
  edge.CloseProducer();
  group.Join();
  EXPECT_EQ(log_.by_instance[0].size(), 0u);
  EXPECT_EQ(log_.by_instance[1].size(), 6u);
  system_.blocks().FlushReleases();
}

TEST_F(RuntimeTest, LoadBalancePinsGpuResidentBlocksOnlyToAConsumingGpu) {
  const sim::MemNodeId gpu1 = system_.topology().gpu(1).mem;
  auto push_gpu_blocks = [&](Edge& edge, WorkerGroup& group, int n) {
    group.Start();
    edge.AddProducer();
    for (int i = 0; i < n; ++i) {
      memory::Block* block = system_.blocks().Acquire(gpu1, gpu1);
      DataMsg msg;
      msg.rows = 1;
      memory::BlockHandle h;
      h.block = block;
      h.rows = 1;
      h.bytes = 8;
      msg.cols.push_back(h);
      edge.Push(std::move(msg), gpu1);
    }
    edge.CloseProducer();
    group.Join();
  };
  Edge::Options opts;
  opts.policy = plan::RouterPolicy::kLoadBalance;

  // No consumer on gpu1: its blocks are balanced over every CPU worker (each
  // copied to the worker's socket), not all handed to the first consumer.
  {
    WorkerGroup group(&system_,
                      {sim::DeviceId::Cpu(0), sim::DeviceId::Cpu(0),
                       sim::DeviceId::Cpu(1), sim::DeviceId::Cpu(1)},
                      Recorder(), nullptr, 8, {0.0, 0.0, 0.0, 0.0});
    Edge edge(&system_, opts, group.instance_ptrs());
    push_gpu_blocks(edge, group, 16);
    for (int k = 0; k < 4; ++k) {
      EXPECT_GT(log_.by_instance[k].size(), 0u) << "consumer " << k;
    }
  }
  system_.blocks().FlushReleases();
  log_.by_instance.clear();

  // gpu1 consumes too: every gpu1-resident block stays there.
  {
    WorkerGroup group(&system_,
                      {sim::DeviceId::Cpu(0), sim::DeviceId::Cpu(1),
                       sim::DeviceId::Gpu(1)},
                      Recorder(), nullptr, 8, {0.0, 0.0, 0.0});
    Edge edge(&system_, opts, group.instance_ptrs());
    push_gpu_blocks(edge, group, 6);
    EXPECT_EQ(log_.by_instance[0].size(), 0u);
    EXPECT_EQ(log_.by_instance[1].size(), 0u);
    EXPECT_EQ(log_.by_instance[2].size(), 6u);
  }
  system_.blocks().FlushReleases();
}

TEST_F(RuntimeTest, ConsumerFinishesNoEarlierThanItsLastProducerClosed) {
  // Three consumers: one receives a block, one receives nothing, and one
  // starts past every producer's close.
  WorkerGroup group(&system_,
                    {sim::DeviceId::Cpu(0), sim::DeviceId::Cpu(1),
                     sim::DeviceId::Cpu(0)},
                    Recorder(), nullptr, 8, {1e-6, 2e-6, 9e-6});
  Edge::Options opts;
  opts.policy = plan::RouterPolicy::kRoundRobin;
  Edge edge(&system_, opts, group.instance_ptrs());
  group.Start();
  edge.AddProducer();
  edge.AddProducer();
  const sim::MemNodeId host = system_.topology().socket(0).mem;
  DataMsg msg;
  msg.rows = 10;
  memory::BlockHandle h;
  h.block = system_.blocks().Acquire(host, host);
  h.rows = 10;
  h.bytes = 40;
  msg.cols.push_back(h);
  edge.Push(std::move(msg), host);
  // The later producer in virtual time closes first in wall-clock time.
  edge.CloseProducer(5e-6);
  edge.CloseProducer(3e-6);
  group.Join();
  ASSERT_EQ(log_.by_instance[0].size(), 1u);
  EXPECT_EQ(group.instance(0).clock(), 5e-6);
  EXPECT_EQ(group.instance(1).clock(), 5e-6);
  EXPECT_EQ(group.instance(2).clock(), 9e-6);
  system_.blocks().FlushReleases();
}

TEST_F(RuntimeTest, MemMoveGpuToGpuStagesThroughHost) {
  // No peer access on this server: gpu0-resident blocks consumed by gpu1 hop
  // through the source GPU's host socket (two DMA legs, §3.2).
  WorkerGroup group(&system_, {sim::DeviceId::Gpu(1)}, Recorder(), nullptr, 8,
                    {0.0});
  Edge::Options opts;
  opts.policy = plan::RouterPolicy::kRoundRobin;
  opts.mem_move = true;
  Edge edge(&system_, opts, group.instance_ptrs());

  group.Start();
  edge.AddProducer();
  const sim::MemNodeId gpu0 = system_.topology().gpu(0).mem;
  memory::Block* block = system_.blocks().Acquire(gpu0, gpu0);
  DataMsg msg;
  msg.rows = 4;
  memory::BlockHandle h;
  h.block = block;
  h.rows = 4;
  h.bytes = 16;
  msg.cols.push_back(h);
  edge.Push(std::move(msg), system_.topology().socket(0).mem);
  edge.CloseProducer();
  group.Join();

  ASSERT_EQ(log_.by_instance[0].size(), 1u);
  EXPECT_EQ(static_cast<sim::MemNodeId>(log_.by_instance[0][0].cols[0].ready_at),
            system_.topology().gpu(1).mem);
  // Two legs in virtual time: strictly more than one link's transfer.
  const auto& cm = system_.topology().cost_model();
  EXPECT_GT(log_.by_instance[0][0].ready_at, 2 * cm.dma_latency);
  system_.blocks().FlushReleases();
  EXPECT_EQ(system_.blocks().manager(gpu0).in_use(), 0u);
  EXPECT_EQ(system_.blocks().manager(system_.topology().gpu(1).mem).in_use(), 0u);
}

TEST_F(RuntimeTest, EveryRouteDeliversAtItsPricedTime) {
  // Hop-level symmetry of the mem-move and the coster: for every ordered
  // pair of memory nodes, one single-column block delivered on an idle server
  // is ready at its consumer exactly at the time the coster prices the route
  // at, and it reserved exactly the route's links; the consumer reads the
  // source's bytes and every staging block returns to its arena.
  sim::Topology::Options no_mesh = sim::Topology::ScaleOutOptions(4);
  no_mesh.peer_links.clear();
  const sim::Topology::Options fabrics[] = {
      sim::Topology::Options{},           // paper server: staged GPU<->GPU
      sim::Topology::ScaleOutOptions(4),  // peer mesh + inter-socket link
      no_mesh,                            // inter-socket link, staged GPUs
  };
  const uint64_t bytes = 4096;
  for (const sim::Topology::Options& fabric : fabrics) {
    const sim::Topology shape(fabric);
    for (sim::MemNodeId src = 0; src < shape.num_mem_nodes(); ++src) {
      for (sim::MemNodeId dst = 0; dst < shape.num_mem_nodes(); ++dst) {
        System::Options o = SmallSystem();
        o.topology = fabric;
        o.topology.cores_per_socket = 2;
        o.topology.gpu_sim_threads = 2;
        System system(o);  // idle: every link free at 0
        const sim::Topology& topo = system.topology();
        RecordingProcessor::Log log;
        WorkerGroup group(
            &system, {topo.mem_node(dst).owner},
            [&log](WorkerInstance&) {
              return std::make_unique<RecordingProcessor>(&log);
            },
            nullptr, 8, {0.0});
        Edge::Options opts;
        opts.policy = plan::RouterPolicy::kRoundRobin;
        opts.control_cost = 0;
        opts.crossing_latency = 0;
        Edge edge(&system, opts, group.instance_ptrs());
        group.Start();
        edge.AddProducer();
        DataMsg msg;
        msg.rows = 1;
        memory::BlockHandle h;
        h.block = system.blocks().Acquire(src, src);
        std::vector<uint8_t> pattern(bytes);
        for (uint64_t i = 0; i < bytes; ++i) {
          pattern[i] = static_cast<uint8_t>(i * 7 + src);
        }
        std::memcpy(h.block->data, pattern.data(), bytes);
        h.rows = 1;
        h.bytes = bytes;
        msg.cols.push_back(h);
        edge.Push(std::move(msg), src);
        edge.CloseProducer();
        group.Join();

        const sim::Topology::Hops route = topo.Route(src, dst);
        const std::string pair = "node " + std::to_string(src) + " -> " +
                                 std::to_string(dst) + " on " +
                                 std::to_string(topo.num_links()) + " links";
        ASSERT_EQ(log.by_instance[0].size(), 1u) << pair;
        EXPECT_EQ(log.by_instance[0][0].ready_at,
                  topo.RouteSeconds(route, bytes, /*columns=*/1))
            << pair;
        EXPECT_EQ(log.payloads[0].at(0), pattern) << pair;
        for (int l = 0; l < topo.num_links(); ++l) {
          bool on_route = false;
          for (const sim::Topology::Hop& hop : route) {
            on_route |= hop.link == l;
          }
          EXPECT_EQ(topo.link(l).free_at() > 0, on_route)
              << pair << ", link " << l;
        }
        system.blocks().FlushReleases();
        for (sim::MemNodeId n = 0; n < topo.num_mem_nodes(); ++n) {
          EXPECT_EQ(system.blocks().manager(n).in_use(), 0u)
              << pair << ", arena of node " << n;
        }
      }
    }
  }
}

TEST_F(RuntimeTest, StagedMoveFailingOnItsSecondHopDeliversAnErrorMarker) {
  // Paper server: GPU0 -> GPU1 stages through host memory. An injected fault
  // on the second DMA must reach the consumer as an error marker, and the
  // source, the first hop's staging block and the failed hop's block all go
  // back to their arenas.
  const double kDmaRate = 0.5;
  // The DMA site's draws are pinned per operation: pick a seed whose first
  // draw passes and second fails.
  uint64_t seed = 1;
  for (;; ++seed) {
    sim::FaultOptions f;
    f.enabled = true;
    f.seed = seed;
    f.dma_fault_rate = kDmaRate;
    sim::FaultInjector probe(f);
    if (probe.OnDmaTransfer(0).ok() && !probe.OnDmaTransfer(0).ok()) break;
  }
  System::Options o = SmallSystem();
  o.faults = sim::FaultOptions{};
  o.faults.enabled = true;
  o.faults.seed = seed;
  o.faults.dma_fault_rate = kDmaRate;
  System system(o);
  const sim::Topology& topo = system.topology();
  RecordingProcessor::Log log;
  WorkerGroup group(
      &system, {sim::DeviceId::Gpu(1)},
      [&log](WorkerInstance&) {
        return std::make_unique<RecordingProcessor>(&log);
      },
      nullptr, 8, {0.0});
  Edge::Options opts;
  opts.policy = plan::RouterPolicy::kRoundRobin;
  Edge edge(&system, opts, group.instance_ptrs());
  group.Start();
  edge.AddProducer();
  const sim::MemNodeId gpu0 = topo.gpu(0).mem;
  DataMsg msg;
  msg.rows = 4;
  memory::BlockHandle h;
  h.block = system.blocks().Acquire(gpu0, gpu0);
  h.rows = 4;
  h.bytes = 16;
  msg.cols.push_back(h);
  edge.Push(std::move(msg), gpu0);
  edge.CloseProducer();
  group.Join();

  ASSERT_EQ(log.by_instance[0].size(), 1u);
  EXPECT_TRUE(log.by_instance[0][0].cols.empty());
  EXPECT_EQ(group.instance(0).error().code(), StatusCode::kUnavailable)
      << group.instance(0).error().ToString();
  EXPECT_EQ(system.fault().counters().dma_faults, 1u);
  system.blocks().FlushReleases();
  for (sim::MemNodeId n = 0; n < topo.num_mem_nodes(); ++n) {
    EXPECT_EQ(system.blocks().manager(n).in_use(), 0u) << "arena of node " << n;
  }
}

TEST_F(RuntimeTest, ReleaseMsgBlocksSkipsForeignBlocks) {
  memory::Block foreign;  // table-resident: owner == nullptr
  foreign.node = system_.topology().socket(0).mem;
  DataMsg msg;
  memory::BlockHandle h;
  h.block = &foreign;
  msg.cols.push_back(h);
  ReleaseMsgBlocks(&system_, msg, system_.topology().socket(0).mem);  // no crash
  EXPECT_TRUE(msg.cols.empty());
}

TEST_F(RuntimeTest, SourceDriverSlicesChunksIntoBlocks) {
  storage::Table* t = system_.catalog().CreateTable("src");
  storage::Column* c = t->AddColumn("c", storage::ColType::kInt32);
  for (int i = 0; i < 1000; ++i) c->Append(i);
  ASSERT_TRUE(t->Place(system_.HostNodes(), &system_.memory()).ok());

  WorkerGroup group(&system_, {sim::DeviceId::Cpu(0)}, Recorder(), nullptr, 8,
                    {0.0});
  Edge::Options opts;
  opts.policy = plan::RouterPolicy::kRoundRobin;
  Edge edge(&system_, opts, group.instance_ptrs());
  group.Start();
  SourceDriver source(&system_, t, {0}, /*block_rows=*/128, &edge, 0.0);
  source.Start();
  source.Join();
  group.Join();

  // 2 chunks of 500 rows -> per chunk: 3x128 + 1x116.
  uint64_t total = 0;
  for (const auto& msg : log_.by_instance[0]) total += msg.rows;
  EXPECT_EQ(total, 1000u);
  EXPECT_EQ(log_.by_instance[0].size(), 8u);
}

TEST_F(RuntimeTest, InstanceClockMonotone) {
  WorkerInstance inst(0, sim::DeviceId::Cpu(0), &system_, 4);
  inst.set_clock(1.0);
  inst.AdvanceTo(0.5);  // no-op backwards
  EXPECT_DOUBLE_EQ(inst.clock(), 1.0);
  inst.AdvanceTo(2.0);
  EXPECT_DOUBLE_EQ(inst.clock(), 2.0);
}

TEST_F(RuntimeTest, BacklogUsesPriorUntilEmaWarm) {
  WorkerInstance inst(0, sim::DeviceId::Cpu(0), &system_, 4);
  inst.set_clock(1.0);
  inst.NoteEnqueued();
  inst.NoteEnqueued();
  EXPECT_DOUBLE_EQ(inst.EstimatedBacklog(0.25), 1.5);
  inst.NoteBlockCost(0.1);  // observed cost replaces the prior
  EXPECT_DOUBLE_EQ(inst.EstimatedBacklog(0.25), 1.2);
}

// An instance whose thread has not run yet is priced by the cost its
// device's running peers observed, not by the router's prior: a prior 2x too
// high made the router hand the running instances twice their share.
TEST_F(RuntimeTest, BacklogUsesTheCostItsDevicesInstancesObserved) {
  WorkerGroup group(&system_,
                    {sim::DeviceId::Cpu(0), sim::DeviceId::Cpu(0),
                     sim::DeviceId::Cpu(1)},
                    Recorder(), nullptr, 8, {1.0, 1.0, 1.0});
  WorkerInstance& running = group.instance(0);
  WorkerInstance& idle_peer = group.instance(1);
  WorkerInstance& other_socket = group.instance(2);
  for (WorkerInstance* inst : group.instance_ptrs()) {
    inst->NoteEnqueued();
    inst->NoteEnqueued();
  }
  running.NoteBlockCost(0.1);
  EXPECT_DOUBLE_EQ(running.EstimatedBacklog(0.25), 1.2);
  EXPECT_DOUBLE_EQ(idle_peer.EstimatedBacklog(0.25), 1.2);
  EXPECT_DOUBLE_EQ(other_socket.EstimatedBacklog(0.25), 1.5);
  // A block counts until it is done.
  running.set_clock(1.1);
  running.NoteDone();
  EXPECT_DOUBLE_EQ(running.EstimatedBacklog(0.25), 1.2);
}

TEST_F(RuntimeTest, HtRegistryKeyedByQueryJoinAndUnit) {
  HtRegistry hts;
  auto& mm = system_.memory().manager(0);
  const jit::JoinHashTable::Layout layout(16, 8, {});
  jit::JoinHashTable* a = *hts.Create(7, 0, sim::DeviceId::Cpu(0), &mm, layout);
  jit::JoinHashTable* b = *hts.Create(7, 0, sim::DeviceId::Gpu(0), &mm, layout);
  jit::JoinHashTable* c = *hts.Create(7, 1, sim::DeviceId::Cpu(0), &mm, layout);
  // Same (join, unit) under a different query id: a disjoint namespace, not a
  // duplicate-table crash — the concurrent-queries collision case.
  jit::JoinHashTable* d = *hts.Create(8, 0, sim::DeviceId::Cpu(0), &mm, layout);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_EQ(hts.Get(7, 0, sim::DeviceId::Cpu(0)), a);
  EXPECT_EQ(hts.Get(7, 1, sim::DeviceId::Cpu(0)), c);
  EXPECT_EQ(hts.Get(8, 0, sim::DeviceId::Cpu(0)), d);
  EXPECT_EQ(hts.NumTables(7), 3);
  hts.DropQuery(7);
  EXPECT_EQ(hts.NumTables(7), 0);
  EXPECT_EQ(hts.Get(8, 0, sim::DeviceId::Cpu(0)), d);  // other queries intact
}

// The coster's footprint is the replica's allocation. Q4.1's customer join
// at an estimate of 24,000 rows, its fields in the placed columns' codes
// (c_custkey, 1..200 here, one byte around base 101; 1-byte c_nation
// payload): 31,264 entries of 8 bytes (the 4-byte link and 2 bytes of
// fields, padded to 4) plus 32,768 8-byte bucket heads.
TEST(HtRegistryTest, JoinHtBytesIsTheReplicaCreateAllocates) {
  test::TestEnv env(/*lineorder_rows=*/1000);
  plan::QuerySpec spec = env.ssb->Query(4, 1);
  plan::JoinSpec& customer = spec.joins.at(0);
  ASSERT_EQ(customer.build_table, "customer");
  customer.build_rows_estimate = 24'000;
  const storage::Catalog& catalog = env.system->catalog();
  const storage::Table& table = catalog.at("customer");
  ASSERT_EQ(table.column(customer.build_key).width(), 1u);
  ASSERT_EQ(table.column(customer.build_key).base(), 101);
  ASSERT_EQ(customer.payload, std::vector<std::string>{"c_nation"});
  ASSERT_EQ(table.column("c_nation").width(), 1u);
  EXPECT_EQ(plan::JoinHtLayout(customer, catalog).stride(), 8u);
  EXPECT_EQ(plan::JoinHtBytes(customer, catalog), 31'264u * 8 + 32'768u * 8);

  HtRegistry hts;
  auto& mm = env.system->memory().manager(0);
  const uint64_t before = mm.used();
  const Result<jit::JoinHashTable*> ht = hts.Create(
      1, 0, sim::DeviceId::Cpu(0), &mm, plan::JoinHtLayout(customer, catalog));
  ASSERT_TRUE(ht.ok()) << ht.status().ToString();
  EXPECT_EQ((*ht)->bytes(), plan::JoinHtBytes(customer, catalog));
  EXPECT_GE(mm.used() - before, plan::JoinHtBytes(customer, catalog));
}

// A replica whose entries a 32-bit index cannot address is refused where it
// is created, with a named Status and before any allocation.
TEST_F(RuntimeTest, HtRegistryRefusesAReplicaBeyondA32BitEntryIndex) {
  HtRegistry hts;
  auto& mm = system_.memory().manager(0);
  const uint64_t before = mm.used();
  const Result<jit::JoinHashTable*> ht = hts.Create(
      7, 0, sim::DeviceId::Cpu(0), &mm,
      jit::JoinHashTable::Layout(jit::JoinHashTable::Layout::kMaxCapacity + 1, 4, {4}));
  ASSERT_FALSE(ht.ok());
  EXPECT_EQ(ht.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ht.status().message().find("32-bit entry index"), std::string::npos)
      << ht.status().ToString();
  EXPECT_EQ(mm.used(), before);
  EXPECT_EQ(hts.NumTables(7), 0);
}

TEST_F(RuntimeTest, LoadBalanceRoutesAroundLateStartingInstance) {
  // Per-instance start clocks: instance 0 comes online at t=1 (its hash
  // tables are still being built), instance 1 at t=0. The backlog signal
  // includes the start clock, so every early block goes to instance 1.
  WorkerGroup group(&system_, {sim::DeviceId::Cpu(0), sim::DeviceId::Cpu(1)},
                    Recorder(), nullptr, 8, {1.0, 0.0});
  Edge::Options opts;
  opts.policy = plan::RouterPolicy::kLoadBalance;
  Edge edge(&system_, opts, group.instance_ptrs());
  Drive(edge, group, 6);
  EXPECT_EQ(log_.by_instance[0].size(), 0u);
  EXPECT_EQ(log_.by_instance[1].size(), 6u);
  EXPECT_DOUBLE_EQ(group.instance(0).clock(), 1.0);
  EXPECT_LT(group.instance(1).clock(), 1.0);
}

TEST_F(RuntimeTest, CrossingLatencyChargedOnlyToGpuProducedMessages) {
  // A hybrid exchange: one CPU and one GPU producer push partials into the
  // same gather edge. Only the GPU's messages cross a device boundary.
  WorkerGroup group(&system_, {sim::DeviceId::Cpu(0)}, Recorder(), nullptr, 8,
                    {0.0});
  Edge::Options opts;
  opts.policy = plan::RouterPolicy::kRoundRobin;
  opts.control_cost = 1e-7;
  opts.crossing_latency = 1e-3;
  Edge edge(&system_, opts, group.instance_ptrs());
  group.Start();
  edge.AddProducer();
  const sim::MemNodeId producers[2] = {system_.topology().socket(0).mem,
                                       system_.topology().gpu(0).mem};
  for (int i = 0; i < 2; ++i) {
    DataMsg msg;  // a payload-free message: only the control plane moves
    msg.rows = 1;
    msg.tag = static_cast<uint64_t>(i);
    edge.Push(std::move(msg), producers[i]);
  }
  edge.CloseProducer();
  group.Join();
  ASSERT_EQ(log_.by_instance[0].size(), 2u);
  for (const DataMsg& msg : log_.by_instance[0]) {
    EXPECT_DOUBLE_EQ(msg.ready_at, msg.tag == 0 ? 1e-7 : 1e-7 + 1e-3)
        << (msg.tag == 0 ? "CPU" : "GPU") << " producer";
  }
}

/// Inserts each block's key column into its unit's replica: a build pipeline
/// reduced to its insert, with the block counts each instance received.
class InsertingProcessor : public BlockProcessor {
 public:
  struct Shared {
    std::map<sim::DeviceId, jit::JoinHashTable*> replicas;
    uint32_t key_width = 8;  ///< the placed key column's width
    std::mutex mu;
    std::map<int, int> blocks;  // instance id -> blocks consumed
  };
  explicit InsertingProcessor(Shared* shared) : shared_(shared) {}
  void Init(WorkerInstance& inst) override {
    ht_ = shared_->replicas.at(inst.device());
  }
  void ProcessMsg(WorkerInstance& inst, DataMsg& msg) override {
    const jit::ColumnBinding keys{msg.cols[0].data(), shared_->key_width};
    for (uint64_t r = 0; r < msg.rows; ++r) {
      const int64_t key = keys.Load(r);
      ht_->Insert(key, &key);
    }
    inst.AdvanceTo(sim::MaxT(inst.clock(), msg.ReadyAt()) + 1e-6);
    std::lock_guard<std::mutex> lock(shared_->mu);
    ++shared_->blocks[inst.id()];
  }
  void Finish(WorkerInstance&) override {}

 private:
  Shared* shared_;
  jit::JoinHashTable* ht_ = nullptr;
};

TEST_F(RuntimeTest, UnitBroadcastHandsEachBlockToTheUnitsLeastLoadedInstance) {
  // Socket 0 fills a replica on three instances that start at 2, 1 and 0 us,
  // socket 1 on one. Each unit's copy of a block goes to the instance given
  // the fewest rows so far, ties to the one that starts first. Blocks of
  // uneven size (a build-side filter's survivors) are then shared by rows;
  // rotating them in message order would give socket 0's instances 400, 150
  // and 100 rows.
  WorkerGroup group(&system_,
                    {sim::DeviceId::Cpu(0), sim::DeviceId::Cpu(0),
                     sim::DeviceId::Cpu(0), sim::DeviceId::Cpu(1)},
                    Recorder(), nullptr, 8, {2e-6, 1e-6, 0.0, 0.0});
  Edge::Options opts;
  opts.policy = plan::RouterPolicy::kBroadcast;
  opts.unit_broadcast = true;
  Edge edge(&system_, opts, group.instance_ptrs());
  Drive(edge, group, std::vector<uint64_t>{300, 100, 100, 100, 50});

  auto rows_of = [&](int instance) {
    std::vector<uint64_t> rows;
    for (const DataMsg& msg : log_.by_instance[instance]) {
      rows.push_back(msg.rows);
    }
    return rows;
  };
  EXPECT_EQ(rows_of(0), (std::vector<uint64_t>{100, 50}));
  EXPECT_EQ(rows_of(1), (std::vector<uint64_t>{100, 100}));
  EXPECT_EQ(rows_of(2), (std::vector<uint64_t>{300}));
  EXPECT_EQ(rows_of(3), (std::vector<uint64_t>{300, 100, 100, 100, 50}));
}

TEST_F(RuntimeTest, UnitBroadcastFillsEachReplicaOnceAcrossItsInstances) {
  // Socket 0 builds its replica on three instances, socket 1 on one. The
  // build edge delivers every block once per unit, to the unit's instance
  // given the fewest rows so far, and the three writers CAS into one
  // lock-free table.
  storage::Table* t = system_.catalog().CreateTable("dim");
  storage::Column* c = t->AddColumn("k", storage::ColType::kInt64);
  constexpr int kRows = 1000;
  for (int i = 0; i < kRows; ++i) c->Append(i * 7 + 3);
  ASSERT_TRUE(t->Place(system_.HostNodes(), &system_.memory()).ok());

  InsertingProcessor::Shared shared;
  shared.key_width = c->width();
  auto& mm = system_.memory().manager(system_.topology().socket(0).mem);
  const jit::JoinHashTable::Layout layout(kRows, 8, {8});
  jit::JoinHashTable socket0(&mm, layout);
  jit::JoinHashTable socket1(&mm, layout);
  const sim::DeviceId cpu0 = sim::DeviceId::Cpu(0);
  shared.replicas = {{cpu0, &socket0}, {sim::DeviceId::Cpu(1), &socket1}};
  WorkerGroup group(&system_, {cpu0, cpu0, cpu0, sim::DeviceId::Cpu(1)},
                    [&](WorkerInstance&) {
                      return std::make_unique<InsertingProcessor>(&shared);
                    },
                    nullptr, 8, {0.0, 0.0, 0.0, 0.0});
  Edge::Options opts;
  opts.policy = plan::RouterPolicy::kBroadcast;
  opts.unit_broadcast = true;
  Edge edge(&system_, opts, group.instance_ptrs());
  group.Start();
  SourceDriver source(&system_, t, {0}, /*block_rows=*/100, &edge, 0.0);
  source.Start();
  source.Join();
  group.Join();

  // 10 blocks: socket 0's three instances take floor or ceil of 10/3 each,
  // socket 1's single instance takes all of them.
  int socket0_blocks = 0;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(shared.blocks[i] == 3 || shared.blocks[i] == 4) << shared.blocks[i];
    socket0_blocks += shared.blocks[i];
  }
  EXPECT_EQ(socket0_blocks, 10);
  EXPECT_EQ(shared.blocks[3], 10);

  for (jit::JoinHashTable* ht : {&socket0, &socket1}) {
    ASSERT_EQ(ht->size(), static_cast<uint64_t>(kRows));
    for (int i = 0; i < kRows; ++i) {
      const int64_t key = i * 7 + 3;
      uint64_t hops = 0;
      const int64_t e = ht->FindKeyFrom(ht->ProbeHead(key), key, &hops);
      ASSERT_GE(e, 0) << "key " << key << " missing";
      EXPECT_EQ(ht->PayloadAt(e, 0), key);
      EXPECT_LT(ht->FindKeyFrom(ht->NextEntry(e), key, &hops), 0)
          << "key " << key << " inserted twice";
    }
  }
}

TEST_F(RuntimeTest, ParallelBuildReadinessIsBitIdenticalOverRepeats) {
  // Each socket's two probe workers build its replicas together. Which
  // instance builds which block is fixed by the message order, and each unit
  // runs the joins one after another, so every replica's completion — and
  // every probe unit's start — is a pure function of data and plan. (Each
  // repeat gets a fresh server: later sessions on one server start at later
  // epochs, where absolute-time link reservations round differently.)
  auto run_once = [] {
    test::TestEnv env(8'000, 2, 2, ReuseOptions{});
    const plan::QuerySpec spec = env.ssb->Query(2, 1);  // three joins
    QueryResult r =
        env.Run(spec, test::TestEnv::Tune(plan::ExecPolicy::Hybrid()));
    EXPECT_EQ(r.rows, env.Reference(spec));
    return r;
  };
  const QueryResult first = run_once();
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  ASSERT_EQ(first.unit_ready.size(), 4u);
  ASSERT_EQ(first.builds.size(), 4 * 3u);
  for (const auto& b : first.builds) {
    EXPECT_EQ(b.dop, b.unit.is_cpu() ? 2 : 1) << b.unit.ToString();
  }
  for (int rep = 0; rep < 4; ++rep) {
    const QueryResult r = run_once();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_EQ(r.unit_ready.size(), first.unit_ready.size());
    for (size_t i = 0; i < r.unit_ready.size(); ++i) {
      EXPECT_EQ(r.unit_ready[i].unit, first.unit_ready[i].unit);
      EXPECT_EQ(r.unit_ready[i].start, first.unit_ready[i].start)
          << r.unit_ready[i].unit.ToString();
    }
    ASSERT_EQ(r.builds.size(), first.builds.size());
    for (size_t i = 0; i < r.builds.size(); ++i) {
      EXPECT_EQ(r.builds[i].join_id, first.builds[i].join_id);
      EXPECT_EQ(r.builds[i].done, first.builds[i].done)
          << "join " << r.builds[i].join_id << " on "
          << r.builds[i].unit.ToString();
    }
  }
}

TEST_F(RuntimeTest, SharedReplicaInsertsPayOneAtomicEach) {
  // CPU-only on 2 sockets x 2 workers: each socket's replica has two
  // writers, so every inserted row pays one CAS — once per socket. GPU-free,
  // and CPU group-bys never use atomics, so those are all the atomics.
  test::TestEnv env(8'000, 2, 2, ReuseOptions{});
  const plan::QuerySpec spec = env.ssb->Query(1, 1);  // one join: date
  const QueryResult r =
      env.Run(spec, test::TestEnv::Tune(plan::ExecPolicy::CpuOnly(4)));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.rows, env.Reference(spec));
  const storage::Table& date = env.system->catalog().at(spec.joins[0].build_table);
  uint64_t build_rows = 0;
  for (uint64_t row = 0; row < date.rows(); ++row) {
    const plan::RowGetter get = [&](const std::string& name) {
      return date.column(name).At(row);
    };
    build_rows += spec.joins[0].build_filter->Eval(get) != 0;
  }
  ASSERT_GT(build_rows, 0u);
  EXPECT_EQ(r.stats.atomics, 2 * build_rows);
}

TEST_F(RuntimeTest, OneWorkerPerSocketKeepsSingleWriterBuilds) {
  // With one probe worker per socket the plan and the runtime graph are the
  // ones a single-writer build has: DOP-1 build chains, no CAS charged.
  System::Options o;
  o.reuse = ReuseOptions{};
  o.topology.cores_per_socket = 1;
  o.blocks.block_bytes = 64 << 10;
  o.blocks.host_arena_blocks = 256;
  o.blocks.gpu_arena_blocks = 128;
  System system(o);
  ssb::Ssb::Options d;
  d.lineorder_rows = 8'000;
  d.scale = 0.002;
  ssb::Ssb ssb(d, &system.catalog());
  for (const char* name : {"lineorder", "date", "customer", "supplier", "part"}) {
    ASSERT_TRUE(system.catalog().at(name).Place(system.HostNodes(),
                                                &system.memory()).ok());
  }
  const plan::QuerySpec spec = ssb.Query(1, 1);
  plan::ExecPolicy policy = test::TestEnv::Tune(plan::ExecPolicy::CpuOnly());
  const plan::HetPlan plan = plan::BuildHetPlan(spec, policy, system.topology());
  for (const auto& n : plan.nodes) {
    if (n.kind == plan::HetOpNode::Kind::kJoinBuild) EXPECT_EQ(n.dop, 1);
  }
  QueryExecutor executor(&system);
  const QueryResult a = executor.Execute(spec, policy);
  const QueryResult b = executor.Execute(spec, policy);
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  EXPECT_EQ(a.rows, ssb::ReferenceExecute(spec, system.catalog()));
  EXPECT_EQ(a.stats.atomics, 0u);
  ASSERT_EQ(a.builds.size(), 2u);  // one replica per socket
  for (const auto& build : a.builds) EXPECT_EQ(build.dop, 1);
  ASSERT_EQ(a.unit_ready.size(), b.unit_ready.size());
  for (size_t i = 0; i < a.unit_ready.size(); ++i) {
    EXPECT_EQ(a.unit_ready[i].start, b.unit_ready[i].start);
  }
}

TEST_F(RuntimeTest, FilteredGpuReplicasAreReadyEarlierUnderHybrid) {
  // The fact table lives in GPU memory, so the dimensions are the only data
  // crossing PCIe. A hybrid plan filters each filtered dimension once on the
  // sockets and ships only the survivors' key and payload, so every GPU
  // replica of a filtered join is ready before the GPU-only plan's, which
  // ships and filters the raw columns on each GPU. (A filter that keeps most
  // of a small dimension, like Q3.1's 6 of 7 years of `date`, saves almost
  // no bytes and is a near-tie: these queries filter selectively.)
  test::TestEnv env(8'000, 2, 2, ReuseOptions{});
  ASSERT_TRUE(env.system->catalog()
                  .at("lineorder")
                  .Place(env.system->GpuNodes(), &env.system->memory())
                  .ok());
  for (const auto& [flight, idx] : {std::pair{2, 1}, {4, 1}, {4, 2}}) {
    const plan::QuerySpec spec = env.ssb->Query(flight, idx);
    const QueryResult hybrid =
        env.Run(spec, test::TestEnv::Tune(plan::ExecPolicy::Hybrid()));
    const QueryResult gpu =
        env.Run(spec, test::TestEnv::Tune(plan::ExecPolicy::GpuOnly()));
    ASSERT_TRUE(hybrid.status.ok()) << hybrid.status.ToString();
    ASSERT_TRUE(gpu.status.ok()) << gpu.status.ToString();
    EXPECT_EQ(hybrid.rows, env.Reference(spec));
    int compared = 0;
    for (const auto& h : hybrid.builds) {
      if (!h.unit.is_gpu() || spec.joins[h.join_id].build_filter == nullptr) {
        continue;
      }
      for (const auto& g : gpu.builds) {
        if (g.join_id != h.join_id || g.unit != h.unit) continue;
        ++compared;
        EXPECT_LT(h.done, g.done) << spec.name << " join " << h.join_id
                                  << " on " << h.unit.ToString();
      }
    }
    EXPECT_GE(compared, 2 * 2) << spec.name;  // >= 2 filtered joins x 2 GPUs
  }
}

TEST_F(RuntimeTest, StagingExhaustionStopsTheRunAtItsFirstFailure) {
  // A split plan on the paper server's 24 cores opens 26 hash-pack buckets of
  // 3 columns per filter instance: 78 staging blocks, more than a socket's
  // arena of 64 holds even for one instance. The first acquisition that
  // times out stops the whole run, so the query fails after about one
  // timeout instead of one per waiting pipeline and message, and every
  // staging block goes back.
  constexpr double kTimeout = 0.25;
  System::Options o;
  o.reuse = ReuseOptions{};
  o.faults = sim::FaultOptions{};
  o.blocks.block_bytes = 16 << 10;
  o.blocks.host_arena_blocks = 64;
  o.blocks.gpu_arena_blocks = 128;
  o.blocks.acquire_timeout_seconds = kTimeout;
  System system(o);
  ssb::Ssb::Options d;
  d.lineorder_rows = 60'000;
  d.scale = 0.002;
  ssb::Ssb ssb(d, &system.catalog());
  for (const char* name : {"lineorder", "date", "customer", "supplier", "part"}) {
    ASSERT_TRUE(system.catalog().at(name).Place(system.HostNodes(),
                                                &system.memory()).ok());
  }
  plan::ExecPolicy policy = plan::ExecPolicy::Hybrid();
  policy.split_probe_stage = true;
  policy.block_rows = 512;
  QueryExecutor executor(&system);
  const auto start = std::chrono::steady_clock::now();
  const QueryResult r = executor.Execute(ssb.Query(1, 1), policy);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted)
      << r.status.ToString();
  EXPECT_TRUE(r.rows.empty());
  // The instances start waiting together, so a few whose deadlines fall in
  // the instant before the stop lands may time out with the first.
  EXPECT_GE(system.blocks().acquire_timeouts(), 1u);
  EXPECT_LE(system.blocks().acquire_timeouts(), 4u)
      << "the first timeout did not stop the run's other waits";
  EXPECT_LT(elapsed, 20 * kTimeout);
  system.blocks().FlushReleases();
  for (int node = 0; node < system.topology().num_mem_nodes(); ++node) {
    EXPECT_EQ(system.blocks().manager(node).in_use(), 0u) << "node " << node;
  }
}

}  // namespace
}  // namespace hetex::core
