#ifndef HETEX_CORE_RUNTIME_H_
#define HETEX_CORE_RUNTIME_H_

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/mpmc_queue.h"
#include "core/query_control.h"
#include "core/system.h"
#include "jit/device_provider.h"
#include "jit/hash_table.h"
#include "plan/het_plan.h"

namespace hetex::core {

/// \brief The unit of inter-pipeline communication: block handles for each column
/// of a batch of tuples, plus virtual-time metadata.
///
/// This is pure control plane — routing a DataMsg never touches tuple data
/// (paper §3.1). The mem-move replaces a handle the consumer cannot read in
/// place with a copy on the consumer's node, ready at the copy's DMA
/// completion time.
struct DataMsg {
  std::vector<memory::BlockHandle> cols;
  uint64_t rows = 0;
  sim::VTime ready_at = 0;
  uint64_t tag = 0;  ///< routing tag (hash bucket / broadcast target id)

  /// Mem-move failure marker: when an edge's data-flow half could not deliver
  /// this message (injected DMA fault, staging exhaustion, cancellation), it
  /// releases the payload and forwards the message with `error` set and empty
  /// `cols`; the consumer lifts the error into its instance and drains.
  Status error = Status::OK();

  /// Latest virtual time at which the message and every column block (moved
  /// ones at their DMA completion) are ready.
  sim::VTime ReadyAt() const {
    sim::VTime t = ready_at;
    for (const auto& h : cols) t = sim::MaxT(t, h.ready_at);
    return t;
  }
};

using Channel = MpmcQueue<DataMsg>;

class WorkerGroup;

/// \brief One pipeline instance: a worker thread (CPU) or a host control thread
/// driving kernels on one GPU, with its own provider, virtual clock and input
/// channel.
class WorkerInstance {
 public:
  /// `epoch` is the absolute virtual arrival time of the owning query session:
  /// the instance's clock stays session-local, and the epoch anchors the
  /// provider's reservations on shared resources (GPU streams). `query_id`
  /// identifies the session in the cross-session resource registries (DRAM
  /// fluid shares exclude the query's own registration from the divisor).
  /// The instance's first error stops the run `control` names, and the
  /// provider's staging waits return at once when it stops.
  WorkerInstance(int id, sim::DeviceId device, System* system,
                 size_t channel_capacity, sim::VTime epoch = 0.0,
                 uint64_t query_id = 0, const QueryControl* control = nullptr);

  int id() const { return id_; }
  sim::DeviceId device() const { return device_; }
  sim::MemNodeId node() const { return provider_->mem_node(); }
  jit::DeviceProvider& provider() { return *provider_; }
  System& system() { return *system_; }
  Channel& channel() { return channel_; }

  sim::VTime clock() const { return clock_; }
  void set_clock(sim::VTime t) {
    clock_ = t;
    clock_shared_.store(t, std::memory_order_relaxed);
  }
  void AdvanceTo(sim::VTime t) {
    if (t > clock_) set_clock(t);
  }

  sim::CostStats& stats() { return stats_; }

  /// First runtime error of this instance (e.g. a division-by-zero surfaced by
  /// the JIT tiers). Set by the instance's own worker thread; read by the
  /// orchestrator after Join() and lifted into QueryResult::status. The first
  /// error also stops the whole run (QueryControl::Fail).
  const Status& error() const { return error_; }
  void NoteError(Status st) {
    if (!error_.ok() || st.ok()) return;
    error_ = std::move(st);
    if (control_ != nullptr) control_->Fail(error_);
  }

  /// Estimated virtual time at which this instance would finish everything
  /// already queued for it — the router's load-balancing signal (virtual-time
  /// equivalent of the paper's queue-backpressure balancing). `cost_prior` is
  /// the router's bandwidth-based per-block estimate, used until the observed
  /// per-block EMA warms up.
  double EstimatedBacklog(double cost_prior) const {
    const double ema = ema_block_cost_.load(std::memory_order_relaxed);
    const double per_block = ema > 0 ? ema : cost_prior;
    return clock_shared_.load(std::memory_order_relaxed) +
           pending_.load(std::memory_order_relaxed) * per_block;
  }
  void NoteEnqueued() { pending_.fetch_add(1, std::memory_order_relaxed); }
  void NoteDequeued() { pending_.fetch_sub(1, std::memory_order_relaxed); }
  void NoteBlockCost(double cost) {
    const double prev = ema_block_cost_.load(std::memory_order_relaxed);
    ema_block_cost_.store(prev == 0 ? cost : 0.75 * prev + 0.25 * cost,
                          std::memory_order_relaxed);
  }

 private:
  int id_;
  sim::DeviceId device_;
  System* system_;
  const QueryControl* control_;
  std::unique_ptr<jit::DeviceProvider> provider_;
  Channel channel_;
  sim::VTime clock_ = 0;
  std::atomic<double> clock_shared_{0};
  std::atomic<int> pending_{0};
  std::atomic<double> ema_block_cost_{0};
  sim::CostStats stats_;
  Status error_;
};

/// \brief Router + mem-move runtime between producer pipelines and a set of
/// consumer instances.
///
/// The routing decision moves only the block handle; when a chosen consumer
/// cannot access a block's memory node, the mem-move half of the edge copies
/// the block into a staging block on the consumer-local node, one DMA per hop
/// of the route, and hands the consumer a handle ready at the last hop's
/// completion time (paper §3.2). Broadcast duplicates data flow here (one copy
/// per distinct target node, reference-shared within a node); the router half
/// only routes the resulting (block, target-id) pairs.
class Edge {
 public:
  struct Options {
    /// kRoundRobin: strict rotation (deterministic). kLoadBalance: least
    /// virtual-time backlog; GPU-local blocks prefer their local GPU. kHash:
    /// consumer = tag % consumers (requires hash-packed blocks). kBroadcast:
    /// every consumer receives every message. kUnion routes like kRoundRobin
    /// (it funnels every producer into one consumer set).
    plan::RouterPolicy policy = plan::RouterPolicy::kLoadBalance;
    bool mem_move = true;            ///< insert the mem-move data-flow half
    double control_cost = 100e-9;    ///< router control-plane cost per message
    /// gpu2cpu task-spawn latency, charged to messages pushed from GPU memory
    /// (a hybrid exchange's CPU producers never cross a device boundary).
    sim::VTime crossing_latency = 0;
    /// kBroadcast only: deliver each message once per device unit (a CPU
    /// socket or a GPU), rotating among that unit's consumers — the build
    /// edge of a replica several instances fill together. Off, every consumer
    /// receives every message.
    bool unit_broadcast = false;
    /// Absolute arrival time of the owning query session: DMA reservations on
    /// the shared PCIe links are anchored at `epoch + session-local time`, so
    /// concurrent queries charge each other link contention.
    sim::VTime epoch = 0;
    /// Owning query's cancellation/deadline state; a stopped run's edges
    /// drop (and release) further messages instead of moving them, and a
    /// failed move stops the run. Null = uncontrolled session.
    const QueryControl* control = nullptr;
  };

  Edge(System* system, Options options, std::vector<WorkerInstance*> consumers);

  /// Registers a producer; the edge closes consumer channels once every producer
  /// called CloseProducer().
  void AddProducer() { producers_.fetch_add(1, std::memory_order_relaxed); }
  void CloseProducer();

  /// Routes one message. `producer_node` identifies the pushing pipeline's
  /// memory node (block-manager batching is keyed by it).
  void Push(DataMsg msg, sim::MemNodeId producer_node);

  int num_consumers() const { return static_cast<int>(consumers_.size()); }
  WorkerInstance* consumer(int i) { return consumers_.at(i); }

 private:
  void DeliverTo(WorkerInstance* target, DataMsg msg, sim::MemNodeId producer_node);
  /// Copies `msg`'s blocks to `target_node` and releases the producer's
  /// references to the sources. Returns the rewritten message: moved handles
  /// are ready at their DMA completion; on failure, an error marker.
  DataMsg MoveToNode(DataMsg msg, sim::MemNodeId target_node,
                     sim::MemNodeId producer_node);

  System* system_;
  Options options_;
  std::vector<WorkerInstance*> consumers_;
  /// Broadcast targets: consumer indices grouped by device unit (one group
  /// per consumer unless Options::unit_broadcast).
  std::vector<std::vector<int>> broadcast_groups_;
  std::atomic<int> producers_{0};
  std::atomic<uint64_t> rr_next_{0};
};

/// Releases every block of a message from `holder_node`'s perspective (skipping
/// foreign, table-resident blocks).
void ReleaseMsgBlocks(System* system, DataMsg& msg, sim::MemNodeId holder_node);

/// \brief Per-instance pipeline execution logic, provided by the compiler.
class BlockProcessor {
 public:
  virtual ~BlockProcessor() = default;
  virtual void Init(WorkerInstance& inst) = 0;
  virtual void ProcessMsg(WorkerInstance& inst, DataMsg& msg) = 0;
  /// Input exhausted: flush partials / finalize state.
  virtual void Finish(WorkerInstance& inst) = 0;
};

using ProcessorFactory =
    std::function<std::unique_ptr<BlockProcessor>(WorkerInstance&)>;

/// \brief A group of identically-programmed pipeline instances (one per device in
/// `devices`), each consuming from its own channel. Instance i starts at
/// session-local virtual time `start_clocks[i]` (one entry per device).
class WorkerGroup {
 public:
  WorkerGroup(System* system, std::vector<sim::DeviceId> devices,
              ProcessorFactory factory, Edge* out, size_t channel_capacity,
              std::vector<sim::VTime> start_clocks, sim::VTime epoch = 0.0,
              uint64_t query_id = 0, const QueryControl* control = nullptr);

  void Start();
  void Join();

  int size() const { return static_cast<int>(instances_.size()); }
  WorkerInstance& instance(int i) { return *instances_.at(i); }
  std::vector<WorkerInstance*> instance_ptrs();

  /// Max instance clock after Join(): the group's completion in virtual time.
  sim::VTime max_end() const { return max_end_; }
  sim::CostStats total_stats() const;

 private:
  void RunInstance(WorkerInstance& inst);

  System* system_;
  ProcessorFactory factory_;
  Edge* out_;
  const QueryControl* control_ = nullptr;
  std::vector<sim::VTime> start_clocks_;
  std::vector<std::unique_ptr<WorkerInstance>> instances_;
  std::vector<std::thread> threads_;
  sim::VTime max_end_ = 0;
};

/// \brief The segmenter: a single lightweight thread that splits a placed table's
/// chunks into block-sized handles and feeds them to a router edge (paper Fig. 2,
/// pipeline 6). No data is copied — handles point into table memory.
class SourceDriver {
 public:
  SourceDriver(System* system, const storage::Table* table,
               std::vector<int> col_indices, uint64_t block_rows, Edge* out,
               sim::VTime initial_clock, double per_block_cost = 20e-9);
  ~SourceDriver();

  void Start();
  void Join();

  /// Owning query's cancellation/deadline state: a segmenter stops producing
  /// as soon as the query is no longer live (downstream drains normally).
  void set_control(const QueryControl* control) { control_ = control; }

 private:
  void Run();

  System* system_;
  const QueryControl* control_ = nullptr;
  const storage::Table* table_;
  std::vector<int> col_indices_;
  uint64_t block_rows_;
  Edge* out_;
  sim::VTime clock_;
  double per_block_cost_;
  std::deque<memory::Block> foreign_blocks_;
  std::thread thread_;
  bool started_ = false;
};

/// Collects final result rows with a virtual-time watermark.
class ResultSink {
 public:
  void AddRow(std::vector<int64_t> row, sim::VTime t) {
    std::lock_guard<std::mutex> lock(mu_);
    rows_.push_back(std::move(row));
    done_at_ = sim::MaxT(done_at_, t);
  }

  std::vector<std::vector<int64_t>> TakeRows() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(rows_);
  }
  sim::VTime done_at() const {
    std::lock_guard<std::mutex> lock(mu_);
    return done_at_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<int64_t>> rows_;
  sim::VTime done_at_ = 0;
};

}  // namespace hetex::core

#endif  // HETEX_CORE_RUNTIME_H_
