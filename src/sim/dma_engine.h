#ifndef HETEX_SIM_DMA_ENGINE_H_
#define HETEX_SIM_DMA_ENGINE_H_

#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/mpmc_queue.h"
#include "sim/topology.h"
#include "sim/vtime.h"

namespace hetex::sim {

/// \brief Completion handle for an asynchronous DMA transfer.
///
/// `ready_at` is the modeled completion time (computed at schedule time from the
/// link's virtual-time queue); `Wait()` blocks until the functional copy finished.
/// The mem-move operator's producer half schedules transfers and keeps going; its
/// consumer half calls Wait() before handing the block to the next pipeline —
/// mirroring the paper's split mem-move design (§3.2).
class TransferTicket {
 public:
  TransferTicket() : ready_at_(0) {}
  TransferTicket(VTime ready_at, std::shared_future<void> done)
      : ready_at_(ready_at), done_(std::move(done)) {}

  VTime ready_at() const { return ready_at_; }
  void Wait() const {
    if (done_.valid()) done_.get();
  }
  bool valid() const { return done_.valid(); }

 private:
  VTime ready_at_;
  std::shared_future<void> done_;
};

/// \brief Asynchronous copy engine over the simulated DMA links: the PCIe links
/// and the GPU peer links.
///
/// One worker thread per link performs the functional memcpy; modeled timing comes
/// from the link's BandwidthServer (so queueing/pipelining of back-to-back
/// transfers shows up in virtual time). `pageable=true` models transfers whose
/// source was not pinned: a PCIe DMA must stage through a bounce buffer and runs
/// at Topology::HopRate — the DBMS G behaviour the paper calls out in §6.2.
class DmaEngine {
 public:
  explicit DmaEngine(Topology* topo);
  ~DmaEngine();

  DmaEngine(const DmaEngine&) = delete;
  DmaEngine& operator=(const DmaEngine&) = delete;

  /// Schedules an async copy of `bytes` from `src` to `dst` over `link`, the
  /// id of a PCIe or GPU peer link in the topology's link table.
  /// `earliest` is the session-local virtual time at which the source data
  /// exists; `epoch` is the absolute arrival time of the owning query session.
  /// The transfer queues on the shared link at `epoch + earliest` (contending
  /// with every in-flight session) and the ticket's `ready_at` comes back
  /// session-local.
  TransferTicket Transfer(const void* src, void* dst, uint64_t bytes, int link,
                          VTime earliest, bool pageable = false,
                          VTime epoch = 0.0);

  /// Convenience: schedule and wait; returns modeled completion time.
  VTime TransferSync(const void* src, void* dst, uint64_t bytes, int link,
                     VTime earliest, bool pageable = false, VTime epoch = 0.0);

 private:
  struct Job {
    const void* src;
    void* dst;
    uint64_t bytes;
    std::shared_ptr<std::promise<void>> done;
  };

  Topology* topo_;
  /// One queue + memcpy thread per DMA link, indexed by link id (null for the
  /// inter-socket link, which carries in-place reads, not copies).
  std::vector<std::unique_ptr<MpmcQueue<Job>>> queues_;
  std::vector<std::thread> workers_;
};

}  // namespace hetex::sim

#endif  // HETEX_SIM_DMA_ENGINE_H_
