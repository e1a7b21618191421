#include "sim/dma_engine.h"

#include <cstring>

namespace hetex::sim {

DmaEngine::DmaEngine(Topology* topo) : topo_(topo) {
  // A no-GPU topology leaves the engine with no DMA link and no thread —
  // valid, as long as nobody schedules a transfer on it.
  queues_.resize(topo->num_links());
  for (int l = 0; l < topo->num_links(); ++l) {
    if (topo->link_info(l).type == Topology::LinkType::kInterSocket) continue;
    queues_[l] = std::make_unique<MpmcQueue<Job>>(4096);
    workers_.emplace_back([q = queues_[l].get()] {
      while (auto job = q->Pop()) {
        std::memcpy(job->dst, job->src, job->bytes);
        job->done->set_value();
      }
    });
  }
}

DmaEngine::~DmaEngine() {
  for (auto& q : queues_) {
    if (q != nullptr) q->Close();
  }
  for (auto& w : workers_) w.join();
}

TransferTicket DmaEngine::Transfer(const void* src, void* dst, uint64_t bytes,
                                   int link, VTime earliest, bool pageable,
                                   VTime epoch) {
  HETEX_CHECK(link >= 0 && link < static_cast<int>(queues_.size()) &&
              queues_[link] != nullptr)
      << "bad DMA link " << link << " (no-GPU topology has none)";
  BandwidthServer& server = topo_->link(link);
  // A hop slower than the link (pageable PCIe) is modeled by inflating the
  // byte count so the reservation occupies the link for bytes / HopRate.
  const double rate_ratio = server.rate() / topo_->HopRate(link, pageable);
  const auto window = server.Reserve(
      static_cast<uint64_t>(static_cast<double>(bytes) * rate_ratio), earliest,
      epoch);

  auto done = std::make_shared<std::promise<void>>();
  std::shared_future<void> fut = done->get_future().share();
  const bool pushed = queues_[link]->Push(Job{src, dst, bytes, std::move(done)});
  HETEX_CHECK(pushed) << "DMA engine shut down while transfers in flight";
  return TransferTicket(window.end, std::move(fut));
}

VTime DmaEngine::TransferSync(const void* src, void* dst, uint64_t bytes, int link,
                              VTime earliest, bool pageable, VTime epoch) {
  TransferTicket t = Transfer(src, dst, bytes, link, earliest, pageable, epoch);
  t.Wait();
  return t.ready_at();
}

}  // namespace hetex::sim
