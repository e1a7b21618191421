#ifndef HETEX_SIM_TOPOLOGY_H_
#define HETEX_SIM_TOPOLOGY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "sim/bandwidth.h"
#include "sim/cost_model.h"

namespace hetex::sim {

/// Kind of compute device.
enum class DeviceType { kCpu, kGpu };

/// \brief Identifies a compute device: a CPU socket or a GPU.
///
/// HetExchange instances are pinned to devices; per the paper (§4.2) every pipeline
/// carries both a CPU and a GPU affinity and uses whichever matches its provider.
struct DeviceId {
  DeviceType type = DeviceType::kCpu;
  int index = 0;

  static DeviceId Cpu(int socket) { return {DeviceType::kCpu, socket}; }
  static DeviceId Gpu(int gpu) { return {DeviceType::kGpu, gpu}; }

  bool is_cpu() const { return type == DeviceType::kCpu; }
  bool is_gpu() const { return type == DeviceType::kGpu; }

  friend bool operator==(const DeviceId& a, const DeviceId& b) {
    return a.type == b.type && a.index == b.index;
  }
  friend bool operator!=(const DeviceId& a, const DeviceId& b) { return !(a == b); }
  /// Sockets before GPUs, each by index: the order of every per-unit map.
  friend bool operator<(const DeviceId& a, const DeviceId& b) {
    return a.type != b.type ? a.type < b.type : a.index < b.index;
  }

  std::string ToString() const {
    return (is_cpu() ? "cpu" : "gpu") + std::to_string(index);
  }
};

/// Identifies a memory node (a socket's DRAM or a GPU's device memory).
using MemNodeId = int;
inline constexpr MemNodeId kInvalidMemNode = -1;

/// How a device can reach a memory node.
enum class MemAccess {
  kNone,        ///< not addressable (e.g. host code touching GPU memory)
  kLocal,       ///< full-bandwidth local access
  kRemotePcie,  ///< addressable but every access crosses PCIe (UVA-style)
};

/// \brief Static + dynamic description of the simulated heterogeneous server.
///
/// Owns the virtual-time bandwidth resources: one cross-session DramServer per
/// socket DRAM and one BandwidthServer per interconnect link, every link in
/// one table (see Link). Capacities are modeled numbers (used for
/// fits-in-GPU-memory decisions); physical allocation is on demand and much
/// smaller.
class Topology {
 public:
  struct Options {
    int num_sockets = 2;
    int cores_per_socket = 12;
    int num_gpus = 2;                       ///< one per socket in the paper server
    uint64_t host_capacity_per_socket = 128ull << 30;
    uint64_t gpu_capacity = 8ull << 30;
    int gpu_sim_threads = 4;                ///< host threads emulating one GPU
    CostModel cost_model = CostModel::Paper();

    /// NVLink-class GPU peer links, one BandwidthServer each running at
    /// cost_model.nvlink_bw: {a, b} connects gpu a <-> gpu b. Empty (the
    /// default) models the paper server — no peer fabric, GPU<->GPU traffic
    /// stages through host memory over PCIe.
    std::vector<std::pair<int, int>> peer_links;
    /// Inter-socket (UPI/QPI) link bandwidth in B/s. 0 (the default) disables
    /// the link: cross-socket reads are free, exactly the pre-fabric model.
    double inter_socket_bw = 0;
  };

  /// A scale-out fabric shape: `num_gpus` GPUs with a fully-connected NVLink
  /// peer mesh, plus the inter-socket link, everything else the paper server.
  static Options ScaleOutOptions(int num_gpus, int num_sockets = 2);

  struct MemNode {
    MemNodeId id;
    bool is_gpu;
    uint64_t capacity;
    DeviceId owner;
  };

  struct Socket {
    int id;
    int num_cores;
    MemNodeId mem;
  };

  struct GpuInfo {
    int id;
    MemNodeId mem;
    int socket;      ///< socket whose PCIe root it hangs off
    int pcie_link;   ///< link id of its PCIe link
    int sim_threads;
  };

  enum class LinkType { kPcie, kPeer, kInterSocket };

  /// \brief One interconnect link. All links live in one table with one id
  /// order: the PCIe links first (one per GPU, in GPU order), then the GPU
  /// peer links (peer link p is link num_pcie_links() + p), then the
  /// inter-socket link when the fabric has one. DMA transfers, fault-injection
  /// link ids and the coster's per-link backlog all use these ids.
  struct Link {
    int id;
    LinkType type;
    int gpu_a = -1;  ///< kPcie: its GPU; kPeer: one end
    int gpu_b = -1;  ///< kPeer: the other end
    std::unique_ptr<BandwidthServer> server;
  };

  /// One hop of a route: the link crossed and the memory node it lands on.
  struct Hop {
    int link = -1;
    MemNodeId to = kInvalidMemNode;
  };

  /// The hops from one memory node to another, in order: at most two, held
  /// inline so that routing a block allocates nothing.
  struct Hops {
    Hop hop[2];
    int count = 0;

    const Hop* begin() const { return hop; }
    const Hop* end() const { return hop + count; }
    bool empty() const { return count == 0; }
    const Hop& back() const { return hop[count - 1]; }
  };

  explicit Topology(const Options& options);

  /// The paper's evaluation server: 2 sockets × 12 cores, 2 GPUs (8 GB each).
  static Topology PaperServer() { return Topology(Options{}); }

  const Options& options() const { return options_; }
  const CostModel& cost_model() const { return options_.cost_model; }

  int num_sockets() const { return static_cast<int>(sockets_.size()); }
  int num_gpus() const { return static_cast<int>(gpus_.size()); }
  int num_cores() const { return num_sockets() * options_.cores_per_socket; }
  int num_mem_nodes() const { return static_cast<int>(mem_nodes_.size()); }

  const Socket& socket(int i) const { return sockets_.at(i); }
  const GpuInfo& gpu(int i) const { return gpus_.at(i); }
  const MemNode& mem_node(MemNodeId id) const { return mem_nodes_.at(id); }

  /// Memory node local to a device.
  MemNodeId LocalMemNode(DeviceId dev) const {
    return dev.is_cpu() ? sockets_.at(dev.index).mem : gpus_.at(dev.index).mem;
  }

  /// The socket that controls a device (for GPUs: the PCIe-attached socket).
  int HostSocketOf(DeviceId dev) const {
    return dev.is_cpu() ? dev.index : gpus_.at(dev.index).socket;
  }

  /// Access class of `dev` touching `node` (see MemAccess).
  MemAccess CanAccess(DeviceId dev, MemNodeId node) const;

  /// PCIe link used to move data between host memory and a GPU's memory.
  int PcieLinkOf(int gpu) const { return gpus_.at(gpu).pcie_link; }

  /// Peer link p directly connecting two GPUs (link id num_pcie_links() + p),
  /// or -1 when there is none and a GPU<->GPU move must stage through host
  /// memory over two PCIe hops.
  int PeerLinkOf(int gpu_a, int gpu_b) const;

  /// \brief The links a block crosses from memory node `src` to `dst`: the
  /// mem-move's route, which the coster prices hop for hop.
  ///  - Same node: no hop.
  ///  - Two sockets' DRAM: the inter-socket link if the fabric has one (a CPU
  ///    reads remote DRAM in place), otherwise no hop.
  ///  - Host memory <-> GPU, either direction: that GPU's PCIe link.
  ///  - GPU -> GPU: their peer link if one exists; otherwise PCIe into the
  ///    source GPU's socket, then PCIe into the destination GPU.
  Hops Route(MemNodeId src, MemNodeId dst) const;

  /// Bytes per virtual second of a hop over `link`. A PCIe hop whose source
  /// block is unpinned (`pageable_src`) runs at CostModel::pcie_pageable_bw,
  /// because the DMA engine stages it through a bounce buffer. Peer and
  /// inter-socket hops always run at the link's rate.
  double HopRate(int link, bool pageable_src) const;

  /// Uncontended virtual seconds that one block of `bytes`, moved as
  /// `columns` column transfers, takes along `route`. Each hop costs
  /// reservations × link latency + bytes / HopRate: one reservation per
  /// column on a DMA hop (PCIe, peer), one per block on an inter-socket read.
  /// Only the first hop reads the source block; later hops read pinned
  /// staging blocks.
  VTime RouteSeconds(const Hops& route, double bytes, uint64_t columns,
                     bool pageable_src) const;

  /// Virtual-time resources, indexed by link id.
  int num_links() const { return static_cast<int>(links_.size()); }
  const Link& link_info(int link) const { return links_.at(link); }
  BandwidthServer& link(int link) { return *links_.at(link).server; }
  const BandwidthServer& link(int link) const { return *links_.at(link).server; }
  int num_pcie_links() const { return num_gpus(); }
  BandwidthServer& pcie_link(int l) { return link(l); }
  const BandwidthServer& pcie_link(int l) const { return link(l); }
  int num_peer_links() const {
    return static_cast<int>(options_.peer_links.size());
  }
  BandwidthServer& peer_link(int p) { return link(num_pcie_links() + p); }
  const BandwidthServer& peer_link(int p) const {
    return link(num_pcie_links() + p);
  }
  /// The inter-socket link exists only when Options::inter_socket_bw > 0 and
  /// there is more than one socket; it is the last link in the table.
  bool has_inter_socket_link() const {
    return !links_.empty() && links_.back().type == LinkType::kInterSocket;
  }
  BandwidthServer& inter_socket_link() { return *links_.back().server; }
  const BandwidthServer& inter_socket_link() const {
    return *links_.back().server;
  }
  DramServer& socket_dram(int socket) { return *socket_dram_.at(socket); }
  const DramServer& socket_dram(int socket) const { return *socket_dram_.at(socket); }

  /// Absolute virtual time by which every interconnect link — PCIe, GPU peer
  /// and inter-socket — is idle. Sessions anchored at (or past) this horizon
  /// see fresh interconnects — the session-scoped replacement for the old
  /// rewind-all-clocks reset, safe with other queries still in flight.
  VTime LinkHorizon() const {
    VTime h = 0;
    for (const Link& l : links_) h = MaxT(h, l.server->free_at());
    return h;
  }

  /// Absolute virtual time past every socket DRAM timeline's last boundary:
  /// all closed execution-phase intervals end at or before it, so a session
  /// anchored here sees uncontended DRAM. Pure CPU work leaves no trace on
  /// the interconnect links, so without this term a CPU-only system would
  /// anchor every arrival at epoch 0 — on top of all past queries' intervals.
  VTime DramHorizon() const {
    VTime h = 0;
    for (const auto& dram : socket_dram_) h = MaxT(h, dram->horizon());
    return h;
  }

  /// Socket of a core index in [0, num_cores), interleaved across sockets as the
  /// paper does for its scalability experiments ("we interleave the CPU cores
  /// between the two sockets").
  int SocketOfCore(int core) const { return core % num_sockets(); }

  /// Aggregate modeled GPU memory capacity, for fits-in-GPU decisions (Fig. 4 vs 5).
  uint64_t AggregateGpuCapacity() const {
    uint64_t total = 0;
    for (const auto& g : gpus_) total += mem_nodes_[g.mem].capacity;
    return total;
  }

  std::string ToString() const { return Describe(); }

  /// Full fabric description: sockets, GPUs, per-link type/bandwidth and peer
  /// adjacency. Pass a session epoch (>= 0) to additionally print the live
  /// backlog a query anchored there would see: each link's work queued past
  /// the epoch and each socket's workers whose DRAM intervals overlap it.
  std::string Describe(VTime epoch = -1.0) const;

 private:
  Options options_;
  std::vector<Socket> sockets_;
  std::vector<GpuInfo> gpus_;
  std::vector<MemNode> mem_nodes_;
  std::vector<Link> links_;
  std::vector<std::unique_ptr<DramServer>> socket_dram_;
};

}  // namespace hetex::sim

#endif  // HETEX_SIM_TOPOLOGY_H_
