#include "sim/topology.h"

#include <sstream>

namespace hetex::sim {

Topology::Topology(const Options& options) : options_(options) {
  HETEX_CHECK(options.num_sockets > 0);
  HETEX_CHECK(options.cores_per_socket > 0);
  HETEX_CHECK(options.num_gpus >= 0);

  const CostModel& cm = options_.cost_model;

  for (int s = 0; s < options.num_sockets; ++s) {
    MemNodeId node = static_cast<MemNodeId>(mem_nodes_.size());
    mem_nodes_.push_back(MemNode{node, /*is_gpu=*/false,
                                 options.host_capacity_per_socket, DeviceId::Cpu(s)});
    sockets_.push_back(Socket{s, options.cores_per_socket, node});
    socket_dram_.push_back(
        std::make_unique<DramServer>(cm.cpu_socket_bw, cm.cpu_core_bw));
  }

  for (int g = 0; g < options.num_gpus; ++g) {
    MemNodeId node = static_cast<MemNodeId>(mem_nodes_.size());
    mem_nodes_.push_back(
        MemNode{node, /*is_gpu=*/true, options.gpu_capacity, DeviceId::Gpu(g)});
    // GPUs are distributed round-robin over sockets: one per socket on the paper
    // server (dedicated PCIe 3.0 x16 per GPU).
    const int socket = g % options.num_sockets;
    const int link = static_cast<int>(links_.size());
    links_.push_back(Link{link, LinkType::kPcie, g, -1,
                          std::make_unique<BandwidthServer>(cm.pcie_bw,
                                                            cm.dma_latency)});
    gpus_.push_back(GpuInfo{g, node, socket, link, options.gpu_sim_threads});
  }

  for (const auto& [a, b] : options.peer_links) {
    HETEX_CHECK(a >= 0 && a < num_gpus() && b >= 0 && b < num_gpus() && a != b)
        << "bad peer link gpu" << a << "<->gpu" << b;
    HETEX_CHECK(PeerLinkOf(a, b) < 0)
        << "duplicate peer link gpu" << a << "<->gpu" << b;
    links_.push_back(Link{static_cast<int>(links_.size()), LinkType::kPeer, a,
                          b,
                          std::make_unique<BandwidthServer>(
                              cm.nvlink_bw, cm.peer_dma_latency)});
  }

  if (options.inter_socket_bw > 0 && options.num_sockets > 1) {
    links_.push_back(Link{static_cast<int>(links_.size()),
                          LinkType::kInterSocket, -1, -1,
                          std::make_unique<BandwidthServer>(
                              options.inter_socket_bw,
                              cm.inter_socket_latency)});
  }
}

Topology::Options Topology::ScaleOutOptions(int num_gpus, int num_sockets) {
  Options options;
  options.num_sockets = num_sockets;
  options.num_gpus = num_gpus;
  for (int a = 0; a < num_gpus; ++a) {
    for (int b = a + 1; b < num_gpus; ++b) options.peer_links.emplace_back(a, b);
  }
  options.inter_socket_bw = options.cost_model.inter_socket_bw;
  return options;
}

int Topology::PeerLinkOf(int gpu_a, int gpu_b) const {
  for (const Link& l : links_) {
    if (l.type == LinkType::kPeer &&
        ((l.gpu_a == gpu_a && l.gpu_b == gpu_b) ||
         (l.gpu_a == gpu_b && l.gpu_b == gpu_a))) {
      return l.id - num_pcie_links();
    }
  }
  return -1;
}

Topology::Hops Topology::Route(MemNodeId src, MemNodeId dst) const {
  Hops route;
  auto add = [&route](int link, MemNodeId to) {
    route.hop[route.count++] = Hop{link, to};
  };
  const MemNode& from = mem_nodes_.at(src);
  const MemNode& to = mem_nodes_.at(dst);
  if (src == dst) return route;
  if (!from.is_gpu && !to.is_gpu) {
    if (has_inter_socket_link()) add(links_.back().id, dst);
  } else if (!from.is_gpu || !to.is_gpu) {
    add(PcieLinkOf((from.is_gpu ? from : to).owner.index), dst);
  } else if (const int p = PeerLinkOf(from.owner.index, to.owner.index);
             p >= 0) {
    add(num_pcie_links() + p, dst);
  } else {
    const GpuInfo& g = gpus_[from.owner.index];
    add(g.pcie_link, sockets_[g.socket].mem);
    add(PcieLinkOf(to.owner.index), dst);
  }
  return route;
}

VTime Topology::RouteSeconds(const Hops& route, double bytes,
                             uint64_t columns) const {
  VTime t = 0;
  for (const Hop& hop : route) {
    const Link& l = links_[hop.link];
    const double reservations = l.type == LinkType::kInterSocket
                                    ? 1.0
                                    : static_cast<double>(columns);
    t += reservations * l.server->latency() + bytes / l.server->rate();
  }
  return t;
}

MemAccess Topology::CanAccess(DeviceId dev, MemNodeId node) const {
  HETEX_CHECK(node >= 0 && node < num_mem_nodes()) << "bad mem node " << node;
  const MemNode& mn = mem_nodes_[node];
  if (dev.is_cpu()) {
    // Host code reaches any socket's DRAM (NUMA), never GPU device memory.
    return mn.is_gpu ? MemAccess::kNone : MemAccess::kLocal;
  }
  // GPU code reaches its own device memory at full bandwidth, and host DRAM over
  // PCIe (UVA-style zero-copy); peer GPU memory is not addressable.
  if (mn.is_gpu) {
    return mn.owner == dev ? MemAccess::kLocal : MemAccess::kNone;
  }
  return MemAccess::kRemotePcie;
}

std::string Topology::Describe(VTime epoch) const {
  const bool live = epoch >= 0;
  std::ostringstream os;
  os << "Topology: " << num_sockets() << " socket(s) x " << options_.cores_per_socket
     << " cores, " << num_gpus() << " GPU(s)";
  if (num_peer_links() > 0) os << ", " << num_peer_links() << " peer link(s)";
  os << "\n";
  for (const auto& s : sockets_) {
    os << "  socket" << s.id << ": mem node " << s.mem << " ("
       << (mem_nodes_[s.mem].capacity >> 20) << " MiB modeled, "
       << socket_dram_[s.id]->total_rate() / 1e9 << " GB/s)";
    if (live) {
      os << " backlog " << socket_dram_[s.id]->workers_overlapping(epoch)
         << " worker(s)";
    }
    os << "\n";
  }
  for (const auto& g : gpus_) {
    os << "  gpu" << g.id << ": mem node " << g.mem << " ("
       << (mem_nodes_[g.mem].capacity >> 20) << " MiB modeled, "
       << cost_model().gpu_mem_bw / 1e9 << " GB/s) on socket" << g.socket
       << "\n";
  }
  for (const Link& l : links_) {
    switch (l.type) {
      case LinkType::kPcie:
        os << "  PCIe link " << l.id << ": gpu" << l.gpu_a << " -> socket"
           << gpus_[l.gpu_a].socket << " (";
        break;
      case LinkType::kPeer:
        os << "  peer link " << l.id - num_pcie_links() << ": gpu" << l.gpu_a
           << " <-> gpu" << l.gpu_b << " (link " << l.id << ", NVLink-class, ";
        break;
      case LinkType::kInterSocket:
        os << "  inter-socket link: " << num_sockets() << " socket(s) (link "
           << l.id << ", ";
        break;
    }
    os << l.server->rate() / 1e9 << " GB/s)";
    if (live) {
      os << " backlog " << MaxT(0.0, l.server->free_at() - epoch) * 1e3 << " ms";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace hetex::sim
