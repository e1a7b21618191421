#include "plan/coster.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "plan/analysis.h"

namespace hetex::plan {

namespace {

/// Micro-op estimate of evaluating an expression once (one VM op per node).
double ExprOps(const ExprPtr& e) {
  if (e == nullptr) return 0;
  if (e->kind() != Expr::Kind::kBin) return 1;
  return 1 + ExprOps(e->lhs()) + ExprOps(e->rhs());
}

/// Fraction of `t`'s sampled staging rows satisfying `filter`; `fallback` when
/// the sample is unavailable (dropped staging, missing columns).
double SampleSelectivity(const storage::Table& t, const ExprPtr& filter,
                         double fallback) {
  if (filter == nullptr) return 1.0;
  std::set<std::string> cols;
  filter->CollectColumns(&cols);
  for (const auto& c : cols) {
    if (t.FindColumn(c) < 0) return fallback;
  }
  uint64_t hits = 0;
  const uint64_t sampled = t.SampleRows(4096, [&](uint64_t r) {
    const RowGetter row = [&](const std::string& name) {
      return t.column(name).At(r);
    };
    if (filter->Eval(row) != 0) ++hits;
  });
  if (sampled == 0) return fallback;
  // Clamp away from exactly zero: a sample miss is not proof of emptiness.
  const double sel = static_cast<double>(hits) / static_cast<double>(sampled);
  return std::max(sel, 0.5 / static_cast<double>(sampled));
}

uint64_t CeilDiv(uint64_t a, uint64_t b) { return b == 0 ? 0 : (a + b - 1) / b; }

// ---------------------------------------------------------------------------
// Per-tuple work profiles, converted to CostStats for CostModel::WorkCost.
// ---------------------------------------------------------------------------

struct Profile {
  double ops = 0;
  double near = 0, mid = 0, far = 0;
  double atomics = 0;
  double bytes_read = 0, bytes_written = 0;

  void AddAccess(const sim::CostModel& cm, uint64_t region_bytes, double p) {
    switch (cm.RandomAccessClass(region_bytes)) {
      case 0: near += p; break;
      case 1: mid += p; break;
      default: far += p; break;
    }
  }

  sim::CostStats Scale(double rows) const {
    sim::CostStats s;
    s.tuples = static_cast<uint64_t>(std::llround(rows));
    s.ops = static_cast<uint64_t>(std::llround(ops * rows));
    s.near_accesses = static_cast<uint64_t>(std::llround(near * rows));
    s.mid_accesses = static_cast<uint64_t>(std::llround(mid * rows));
    s.far_accesses = static_cast<uint64_t>(std::llround(far * rows));
    s.atomics = static_cast<uint64_t>(std::llround(atomics * rows));
    s.bytes_read = static_cast<uint64_t>(std::llround(bytes_read * rows));
    s.bytes_written = static_cast<uint64_t>(std::llround(bytes_written * rows));
    return s;
  }
};

/// One instance's pricing inputs for a stage.
struct InstanceCost {
  sim::VTime block_time = 0;     ///< per-block completion (compute/transfer max)
  sim::VTime transfer_time = 0;  ///< per-block interconnect share (diagnostic)
  int link = -1;                 ///< link id the per-block transfer occupies
  uint64_t blocks = 0;           ///< assigned by the distribution model
  /// False when a load-balance router can never hand this instance a block:
  /// every source fraction is GPU-resident and pinned to another consumer.
  bool eligible = true;
};

/// Distributes `total_blocks` over `insts` under the router policy and returns
/// the stage completion time (max per-instance finish).
sim::VTime DistributeBlocks(RouterPolicy policy, uint64_t total_blocks,
                            std::vector<InstanceCost>* insts) {
  const size_t n = insts->size();
  if (n == 0 || total_blocks == 0) return 0;
  switch (policy) {
    case RouterPolicy::kBroadcast:
      for (auto& i : *insts) i.blocks = total_blocks;
      break;
    case RouterPolicy::kLoadBalance: {
      // Greedy least-finish-time, the analytic analogue of the runtime's
      // virtual-time backlog balancing. Chunk very large block counts so the
      // loop stays bounded.
      const uint64_t chunk = std::max<uint64_t>(1, total_blocks / 8192);
      std::vector<sim::VTime> finish(n, 0);
      const bool any_eligible = std::any_of(
          insts->begin(), insts->end(),
          [](const InstanceCost& i) { return i.eligible; });
      for (uint64_t b = 0; b < total_blocks; b += chunk) {
        const uint64_t k = std::min(chunk, total_blocks - b);
        size_t best = n;
        for (size_t i = 0; i < n; ++i) {
          if (any_eligible && !(*insts)[i].eligible) continue;
          if (best == n || finish[i] + (*insts)[i].block_time <
                               finish[best] + (*insts)[best].block_time) {
            best = i;
          }
        }
        finish[best] += static_cast<double>(k) * (*insts)[best].block_time;
        (*insts)[best].blocks += k;
      }
      break;
    }
    case RouterPolicy::kRoundRobin:
    case RouterPolicy::kHash:
    case RouterPolicy::kUnion:
      // Rotation: instance i receives every n-th block.
      for (size_t i = 0; i < n; ++i) {
        (*insts)[i].blocks =
            total_blocks / n + (i < total_blocks % n ? 1 : 0);
      }
      break;
  }
  sim::VTime done = 0;
  for (const auto& i : *insts) {
    done = sim::MaxT(done, static_cast<double>(i.blocks) * i.block_time);
  }
  return done;
}

}  // namespace

std::string CardinalityEstimate::ToString() const {
  std::ostringstream os;
  os << "fact=" << fact_rows << " sel=" << fact_selectivity;
  for (size_t j = 0; j < build_rows.size(); ++j) {
    os << " join" << j << "=" << build_rows[j] << "/" << build_input_rows[j];
  }
  os << " out=" << output_rows;
  return os.str();
}

std::string CostEstimate::ToString() const {
  std::ostringstream os;
  os << "total=" << total << " (init=" << init << " build=" << build
     << " probe=" << probe << " xfer=" << transfer << " gather=" << gather
     << ")";
  return os.str();
}

CardinalityEstimate EstimateCardinalities(const QuerySpec& spec,
                                          const storage::Catalog& catalog) {
  CardinalityEstimate c;
  const storage::Table* fact = catalog.Get(spec.fact_table);
  c.fact_rows = fact != nullptr ? std::max<uint64_t>(1, TableRows(*fact)) : 1;
  c.fact_selectivity =
      fact != nullptr ? SampleSelectivity(*fact, spec.fact_filter, 1.0) : 1.0;

  double cumulative = c.fact_selectivity;
  for (const JoinSpec& join : spec.joins) {
    const storage::Table* build = catalog.Get(join.build_table);
    uint64_t input = build != nullptr && TableRows(*build) > 0
                         ? TableRows(*build)
                         : std::max<uint64_t>(1, join.build_rows_estimate);
    double fallback = join.build_rows_estimate > 0
                          ? std::min(1.0, static_cast<double>(
                                              join.build_rows_estimate) /
                                              static_cast<double>(input))
                          : 1.0;
    const double sel = build != nullptr
                           ? SampleSelectivity(*build, join.build_filter, fallback)
                           : fallback;
    const uint64_t filtered = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::llround(sel * static_cast<double>(input))));
    c.build_input_rows.push_back(input);
    c.build_rows.push_back(filtered);
    // FK uniformity of the star schema: a fact row's key hits each distinct
    // build key with equal probability, so the expected output multiplier is
    // filtered rows / distinct keys. For unique-key dimensions this is the
    // survival fraction; duplicate-key builds correctly predict fan-out > 1
    // (distinct comes from the column stats; row count is the fallback).
    uint64_t key_domain = input;
    if (build != nullptr) {
      const int key_idx = build->FindColumn(join.build_key);
      if (key_idx >= 0) {
        const storage::ColumnStats key_stats = build->column_stats(key_idx);
        if (key_stats.sampled > 0 && key_stats.distinct > 0) {
          key_domain = key_stats.distinct;
        }
      }
    }
    constexpr double kMaxFanout = 1024.0;  // runaway-estimate guard
    const double s = std::min(
        kMaxFanout, static_cast<double>(filtered) / static_cast<double>(key_domain));
    c.join_selectivities.push_back(s);
    cumulative *= s;
  }
  c.output_rows = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::llround(cumulative * static_cast<double>(c.fact_rows))));
  return c;
}

PlanCoster::PlanCoster(const QuerySpec& spec, const storage::Catalog& catalog,
                       const sim::Topology& topo, Options options)
    : spec_(&spec),
      catalog_(&catalog),
      topo_(&topo),
      options_(options),
      cards_(EstimateCardinalities(spec, catalog)) {}

Result<CostEstimate> PlanCoster::Cost(const HetPlan& plan) const {
  const sim::CostModel& cm = topo_->cost_model();
  Result<PlanAnalysis> analysis = AnalyzePlan(plan, *topo_);
  if (!analysis.ok()) return analysis.status();
  const PlanAnalysis& shape = analysis.value();
  HETEX_RETURN_NOT_OK(CheckUvaSources(plan, shape, *catalog_, *topo_));

  CostEstimate est;
  est.init = shape.init_latency;

  // --- Schema-derived widths. Fact columns a fused scan reads; the packed
  // wire columns a split plan ships between stages (8-byte registers).
  const storage::Table* fact = catalog_->Get(spec_->fact_table);
  std::set<std::string> payloads;
  for (const auto& join : spec_->joins) {
    for (const auto& p : join.payload) payloads.insert(p);
  }
  auto fact_col_set = [&](bool include_filter) {
    std::set<std::string> cols;
    if (include_filter && spec_->fact_filter != nullptr) {
      spec_->fact_filter->CollectColumns(&cols);
    }
    for (const auto& join : spec_->joins) cols.insert(join.probe_key);
    for (const auto& agg : spec_->aggs) {
      if (agg.value != nullptr) agg.value->CollectColumns(&cols);
    }
    for (const auto& g : spec_->group_by) g->CollectColumns(&cols);
    std::set<std::string> out;
    for (const auto& c : cols) {
      if (payloads.count(c) > 0) continue;
      if (fact == nullptr || fact->FindColumn(c) >= 0) out.insert(c);
    }
    return out;
  };
  const std::set<std::string> scan_cols = fact_col_set(/*include_filter=*/true);
  const std::set<std::string> wire_cols = fact_col_set(/*include_filter=*/false);
  double scan_width = 0;
  for (const auto& c : scan_cols) {
    scan_width += fact != nullptr && fact->FindColumn(c) >= 0
                      ? fact->column(c).width()
                      : 8;
  }
  const double wire_width = 8.0 * static_cast<double>(wire_cols.size());

  // --- Hash-table footprints: the generated code's access size classes.
  auto ht_bytes = [&](size_t j) -> uint64_t {
    return j < spec_->joins.size() ? JoinHtBytes(spec_->joins[j], *catalog_) : 1;
  };
  const uint64_t n_aggs = spec_->aggs.size();
  const uint64_t agg_ht_bytes =
      spec_->group_by.empty() ? 0 : spec_->expected_groups * 2 * (8 + 8 * n_aggs);

  const double filter_ops = ExprOps(spec_->fact_filter);
  double agg_value_ops = 0;
  for (const auto& agg : spec_->aggs) agg_value_ops += ExprOps(agg.value) + 1;
  double group_key_ops = 0;
  for (const auto& g : spec_->group_by) group_key_ops += ExprOps(g) + 2;

  const double total_join_sel = [&] {
    double s = 1.0;
    for (double js : cards_.join_selectivities) s *= js;
    return s;
  }();

  auto build_sel = [&](size_t j) {
    return j < cards_.join_selectivities.size() ? cards_.join_selectivities[j] : 1;
  };

  // Per-tuple profile of a probe span. `from_table`: fused scan (filter still
  // to run) vs the packed stage-B input of a split plan (filter already done).
  // The probes run in the compiler's nesting order, so each join is priced for
  // the rows the joins before it let through. A payload load reads the entry
  // its probe already paid for: ops, no access.
  const std::vector<int> probe_order = ProbeOrder(*spec_, *catalog_, cm);
  auto probe_profile = [&](bool from_table) {
    Profile p;
    p.bytes_read = from_table ? scan_width : wire_width;
    double reach = 1.0;
    if (from_table && spec_->fact_filter != nullptr) {
      p.ops += filter_ops + 1;
      reach = cards_.fact_selectivity;
    }
    for (const int j : probe_order) {
      p.ops += reach * 4;  // probe init + loop control
      p.AddAccess(cm, ht_bytes(j), reach);
      reach *= build_sel(j);
      if (!spec_->joins[j].payload.empty()) {
        p.ops += reach * (1 + static_cast<double>(spec_->joins[j].payload.size()));
      }
    }
    if (spec_->group_by.empty()) {
      p.ops += reach * agg_value_ops;
    } else {
      p.ops += reach * (group_key_ops + agg_value_ops + 1);
      p.AddAccess(cm, agg_ht_bytes, reach);
    }
    return p;
  };

  auto filter_stage_profile = [&] {
    Profile p;
    p.bytes_read = scan_width;
    p.ops += filter_ops + 1;
    const double survivors = cards_.fact_selectivity;
    p.ops += survivors * (2 + static_cast<double>(wire_cols.size()));
    p.bytes_written = survivors * wire_width;
    return p;
  };

  // Width of `cols` in `join`'s build table.
  auto dimension_width = [&](const JoinSpec& join, const std::set<std::string>& cols) {
    const storage::Table* t = catalog_->Get(join.build_table);
    double width = 0;
    for (const auto& c : cols) {
      width += t != nullptr && t->FindColumn(c) >= 0 ? t->column(c).width() : 8;
    }
    return width;
  };
  auto filter_columns = [](const JoinSpec& join) {
    std::set<std::string> cols;
    if (join.build_filter != nullptr) join.build_filter->CollectColumns(&cols);
    return cols;
  };
  // Width and column count of the dimension columns join j's build scan reads
  // (filter, key and payload).
  auto dimension_scan = [&](const JoinSpec& join, uint64_t* n_cols) {
    std::set<std::string> cols = filter_columns(join);
    cols.insert(join.build_key);
    for (const auto& c : join.payload) cols.insert(c);
    *n_cols = cols.size();
    return dimension_width(join, cols);
  };

  // Per-tuple profile of join j's build. `packed`: the input is a build-side
  // filter stage's survivors (key and payload as 8-byte wire columns, the
  // filter already applied).
  auto build_profile = [&](size_t j, bool packed, uint64_t* n_cols) {
    Profile p;
    const JoinSpec* join = j < spec_->joins.size() ? &spec_->joins[j] : nullptr;
    double in_width = 8;
    *n_cols = 1;
    double sel = 1.0;
    if (join != nullptr && packed) {
      *n_cols = 1 + join->payload.size();
      in_width = 8.0 * static_cast<double>(*n_cols);
      p.ops += 1;
    } else if (join != nullptr) {
      in_width = dimension_scan(*join, n_cols);
      p.ops += ExprOps(join->build_filter) + 1;
      sel = build_sel(j);
    }
    p.bytes_read = in_width;
    p.ops += sel * 3;
    p.AddAccess(cm, ht_bytes(j), sel);
    p.atomics += sel;
    return p;
  };

  // Per-tuple profile of join j's build-side filter stage: every row loads
  // the filter's columns, a survivor also its key and payload, which it packs.
  auto build_filter_profile = [&](size_t j, uint64_t* n_cols) {
    Profile p;
    const JoinSpec& join = spec_->joins[j];
    const double sel = build_sel(j);
    const double scan = dimension_scan(join, n_cols);
    const double filter_width = dimension_width(join, filter_columns(join));
    p.bytes_read = filter_width + sel * (scan - filter_width);
    p.ops += ExprOps(join.build_filter) + 1;
    const double out_cols = 1 + static_cast<double>(join.payload.size());
    p.ops += sel * (2 + out_cols);
    p.bytes_written = sel * 8 * out_cols;
    return p;
  };

  // --- Instance pricing under the fluid bandwidth-share model.
  auto socket_backlog = [&](int s) {
    return s < static_cast<int>(options_.socket_backlog_workers.size())
               ? std::max(0, options_.socket_backlog_workers[s])
               : 0;
  };

  // Fraction of a source table's rows resident on each memory node: each
  // fraction reaches an instance along Topology::Route.
  auto node_fractions = [&](const storage::Table* t) {
    std::map<sim::MemNodeId, double> frac;
    if (t == nullptr || !t->placed()) return frac;
    uint64_t total = 0;
    for (const auto& chunk : t->chunks()) total += chunk.rows;
    if (total == 0) return frac;
    for (const auto& chunk : t->chunks()) {
      frac[chunk.node] +=
          static_cast<double>(chunk.rows) / static_cast<double>(total);
    }
    return frac;
  };

  auto stage_instances = [&](const Stage& stage, const Profile& profile,
                             uint64_t block_rows, double in_width,
                             uint64_t cols,
                             const storage::Table* src_table) {
    std::vector<InstanceCost> out;
    // CPU workers share their socket's DRAM bandwidth — with this candidate's
    // own workers and with every other in-flight session's (the runtime's
    // cross-session fluid-share divisor).
    std::map<int, int> socket_workers;
    for (const auto& dev : stage.instances) {
      if (dev.is_cpu()) socket_workers[dev.index] += 1;
    }
    cols = std::max<uint64_t>(1, cols);
    const sim::CostStats block_stats =
        profile.Scale(static_cast<double>(block_rows));
    const std::map<sim::MemNodeId, double> src_frac = node_fractions(src_table);
    const double block_bytes = static_cast<double>(block_rows) * in_width;
    // An unpinned source table's first PCIe hop runs at the pageable rate,
    // exactly as the runtime's DMA engine charges it (Topology::HopRate).
    const bool pageable =
        src_table != nullptr && src_table->placed() && !src_table->pinned();
    // Load-balance routers pin GPU-resident blocks to their local GPU when
    // that GPU is among the consumers — those fractions never travel, and no
    // other instance ever receives them. Credit the route accordingly.
    std::vector<char> gpu_inst(static_cast<size_t>(topo_->num_gpus()), 0);
    for (const auto& dev : stage.instances) {
      if (dev.is_gpu()) gpu_inst[static_cast<size_t>(dev.index)] = 1;
    }
    auto lb_pinned = [&](int src_gpu) {
      return stage.in.policy == RouterPolicy::kLoadBalance && src_gpu >= 0 &&
             src_gpu < topo_->num_gpus() &&
             gpu_inst[static_cast<size_t>(src_gpu)] != 0;
    };
    for (const auto& b : stage.branches) {
      for (const auto& dev : b.instances) {
        InstanceCost ic;
        if (!src_frac.empty()) {
          ic.eligible = std::any_of(
              src_frac.begin(), src_frac.end(), [&](const auto& node_frac) {
                const sim::Topology::MemNode& mn =
                    topo_->mem_node(node_frac.first);
                return !mn.is_gpu || !lb_pinned(mn.owner.index) ||
                       (dev.is_gpu() && dev.index == mn.owner.index);
              });
        }
        if (dev.is_gpu() && b.uva) {
          // UVA kernel: its streamed bytes occupy the PCIe link exactly like
          // DMA (the runtime reserves them on the link BandwidthServer), so
          // the link share of the block time is real, steerable occupancy.
          const sim::VTime transfer =
              cm.BandwidthBytes(block_stats, cm.gpu) / cm.pcie_bw;
          const sim::VTime compute = cm.ComputeTime(block_stats, cm.gpu);
          ic.transfer_time = transfer;
          ic.link = topo_->PcieLinkOf(dev.index);
          ic.block_time =
              cm.kernel_launch_latency + sim::MaxT(compute, transfer);
          out.push_back(ic);
          continue;
        }
        if (dev.is_cpu()) {
          const int divisor =
              socket_workers[dev.index] + socket_backlog(dev.index);
          const double bw =
              std::min(cm.cpu_core_bw, cm.cpu_socket_bw / divisor);
          ic.block_time = cm.WorkCost(block_stats, cm.cpu, bw);
        } else {
          ic.block_time = cm.kernel_launch_latency +
                          cm.WorkCost(block_stats, cm.gpu, cm.gpu_mem_bw);
        }
        if (dev.is_cpu() || b.gpu_entry) {
          // Route every source fraction the way the runtime moves it to this
          // instance, unless a load-balance router pins that GPU-resident
          // fraction to its own GPU and this instance never receives it. A
          // stage without a placed source reads from its host socket's DRAM.
          // A route's whole time is charged to its last hop's link; the
          // instance's link is whichever carries the most.
          const sim::MemNodeId dst = topo_->LocalMemNode(dev);
          double transfer = 0;
          std::map<int, double> by_link;
          auto route_from = [&](sim::MemNodeId node, double f) {
            const sim::Topology::MemNode& mn = topo_->mem_node(node);
            const sim::Topology::Hops route = topo_->Route(node, dst);
            if (route.empty() || (mn.is_gpu && lb_pinned(mn.owner.index))) {
              return;
            }
            const double t =
                f * topo_->RouteSeconds(route, block_bytes, cols, pageable);
            transfer += t;
            by_link[route.back().link] += t;
          };
          if (src_frac.empty()) {
            route_from(topo_->LocalMemNode(
                           sim::DeviceId::Cpu(topo_->HostSocketOf(dev))),
                       1.0);
          }
          for (const auto& [node, f] : src_frac) route_from(node, f);
          if (transfer > 0) {
            ic.transfer_time = transfer;
            for (const auto& [link, t] : by_link) {
              if (ic.link < 0 || t > by_link[ic.link]) ic.link = link;
            }
            ic.block_time = sim::MaxT(ic.block_time, transfer);
          }
        }
        out.push_back(ic);
      }
    }
    return out;
  };

  // --- Shared-link accounting. Every interconnect link — PCIe, GPU peer and
  // inter-socket — is a serially-shared resource: DMA demand from
  // concurrently-running stages (stage-A input DMA and stage-B wire DMA of a
  // split plan land on the same link) serializes, so a phase can never finish
  // before its links drained their total occupancy — plus whatever backlog
  // other in-flight queries queued there (the scheduler's load signal).
  const int n_links = topo_->num_links();
  std::vector<double> build_link_busy(n_links, 0.0);
  std::vector<double> fact_link_busy(n_links, 0.0);
  auto link_backlog = [&](int l) {
    return l < static_cast<int>(options_.link_backlog.size())
               ? options_.link_backlog[l]
               : 0.0;
  };
  auto add_link_busy = [](std::vector<double>* busy,
                          const std::vector<InstanceCost>& insts) {
    for (const auto& ic : insts) {
      if (ic.link >= 0 && ic.link < static_cast<int>(busy->size())) {
        (*busy)[ic.link] += static_cast<double>(ic.blocks) * ic.transfer_time;
      }
    }
  };

  // ------------------------------------------------------------------ builds
  // The runtime's build schedule: every unit receives each block once,
  // rotated over its W instances (priced at the W-way fluid share), and runs
  // the joins one after another — a unit's build phase is the sum over joins.
  // Build-side filter stages run first, each core's one after another, and
  // their builds receive the survivors' packed blocks: a socket builds after
  // its cores' filters, a GPU pipelines behind the filters' output.
  std::map<sim::DeviceId, sim::VTime> unit_build;
  std::map<Core, sim::VTime> core_filter;  // core -> end of its filter share
  sim::VTime filters_done = 0;  // the latest core's filter end so far
  auto note_transfer = [&](const std::vector<InstanceCost>& insts) {
    add_link_busy(&build_link_busy, insts);
    for (const auto& ic : insts) {
      est.transfer = sim::MaxT(
          est.transfer, static_cast<double>(ic.blocks) * ic.transfer_time);
    }
  };
  // Blocks of `stage`'s segmenter over `rows` rows: (blocks, rows per block);
  // the source's per-block cost bounds the build phase.
  auto scan_blocks = [&](const Stage& stage, uint64_t rows,
                         const storage::Table** src_table) {
    const HetOpNode& seg = plan.node(stage.in.segmenter);
    *src_table = catalog_->Get(seg.table);
    const uint64_t block_rows = ScanBlockRows(seg, stage.instances, *src_table,
                                              *topo_, options_.pack_block_rows);
    const uint64_t blocks = std::max<uint64_t>(1, CeilDiv(rows, block_rows));
    const double per_block = seg.per_block_cost + stage.in.control_cost;
    est.build = sim::MaxT(est.build, static_cast<double>(blocks) * per_block);
    return std::make_pair(blocks, std::min(block_rows, std::max<uint64_t>(1, rows)));
  };
  for (const Stage& stage : shape.build_stages) {
    const int join_id = stage.span().join_id;
    const size_t j = join_id >= 0 ? static_cast<size_t>(join_id) : 0;
    const uint64_t rows =
        j < cards_.build_input_rows.size() ? cards_.build_input_rows[j] : 1;
    const bool filtered = stage.filter_stage >= 0 && j < spec_->joins.size();

    // Filter stage: the dimension's blocks distributed over its instances,
    // each core's share after its previous ones.
    std::set<sim::DeviceId> filter_units;
    uint64_t filter_instances = 0;
    if (filtered) {
      const Stage& fs = shape.build_filter_stages[stage.filter_stage];
      const storage::Table* src_table = nullptr;
      const auto [blocks, rows_per_block] = scan_blocks(fs, rows, &src_table);
      uint64_t n_cols = 1;
      const Profile profile = build_filter_profile(j, &n_cols);
      std::vector<InstanceCost> insts = stage_instances(
          fs, profile, rows_per_block, profile.bytes_read, n_cols, src_table);
      DistributeBlocks(fs.in.policy, blocks, &insts);
      for (size_t k = 0; k < insts.size(); ++k) {
        sim::VTime& t = core_filter[fs.cores[k]];
        t += static_cast<double>(insts[k].blocks) * insts[k].block_time;
        filters_done = sim::MaxT(filters_done, t);
        filter_units.insert(fs.instances[k]);
      }
      filter_instances = fs.instances.size();
      note_transfer(insts);
    }

    // Build: raw dimension blocks from the segmenter, or the survivors' packed
    // blocks (each filter instance flushes a partial one at its end).
    uint64_t blocks = 0;
    uint64_t rows_per_block = 1;
    uint64_t n_cols = 1;
    const Profile profile = build_profile(j, filtered, &n_cols);
    const storage::Table* src_table = nullptr;
    if (filtered) {
      const uint64_t survivors = cards_.build_rows[j];
      blocks = CeilDiv(survivors, options_.pack_block_rows) + filter_instances;
      rows_per_block = std::max<uint64_t>(
          1, std::min<uint64_t>(options_.pack_block_rows, survivors / blocks));
    } else {
      std::tie(blocks, rows_per_block) = scan_blocks(stage, rows, &src_table);
    }
    std::vector<InstanceCost> insts = stage_instances(
        stage, profile, rows_per_block, profile.bytes_read, n_cols, src_table);
    std::map<sim::DeviceId, std::vector<size_t>> by_unit;
    for (size_t k = 0; k < stage.instances.size(); ++k) {
      by_unit[stage.instances[k]].push_back(k);
    }
    for (const auto& [unit, members] : by_unit) {
      sim::VTime done = 0;
      sim::VTime block_time = 0;
      for (size_t r = 0; r < members.size(); ++r) {
        InstanceCost& ic = insts[members[r]];
        ic.blocks = blocks / members.size() + (r < blocks % members.size() ? 1 : 0);
        done = sim::MaxT(done, static_cast<double>(ic.blocks) * ic.block_time);
        block_time = sim::MaxT(block_time, ic.block_time);
      }
      sim::VTime& t = unit_build[unit];
      if (!filtered || filter_units.count(unit) > 0) {
        t += done;
      } else {
        // The blocks stream in while the filter runs; the partial ones its
        // instances flush at their ends arrive last.
        const uint64_t tail = std::min(blocks, filter_instances);
        const double streamed =
            static_cast<double>(blocks - tail) / static_cast<double>(members.size());
        t = sim::MaxT(t + streamed * block_time, filters_done) +
            static_cast<double>(tail) * block_time;
      }
    }
    note_transfer(insts);
  }
  // A unit with filter instances builds after its slowest core's filters.
  std::map<sim::DeviceId, sim::VTime> unit_filters;
  for (const auto& [core, t] : core_filter) {
    sim::VTime& u = unit_filters[core.unit];
    u = sim::MaxT(u, t);
  }
  for (const auto& [unit, t] : unit_filters) unit_build[unit] += t;
  for (const auto& [unit, t] : unit_build) est.build = sim::MaxT(est.build, t);
  // Build networks share the links (and queue behind in-flight queries): the
  // phase cannot beat any link's total occupancy.
  for (int l = 0; l < n_links; ++l) {
    if (build_link_busy[l] > 0) {
      est.build = sim::MaxT(est.build, link_backlog(l) + build_link_busy[l]);
    }
  }

  // ------------------------------------------------------------- fact stages
  // Producer→consumer: the source-fed stage is last in the walk order.
  double rows_in = static_cast<double>(cards_.fact_rows);
  bool from_table = true;
  std::vector<double> probe_out_rows;  // per probe instance: surviving rows
  std::vector<sim::VTime> stage_done;  // per stage: throughput-bound completion
  std::vector<sim::VTime> stage_drain; // per stage: one block's traversal (tail)
  sim::VTime latency_constants = 0;

  for (size_t i = shape.fact_stages.size(); i-- > 0;) {
    const Stage& stage = shape.fact_stages[i];
    const StageRole role = stage.span().role;
    latency_constants += stage.in.crossing_latency;

    if (role == StageRole::kGather) {
      // Partial-aggregate merge: one row per group per probe instance (scalar
      // aggregation: one row per instance).
      const double cap = spec_->group_by.empty()
                             ? 1.0
                             : static_cast<double>(spec_->expected_groups);
      double partials = 0;
      for (double r : probe_out_rows) partials += std::min(cap, std::max(r, 1.0));
      if (probe_out_rows.empty()) partials = 1;
      Profile p;
      p.bytes_read = 8.0 * (1 + static_cast<double>(n_aggs));
      p.ops = static_cast<double>(n_aggs) + 2;
      if (!spec_->group_by.empty()) p.AddAccess(cm, agg_ht_bytes, 1);
      const sim::CostStats s = p.Scale(partials);
      est.gather =
          cm.WorkCost(s, cm.cpu, cm.cpu_core_bw) +
          static_cast<double>(probe_out_rows.size()) * stage.in.control_cost;
      continue;
    }

    const HetOpNode* seg =
        stage.in.segmenter >= 0 ? &plan.node(stage.in.segmenter) : nullptr;
    const storage::Table* src_table =
        seg != nullptr ? catalog_->Get(seg->table) : nullptr;
    const uint64_t block_rows =
        seg != nullptr ? ScanBlockRows(*seg, stage.instances, src_table, *topo_,
                                       options_.pack_block_rows)
                       : options_.pack_block_rows;
    uint64_t blocks = CeilDiv(static_cast<uint64_t>(std::llround(rows_in)),
                              block_rows);
    if (seg == nullptr && i + 1 < shape.fact_stages.size()) {
      // Packed producers flush one partial block per instance at Finish.
      blocks += shape.fact_stages[i + 1].instances.size();
    }
    blocks = std::max<uint64_t>(1, blocks);

    const Profile profile = role == StageRole::kFilterStage
                                ? filter_stage_profile()
                                : probe_profile(from_table);
    const double in_width = from_table ? scan_width : wire_width;
    const uint64_t n_cols = from_table ? scan_cols.size() : wire_cols.size();
    const uint64_t rows_per_block = std::max<uint64_t>(
        1, std::min<uint64_t>(block_rows,
                              static_cast<uint64_t>(std::llround(
                                  std::max(1.0, rows_in / blocks)))));
    std::vector<InstanceCost> insts = stage_instances(
        stage, profile, rows_per_block, in_width, n_cols, src_table);
    sim::VTime done = DistributeBlocks(stage.in.policy, blocks, &insts);

    const double per_block_src = seg != nullptr ? seg->per_block_cost : 0.0;
    done = sim::MaxT(done, static_cast<double>(blocks) *
                               (per_block_src + stage.in.control_cost));
    stage_done.push_back(done);
    add_link_busy(&fact_link_busy, insts);
    sim::VTime slowest_block = 0;
    for (const auto& ic : insts) {
      slowest_block = sim::MaxT(slowest_block, ic.block_time);
      est.transfer = sim::MaxT(
          est.transfer, static_cast<double>(ic.blocks) * ic.transfer_time);
    }
    stage_drain.push_back(slowest_block);

    // Rows entering the consumer stage / partials entering gather.
    if (role == StageRole::kFilterStage) {
      rows_in *= cards_.fact_selectivity;
      from_table = false;
    } else {  // probe
      const double survive =
          (from_table ? cards_.fact_selectivity : 1.0) * total_join_sel;
      probe_out_rows.clear();
      for (const auto& ic : insts) {
        probe_out_rows.push_back(static_cast<double>(ic.blocks) *
                                 static_cast<double>(rows_per_block) * survive);
      }
    }
  }

  // Pipelined stages: the phase is bottleneck-bound, plus a drain term — the
  // last block still traverses every non-bottleneck stage after the bottleneck
  // finishes. This is what separates a split plan (extra exchange + stage) from
  // its fused sibling when both are bottlenecked on the same source stage.
  sim::VTime fact_phase = 0;
  size_t bottleneck = 0;
  for (size_t s = 0; s < stage_done.size(); ++s) {
    if (stage_done[s] > fact_phase) {
      fact_phase = stage_done[s];
      bottleneck = s;
    }
  }
  for (size_t s = 0; s < stage_drain.size(); ++s) {
    if (s != bottleneck) fact_phase += stage_drain[s];
  }
  // Pipelined fact stages contend for the links concurrently: the phase is
  // bounded below by each link's serialized DMA occupancy. Cross-query backlog
  // drains while this query's builds run, so only the residual carries over.
  for (int l = 0; l < n_links; ++l) {
    if (fact_link_busy[l] > 0) {
      const double residual = std::max(0.0, link_backlog(l) - est.build);
      fact_phase = sim::MaxT(fact_phase, residual + fact_link_busy[l]);
    }
  }

  est.probe = fact_phase + latency_constants;
  // The build phase is a global barrier here on purpose: the runtime starts
  // each probe unit at its own replicas' readiness, so this sum is an upper
  // bound on it. Pricing the per-unit starts (seeding DistributeBlocks with
  // each unit's build completion) was tried: it flipped near-tie block-size
  // picks (b512 -> b2048 on Q2.1/Q3.3/Q3.4) and cost 0.7% modeled time on
  // the PCIe-streaming SSB workload.
  est.total = est.init + est.build + est.probe + est.gather;
  return est;
}

}  // namespace hetex::plan
