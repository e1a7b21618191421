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

/// Fractions of `t`'s sampled staging rows that reach each conjunct of
/// `filter` (Conjuncts: the rows the conjuncts before it passed) and, last,
/// that pass them all. Empty without a filter or when the sample is
/// unavailable (dropped staging, missing columns); `sampled` receives the
/// sample's rows.
std::vector<double> SampleConjunctReach(const storage::Table& t,
                                        const ExprPtr& filter, uint64_t* sampled) {
  *sampled = 0;
  if (filter == nullptr) return {};
  std::set<std::string> cols;
  filter->CollectColumns(&cols);
  for (const auto& c : cols) {
    if (t.FindColumn(c) < 0) return {};
  }
  const std::vector<ExprPtr> conjuncts = Conjuncts(filter);
  std::vector<uint64_t> reached(conjuncts.size() + 1, 0);
  *sampled = t.SampleRows(4096, [&](uint64_t r) {
    const RowGetter row = [&](const std::string& name) {
      return t.column(name).At(r);
    };
    size_t k = 0;
    ++reached[0];
    while (k < conjuncts.size() && conjuncts[k]->Eval(row) != 0) ++reached[++k];
  });
  if (*sampled == 0) return {};
  std::vector<double> reach;
  for (uint64_t n : reached) {
    reach.push_back(static_cast<double>(n) / static_cast<double>(*sampled));
  }
  return reach;
}

/// Survival fraction of `filter` from its sampled conjunct reach; `fallback`
/// when the sample is unavailable.
double Selectivity(const ExprPtr& filter, const std::vector<double>& reach,
                   uint64_t sampled, double fallback) {
  if (filter == nullptr) return 1.0;
  if (reach.empty()) return fallback;
  // Clamp away from exactly zero: a sample miss is not proof of emptiness.
  return std::max(reach.back(), 0.5 / static_cast<double>(sampled));
}

uint64_t CeilDiv(uint64_t a, uint64_t b) { return b == 0 ? 0 : (a + b - 1) / b; }

/// NotFound naming the first table or column the query's programs read that
/// `catalog` lacks (the compiler CHECKs on it). Payload columns resolve to
/// probe registers, not to fact columns.
Status CheckReadable(const QuerySpec& spec, const storage::Catalog& catalog) {
  auto read = [&](const std::string& name, const std::set<std::string>& cols) {
    const storage::Table* t = catalog.Get(name);
    if (t == nullptr) return Status::NotFound("table '" + name + "' not in the catalog");
    for (const auto& c : cols) {
      if (t->FindColumn(c) < 0) {
        return Status::NotFound("no column '" + c + "' in table " + name);
      }
    }
    return Status::OK();
  };
  std::set<std::string> fact_cols, tail_cols;
  if (spec.fact_filter != nullptr) spec.fact_filter->CollectColumns(&fact_cols);
  for (const auto& agg : spec.aggs) {
    if (agg.value != nullptr) agg.value->CollectColumns(&tail_cols);
  }
  for (const auto& g : spec.group_by) g->CollectColumns(&tail_cols);
  for (const JoinSpec& join : spec.joins) {
    fact_cols.insert(join.probe_key);
    for (const auto& p : join.payload) tail_cols.erase(p);
    std::set<std::string> cols(join.payload.begin(), join.payload.end());
    cols.insert(join.build_key);
    if (join.build_filter != nullptr) join.build_filter->CollectColumns(&cols);
    HETEX_RETURN_NOT_OK(read(join.build_table, cols));
  }
  fact_cols.merge(tail_cols);
  return read(spec.fact_table, fact_cols);
}

/// One instance's pricing inputs for a stage.
struct InstanceCost {
  sim::VTime block_time = 0;     ///< per-block completion (compute/transfer max)
  sim::VTime transfer_time = 0;  ///< per-block interconnect share (diagnostic)
  int link = -1;                 ///< link id the per-block transfer occupies
  uint64_t blocks = 0;           ///< assigned by the distribution model
  sim::CostStats block_stats;    ///< the work of one block
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
  uint64_t sampled = 0;
  if (fact != nullptr) {
    c.fact_filter_reach = SampleConjunctReach(*fact, spec.fact_filter, &sampled);
  }
  c.fact_selectivity =
      Selectivity(spec.fact_filter, c.fact_filter_reach, sampled, 1.0);

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
    std::vector<double> reach;
    if (build != nullptr) {
      reach = SampleConjunctReach(*build, join.build_filter, &sampled);
    }
    const double sel = build != nullptr
                           ? Selectivity(join.build_filter, reach, sampled, fallback)
                           : fallback;
    c.build_filter_reach.push_back(std::move(reach));
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

sim::CostStats RowWork::Scale(double rows) const {
  auto n = [&](double per_row) {
    return static_cast<uint64_t>(std::llround(per_row * rows));
  };
  sim::CostStats s;
  s.tuples = n(1);
  s.ops = n(ops);
  s.near_accesses = n(near);
  s.mid_accesses = n(mid);
  s.far_accesses = n(far);
  s.atomics = n(atomics);
  s.bytes_read = n(bytes_read);
  s.bytes_written = n(bytes_written);
  return s;
}

RowWork WalkProgram(const CompiledPipeline& pipeline, const GuardRates& rates,
                    const QuerySpec& spec, const storage::Catalog& catalog) {
  using jit::OpCode;
  const std::vector<jit::Instr>& code = pipeline.program.code;
  int filters = 0;
  for (const jit::Instr& in : code) filters += in.op == OpCode::kFilter;
  double out_width = 0;
  for (const ColSlot& c : pipeline.output_cols) out_width += c.width;
  auto rate = [](const std::vector<double>& v, size_t i) {
    return i < v.size() ? v[i] : 1.0;
  };
  RowWork w;
  auto access = [&](uint8_t cls, double p) {
    (cls == 0 ? w.near : cls == 1 ? w.mid : w.far) += p;
  };
  double reach = 1.0;
  int filter = 0;
  std::vector<std::pair<int, double>> loops;  // (exit pc, reach before the probe)
  for (int pc = 0; pc < static_cast<int>(code.size()); ++pc) {
    for (; !loops.empty() && loops.back().first == pc; loops.pop_back()) {
      reach = loops.back().second;
    }
    const jit::Instr& in = code[pc];
    w.ops += reach;
    switch (in.op) {
      case OpCode::kLoadCol:
        w.bytes_read += reach * pipeline.input_cols[in.b].width;
        break;
      case OpCode::kFilter:
        ++filter;
        reach = filter == filters ? rates.filter_pass
                                  : rate(rates.filter_reach, static_cast<size_t>(filter));
        break;
      case OpCode::kHtProbeInit:
        access(in.cls, reach);
        loops.emplace_back(in.d, reach);
        reach *= rate(rates.join_matches, pipeline.ht_join_slots[in.c]);
        break;
      case OpCode::kHtInsert: {
        const JoinSpec& join = spec.joins[pipeline.ht_join_slots[in.a]];
        access(in.cls, reach);
        w.atomics += reach;
        w.bytes_written += reach * JoinHtLayout(join, catalog).stride();
        break;
      }
      case OpCode::kGroupByAgg:
        access(in.cls, reach);
        break;
      case OpCode::kEmit:
        w.bytes_written += reach * out_width;
        break;
      default:
        break;
    }
  }
  return w;
}

PlanCoster::PlanCoster(const QuerySpec& spec, const storage::Catalog& catalog,
                       const sim::Topology& topo, Options options)
    : spec_(&spec),
      catalog_(&catalog),
      topo_(&topo),
      options_(options),
      cards_(EstimateCardinalities(spec, catalog)),
      readable_(CheckReadable(spec, catalog)) {
  if (!readable_.ok()) return;
  // Each span shape's program, compiled once: its walk depends on the spec,
  // the catalog and the cardinalities, never on the candidate.
  const QueryCompiler compiler(spec, catalog, topo.cost_model());
  const GuardRates fact{cards_.fact_filter_reach, cards_.fact_selectivity,
                        cards_.join_selectivities};
  auto price = [&](const CompiledPipeline& p, const GuardRates& rates,
                   bool full_width = true) {
    SpanWork out{WalkProgram(p, rates, spec, catalog), p.input_cols.size()};
    if (full_width) {
      out.row.bytes_read = 0;
      for (const ColSlot& c : p.input_cols) out.row.bytes_read += c.width;
    }
    return out;
  };
  probe_ = price(compiler.CompileProbe(), fact);
  gather_ = price(compiler.CompileGather(), {});
  for (size_t j = 0; j < spec.joins.size(); ++j) {
    // A build filter's survivors are priced at the join selectivity.
    const GuardRates build{cards_.build_filter_reach[j],
                           cards_.join_selectivities[j], {}};
    const int join = static_cast<int>(j);
    const CompiledPipeline filter = compiler.CompileBuildFilter(join);
    build_.push_back(price(compiler.CompileBuild(join), build));
    filter_.push_back(price(filter, build, /*full_width=*/false));
    packed_build_.push_back(price(compiler.CompileBuild(join, &filter.output_cols), {}));
  }
}

Result<CostEstimate> PlanCoster::Cost(const HetPlan& plan) const {
  HETEX_RETURN_NOT_OK(readable_);
  const sim::CostModel& cm = topo_->cost_model();
  Result<PlanAnalysis> analysis = AnalyzePlan(plan, *topo_);
  if (!analysis.ok()) return analysis.status();
  const PlanAnalysis& shape = analysis.value();
  HETEX_RETURN_NOT_OK(CheckUvaSources(plan, shape, *catalog_, *topo_));

  CostEstimate est;
  est.init = shape.init_latency + options_.pool_wait;

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

  auto stage_instances = [&](const Stage& stage, const SpanWork& work,
                             uint64_t block_rows,
                             const storage::Table* src_table) {
    std::vector<InstanceCost> out;
    // CPU workers share their socket's DRAM bandwidth — with this candidate's
    // own workers and with every other in-flight session's (the runtime's
    // cross-session fluid-share divisor).
    std::map<int, int> socket_workers;
    for (const auto& dev : stage.instances) {
      if (dev.is_cpu()) socket_workers[dev.index] += 1;
    }
    const uint64_t cols = std::max<uint64_t>(1, work.cols);
    const sim::CostStats block_stats =
        work.row.Scale(static_cast<double>(block_rows));
    const std::map<sim::MemNodeId, double> src_frac = node_fractions(src_table);
    const double block_bytes =
        static_cast<double>(block_rows) * work.row.bytes_read;
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
        ic.block_stats = block_stats;
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
            const double t = f * topo_->RouteSeconds(route, block_bytes, cols);
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
  // inter-socket — is a serially-shared resource: the DMA demand of a phase's
  // concurrently-running instances (every GPU branch's input DMA over its
  // links) serializes, so a phase can never finish before its links drained
  // their total occupancy — plus whatever backlog other in-flight queries
  // queued there (the scheduler's load signal).
  const int n_links = topo_->num_links();
  std::vector<double> build_link_busy(n_links, 0.0);
  std::vector<double> fact_link_busy(n_links, 0.0);
  auto link_backlog = [&](int l) {
    return l < static_cast<int>(options_.link_backlog.size())
               ? options_.link_backlog[l]
               : 0.0;
  };
  // A priced stage: its link occupancy, its work and its transfers' share of
  // the critical path.
  auto note_work = [&](std::vector<double>* link_busy,
                       const std::vector<InstanceCost>& insts) {
    for (const auto& ic : insts) {
      const double transfer = static_cast<double>(ic.blocks) * ic.transfer_time;
      if (ic.link >= 0 && ic.link < n_links) (*link_busy)[ic.link] += transfer;
      est.work.Add(ic.block_stats.Times(ic.blocks));
      est.transfer = sim::MaxT(est.transfer, transfer);
    }
  };

  // ------------------------------------------------------------------ builds
  // The runtime's build schedule: every unit receives each block once, on
  // its instance with the fewest rows so far (priced as an even share of the
  // blocks over its W instances), and runs the joins one after another — a
  // unit's build phase is the sum over joins.
  // Build-side filter stages run first, each core's one after another, and
  // their builds receive the survivors' packed blocks: a socket builds after
  // its cores' filters, a GPU pipelines behind the filters' output.
  std::map<sim::DeviceId, sim::VTime> unit_build;
  std::map<Core, sim::VTime> core_filter;  // core -> end of its filter share
  sim::VTime filters_done = 0;  // the latest core's filter end so far
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
    if (join_id < 0 || join_id >= static_cast<int>(spec_->joins.size())) {
      return Status::InvalidArgument(
          "build span stamped with join id " + std::to_string(join_id) +
          " but the query has " + std::to_string(spec_->joins.size()) +
          " join(s)");
    }
    const size_t j = static_cast<size_t>(join_id);
    const uint64_t rows = cards_.build_input_rows[j];
    const bool filtered = stage.filter_stage >= 0;

    // Filter stage: the dimension's blocks distributed over its instances,
    // each core's share after its previous ones.
    std::set<sim::DeviceId> filter_units;
    uint64_t filter_instances = 0;
    if (filtered) {
      const Stage& fs = shape.build_filter_stages[stage.filter_stage];
      const storage::Table* src_table = nullptr;
      const auto [blocks, rows_per_block] = scan_blocks(fs, rows, &src_table);
      std::vector<InstanceCost> insts =
          stage_instances(fs, filter_[j], rows_per_block, src_table);
      DistributeBlocks(fs.in.policy, blocks, &insts);
      for (size_t k = 0; k < insts.size(); ++k) {
        sim::VTime& t = core_filter[fs.cores[k]];
        t += static_cast<double>(insts[k].blocks) * insts[k].block_time;
        filters_done = sim::MaxT(filters_done, t);
        filter_units.insert(fs.instances[k]);
      }
      filter_instances = fs.instances.size();
      note_work(&build_link_busy, insts);
    }

    // Build: raw dimension blocks from the segmenter, or the survivors' packed
    // blocks (each filter instance flushes a partial one at its end).
    uint64_t blocks = 0;
    uint64_t rows_per_block = 1;
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
        stage, filtered ? packed_build_[j] : build_[j], rows_per_block, src_table);
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
    note_work(&build_link_busy, insts);
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

  // ------------------------------------------------------------- probe stage
  const Stage& probe = shape.probe;
  const HetOpNode& seg = plan.node(probe.in.segmenter);
  const storage::Table* src_table = catalog_->Get(seg.table);
  const uint64_t block_rows = ScanBlockRows(seg, probe.instances, src_table, *topo_,
                                            options_.pack_block_rows);
  const double rows_in = static_cast<double>(cards_.fact_rows);
  const uint64_t blocks = std::max<uint64_t>(
      1, CeilDiv(static_cast<uint64_t>(std::llround(rows_in)), block_rows));
  const uint64_t rows_per_block = std::max<uint64_t>(
      1, std::min<uint64_t>(block_rows, static_cast<uint64_t>(std::llround(
                                            std::max(1.0, rows_in / blocks)))));
  std::vector<InstanceCost> insts =
      stage_instances(probe, probe_, rows_per_block, src_table);
  sim::VTime fact_phase = DistributeBlocks(probe.in.policy, blocks, &insts);
  fact_phase = sim::MaxT(fact_phase, static_cast<double>(blocks) *
                                         (seg.per_block_cost + probe.in.control_cost));
  note_work(&fact_link_busy, insts);
  // The probe instances contend for the links concurrently: the phase is
  // bounded below by each link's serialized DMA occupancy. Cross-query backlog
  // drains while this query's builds run, so only the residual carries over.
  for (int l = 0; l < n_links; ++l) {
    if (fact_link_busy[l] > 0) {
      const double residual = std::max(0.0, link_backlog(l) - est.build);
      fact_phase = sim::MaxT(fact_phase, residual + fact_link_busy[l]);
    }
  }
  est.probe = fact_phase + (probe.in.crossing_latency +
                            shape.gather.in.crossing_latency);

  // ------------------------------------------------------------------ merge
  // The partitioned merge. Each probe instance ships one row per group it saw
  // (a scalar aggregate: one row), split by group hash into one partition per
  // merge instance when there are several; the last producer's split is on
  // the tail. Merge instance k merges a 1/P share of all partials at its
  // P-way share of its socket's bandwidth.
  const Stage& merge = shape.gather;
  double total_join_sel = 1.0;
  for (double js : cards_.join_selectivities) total_join_sel *= js;
  const double survive = cards_.fact_selectivity * total_join_sel;
  const double cap =
      spec_->group_by.empty() ? 1.0 : static_cast<double>(spec_->expected_groups);
  double partials = 0;
  double most = 0;  // one producer's partials
  for (const auto& ic : insts) {
    const double out_rows = static_cast<double>(ic.blocks) *
                            static_cast<double>(rows_per_block) * survive;
    const double rows = std::min(cap, std::max(out_rows, 1.0));
    partials += rows;
    most = std::max(most, rows);
  }
  const size_t merges = merge.instances.size();
  const sim::CostStats share =
      gather_.row.Scale(partials / static_cast<double>(merges));
  std::map<int, int> socket_merges;
  for (const auto& dev : merge.instances) {
    if (dev.is_cpu()) socket_merges[dev.index] += 1;
  }
  sim::VTime merge_time = 0;
  for (const auto& dev : merge.instances) {
    est.work.Add(share);
    merge_time = sim::MaxT(
        merge_time,
        dev.is_cpu()
            ? cm.WorkCost(share, cm.cpu,
                          std::min(cm.cpu_core_bw,
                                   cm.cpu_socket_bw / socket_merges[dev.index]))
            : cm.WorkCost(share, cm.gpu, cm.gpu_mem_bw));
  }
  sim::CostStats split;
  if (merges > 1 && !spec_->group_by.empty()) {
    split.ops = static_cast<uint64_t>(std::llround(most));
  }
  est.gather = cm.ComputeTime(split, cm.cpu) + merge_time +
               static_cast<double>(insts.size()) * merge.in.control_cost;

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
