#include "baselines/dbms_g.h"

#include <algorithm>

#include "common/timer.h"

namespace hetex::baselines {

core::QueryResult DbmsG::Execute(const plan::QuerySpec& spec,
                                 const OpStats* precomputed) {
  Timer timer;
  core::QueryResult result;
  const sim::Topology& topo = system_->topology();
  const sim::CostModel& cm = topo.cost_model();

  std::vector<int> gpus = options_.gpus;
  if (gpus.empty()) {
    for (int g = 0; g < topo.num_gpus(); ++g) gpus.push_back(g);
  }
  if (gpus.empty()) {
    result.status = Status::InvalidArgument("DBMS G needs at least one GPU");
    return result;
  }

  // Feature gate: string inequality predicates are not executable on device;
  // the engine reverts to (hour-long) CPU execution (§6.1/6.2, Q2.2).
  if (spec.uses_string_range_predicate) {
    result.status = Status::Unsupported(
        "string range predicate: DBMS G reverts to CPU-only execution");
    return result;
  }

  OpStats local;
  if (precomputed == nullptr) {
    local = EvaluateWithStats(spec, system_->catalog());
    precomputed = &local;
  }
  const OpStats& st = *precomputed;

  const uint64_t working_set = st.fact_bytes + st.dim_bytes;
  const bool fits = working_set <= topo.AggregateGpuCapacity();

  // Cardinality-estimation OOM: the dense group-domain estimation buffer (the
  // price of the star-join dense-array approach) no longer fits in device memory
  // alongside the streaming buffers once the working set exceeds capacity
  // (§6.2: Q4.3 at SF1000, whose group domain is year x city x brand).
  if (!fits && spec.group_domain_cardinality >= 1'000'000) {
    result.status = Status::OutOfMemory(
        "cardinality estimation buffers exceed device memory");
    return result;
  }

  const int n_gpus = static_cast<int>(gpus.size());
  const double occ_bw = cm.gpu_mem_bw * options_.occupancy;

  // Per-GPU work: the fact table is co-partitioned across GPUs.
  const double per_gpu = 1.0 / n_gpus;

  // ---------------------------------------------------------------- transfers
  // Non-resident working sets stream from pageable host memory over each GPU's
  // PCIe link; operator-at-a-time leaves little transfer/compute overlap beyond
  // the per-column pipelining the engine manages, so transfer time is the
  // pageable-bandwidth lower bound.
  sim::VTime transfer_time = 0;
  if (!options_.data_on_gpu) {
    const double bytes_per_gpu = static_cast<double>(working_set) * per_gpu;
    transfer_time = bytes_per_gpu / cm.pcie_pageable_bw + cm.dma_latency;
  }

  // ------------------------------------------------------------------ kernels
  sim::CostStats work;  // per GPU
  uint64_t kernels = 0;

  // Dimension preprocessing: build dense arrays dimtable[key] (one kernel per
  // dimension) and evaluate dimension predicates into flag columns that are
  // checked after the star join.
  std::vector<uint64_t> array_bytes(spec.joins.size());
  for (size_t j = 0; j < spec.joins.size(); ++j) {
    const uint64_t stride = 8 + 8 * spec.joins[j].payload.size() + 1;
    array_bytes[j] = st.dim_rows[j] * stride;
    work.bytes_read += st.dim_rows[j] * 16;
    work.bytes_written += array_bytes[j];
    work.tuples += st.dim_rows[j];
    kernels += 2;  // array scatter + predicate flags
  }

  const uint64_t rows = static_cast<uint64_t>(st.fact_rows * per_gpu);
  const storage::Table& fact = system_->catalog().at(spec.fact_table);

  // Fact-side predicate kernel (materializes a flag column).
  if (spec.fact_filter != nullptr) {
    std::set<std::string> cols;
    spec.fact_filter->CollectColumns(&cols);
    uint64_t width = 0;
    for (const auto& c : cols) width += fact.column(c).width();
    work.bytes_read += rows * width;
    work.bytes_written += rows;  // flag column
    work.tuples += rows;
    ++kernels;
  }

  // Star join: one kernel per dimension, each an array lookup over *all* fact
  // rows (filters apply after the join, so selectivity does not narrow the
  // probes); each kernel materializes the gathered payload columns.
  for (size_t j = 0; j < spec.joins.size(); ++j) {
    work.bytes_read += rows * fact.column(spec.joins[j].probe_key).width();
    switch (cm.RandomAccessClass(array_bytes[j])) {
      case 0: work.near_accesses += rows; break;
      case 1: work.mid_accesses += rows; break;
      default: work.far_accesses += rows; break;
    }
    const uint64_t out_bytes = 8 * (spec.joins[j].payload.size() + 1);
    work.bytes_written += rows * out_bytes;
    work.bytes_read += rows * out_bytes;  // read back by the next kernel
    work.tuples += rows;
    ++kernels;
  }

  // Aggregation kernel over the joined+flag-checked rows.
  const uint64_t agg_rows = static_cast<uint64_t>(st.agg_inputs * per_gpu);
  work.bytes_read += rows * 8;  // flags + compacted ids
  work.tuples += rows;
  work.atomics += agg_rows / 8;  // warp-aggregated atomics
  if (!spec.group_by.empty()) {
    const uint64_t agg_ht = st.groups * 2 * (8 + 8 * spec.aggs.size());
    switch (cm.RandomAccessClass(agg_ht)) {
      case 0: work.near_accesses += agg_rows; break;
      case 1: work.mid_accesses += agg_rows; break;
      default: work.far_accesses += agg_rows; break;
    }
  }
  ++kernels;

  const sim::VTime kernel_time =
      cm.WorkCost(work, cm.gpu, occ_bw) + kernels * cm.kernel_launch_latency;

  // Transfers pipeline with kernels across column granularity; the slower of the
  // two dominates, plus the result readback.
  const sim::VTime gpu_time = std::max(transfer_time, kernel_time);
  const sim::VTime readback = st.groups * 24.0 / cm.pcie_bw + cm.dma_latency;

  result.rows = st.rows;
  result.modeled_seconds = options_.startup_seconds + gpu_time + readback;
  result.stats = work;
  result.wall_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace hetex::baselines
