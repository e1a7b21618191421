#ifndef HETEX_STORAGE_TABLE_H_
#define HETEX_STORAGE_TABLE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "memory/memory_manager.h"
#include "storage/column.h"

namespace hetex::storage {

/// \brief Lightweight per-column statistics for planner cardinality estimation.
///
/// Computed lazily from a bounded stride sample of the staging data (a real
/// engine's ANALYZE). `sampled == 0` means no staging rows were available
/// (e.g. after DropStaging); estimators must fall back to catalog defaults.
struct ColumnStats {
  int64_t min = 0;
  int64_t max = 0;
  uint64_t distinct = 0;  ///< estimated distinct values (exact when fully sampled)
  uint64_t sampled = 0;   ///< rows the estimate was computed from
};

/// \brief A placed columnar table.
///
/// Data is generated into host staging vectors, then Place() distributes it as
/// contiguous per-column chunks over a set of memory nodes (the paper evenly
/// distributes the dataset across the sockets for CPU experiments, or pre-loads
/// columns into GPU device memory for the Fig. 4 regime). All columns share the
/// same chunking so scans stay row-aligned.
class Table {
 public:
  explicit Table(std::string name) : name_(std::move(name)) {}
  ~Table();

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  Column* AddColumn(const std::string& name, ColType type);

  const std::string& name() const { return name_; }
  uint64_t rows() const { return columns_.empty() ? 0 : columns_[0]->rows(); }
  int num_columns() const { return static_cast<int>(columns_.size()); }

  int ColumnIndex(const std::string& name) const;
  /// Like ColumnIndex, but returns -1 instead of aborting when absent.
  int FindColumn(const std::string& name) const;
  Column& column(int idx) { return *columns_.at(idx); }
  const Column& column(int idx) const { return *columns_.at(idx); }
  const Column& column(const std::string& name) const {
    return *columns_.at(ColumnIndex(name));
  }

  /// One placed slice of the table: rows [row_begin, row_begin + rows) on `node`.
  struct Chunk {
    uint64_t row_begin;
    uint64_t rows;
    sim::MemNodeId node;
    std::vector<std::byte*> col_data;  ///< one buffer per column, in its code
  };

  /// Distributes rows evenly over `nodes` (one chunk per node), allocating chunk
  /// buffers from each node's memory manager. Each column is stored in the
  /// narrowest code its staged values' range needs (Column::code): as
  /// value − base at the narrowest width that covers hi − lo, with base 0
  /// whenever a base would not narrow the plain signed width. A scan, a PCIe
  /// transfer or a pack of the column moves that many bytes per row. The
  /// code comes from the range Column::Append tracks, so placement scans
  /// nothing to pick it.
  /// InvalidArgument, placing nothing, when a column declared unique
  /// (Column::unique) holds a value twice.
  Status Place(const std::vector<sim::MemNodeId>& nodes,
               memory::MemoryRegistry* mem);

  bool placed() const { return !chunks_.empty(); }
  const std::vector<Chunk>& chunks() const { return chunks_; }

  /// Bytes of the named columns (planner working-set estimates, e.g. the
  /// fits-in-GPU-memory decision for Fig. 4 vs Fig. 5).
  uint64_t ColumnSetBytes(const std::vector<std::string>& cols) const;

  /// Planner statistics of column `idx`: min/max/distinct over a bounded stride
  /// sample of the staging data. Computed on first request and cached;
  /// `sampled == 0` when staging was dropped before stats were taken.
  ColumnStats column_stats(int idx) const;

  /// \brief Row sample for planner selectivity probes.
  ///
  /// Invokes `fn(row)` for up to `max_rows` evenly-strided staging rows and
  /// returns the number of rows visited (0 when staging is unavailable). The
  /// coster evaluates filter predicates over this sample to estimate
  /// selectivities the way an engine would from a catalog sample.
  uint64_t SampleRows(uint64_t max_rows,
                      const std::function<void(uint64_t)>& fn) const;

  /// Frees the staging vectors after Place() when no reference evaluation will
  /// read them (large synthetic benchmark inputs). Each column keeps its code;
  /// a later Place() picks it again from the rows appended since.
  void DropStaging();

  /// \name Content version
  /// Monotone counter bumped whenever the table's placed content changes
  /// (every Place(), plus explicit NoteMutation() calls from ingest paths).
  /// Cross-query caches — the serving layer's result cache and shared
  /// hash-table builds — embed this epoch in their content keys, so a
  /// mutation invalidates every cached artifact derived from the old data.
  /// @{
  uint64_t mutation_epoch() const {
    return mutation_epoch_.load(std::memory_order_acquire);
  }
  void NoteMutation() {
    mutation_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  /// @}

 private:
  void Unplace();

  std::string name_;
  std::vector<std::unique_ptr<Column>> columns_;
  std::unordered_map<std::string, int> col_index_;
  std::vector<Chunk> chunks_;
  memory::MemoryRegistry* placed_mem_ = nullptr;

  std::atomic<uint64_t> mutation_epoch_{0};

  mutable std::mutex stats_mu_;
  mutable std::unordered_map<int, ColumnStats> stats_cache_;
};

/// Name -> table registry.
class Catalog {
 public:
  Table* CreateTable(const std::string& name);
  Table* Get(const std::string& name) const;
  Table& at(const std::string& name) const;

 private:
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace hetex::storage

#endif  // HETEX_STORAGE_TABLE_H_
