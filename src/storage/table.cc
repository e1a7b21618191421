#include "storage/table.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"

namespace hetex::storage {

Table::~Table() { Unplace(); }

Column* Table::AddColumn(const std::string& name, ColType type) {
  HETEX_CHECK(col_index_.find(name) == col_index_.end())
      << "duplicate column " << name;
  HETEX_CHECK(!placed()) << "cannot add columns to a placed table";
  col_index_[name] = static_cast<int>(columns_.size());
  columns_.push_back(std::make_unique<Column>(name, type));
  return columns_.back().get();
}

int Table::ColumnIndex(const std::string& name) const {
  const int idx = FindColumn(name);
  HETEX_CHECK(idx >= 0) << "no column '" << name << "' in table " << name_;
  return idx;
}

int Table::FindColumn(const std::string& name) const {
  auto it = col_index_.find(name);
  return it == col_index_.end() ? -1 : it->second;
}

Status Table::Place(const std::vector<sim::MemNodeId>& nodes,
                    memory::MemoryRegistry* mem) {
  HETEX_CHECK(!nodes.empty());
  for (const auto& col : columns_) {
    if (!col->unique()) continue;
    std::vector<int64_t> values(col->rows());
    for (uint64_t r = 0; r < values.size(); ++r) values[r] = col->At(r);
    std::sort(values.begin(), values.end());
    const auto dup = std::adjacent_find(values.begin(), values.end());
    if (dup != values.end()) {
      return Status::InvalidArgument("column '" + col->name() + "' of table '" +
                                     name_ + "' is declared unique but holds " +
                                     std::to_string(*dup) + " twice");
    }
  }
  Unplace();
  placed_mem_ = mem;
  NoteMutation();  // (re)placement publishes new content to cross-query caches
  for (auto& col : columns_) col->width_ = col->NarrowestWidth();

  const uint64_t total = rows();
  const uint64_t n = nodes.size();
  const uint64_t per_node = (total + n - 1) / n;
  uint64_t begin = 0;
  for (uint64_t i = 0; i < n && begin < total; ++i) {
    const uint64_t chunk_rows = std::min(per_node, total - begin);
    Chunk chunk;
    chunk.row_begin = begin;
    chunk.rows = chunk_rows;
    chunk.node = nodes[i];
    chunk.col_data.reserve(columns_.size());
    for (auto& col : columns_) {
      auto alloc = mem->manager(nodes[i]).Allocate(chunk_rows * col->width());
      if (!alloc.ok()) {
        Unplace();
        return alloc.status();
      }
      auto* dst = static_cast<std::byte*>(alloc.value());
      col->CopyPlaced(begin, chunk_rows, dst);
      chunk.col_data.push_back(dst);
    }
    chunks_.push_back(std::move(chunk));
    begin += chunk_rows;
  }
  return Status::OK();
}

void Table::Unplace() {
  if (placed_mem_ == nullptr) return;
  for (auto& chunk : chunks_) {
    for (std::byte* p : chunk.col_data) {
      placed_mem_->manager(chunk.node).Free(p);
    }
  }
  chunks_.clear();
  placed_mem_ = nullptr;
}

namespace {

/// Stats-sample bound: large enough that SSB dimension tables are covered
/// exactly, small enough that a fact-table ANALYZE stays trivial.
constexpr uint64_t kStatsSampleRows = 64 * 1024;

}  // namespace

ColumnStats Table::column_stats(int idx) const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  auto it = stats_cache_.find(idx);
  if (it != stats_cache_.end()) return it->second;

  const Column& col = *columns_.at(idx);
  ColumnStats stats;
  const uint64_t total = col.rows();
  if (total > 0) {
    const uint64_t stride = total <= kStatsSampleRows
                                ? 1
                                : (total + kStatsSampleRows - 1) / kStatsSampleRows;
    std::unordered_set<int64_t> seen;
    for (uint64_t r = 0; r < total; r += stride) {
      const int64_t v = col.At(r);
      if (stats.sampled == 0 || v < stats.min) stats.min = v;
      if (stats.sampled == 0 || v > stats.max) stats.max = v;
      seen.insert(v);
      ++stats.sampled;
    }
    const uint64_t observed = seen.size();
    if (stride == 1 || observed * 2 < stats.sampled) {
      // Full scan, or a domain much smaller than the sample: the observed
      // count is (close to) the true distinct count.
      stats.distinct = observed;
    } else {
      // Mostly-unique sample (e.g. a key column): scale linearly.
      stats.distinct = observed * stride;
    }
  }
  stats_cache_[idx] = stats;
  return stats;
}

uint64_t Table::SampleRows(uint64_t max_rows,
                           const std::function<void(uint64_t)>& fn) const {
  const uint64_t total = rows();
  if (total == 0 || max_rows == 0) return 0;
  const uint64_t stride =
      total <= max_rows ? 1 : (total + max_rows - 1) / max_rows;
  uint64_t visited = 0;
  for (uint64_t r = 0; r < total; r += stride) {
    fn(r);
    ++visited;
  }
  return visited;
}

uint64_t Table::ColumnSetBytes(const std::vector<std::string>& cols) const {
  uint64_t bytes = 0;
  for (const auto& c : cols) bytes += column(c).bytes();
  return bytes;
}

void Table::DropStaging() {
  HETEX_CHECK(placed()) << "DropStaging before Place loses the data";
  for (auto& col : columns_) {
    auto fresh = std::make_unique<Column>(col->name(), col->type());
    fresh->set_dictionary(col->dictionary());
    fresh->set_unique(col->unique());
    fresh->width_ = col->width_;
    *col = std::move(*fresh);
  }
}

Table* Catalog::CreateTable(const std::string& name) {
  HETEX_CHECK(tables_.find(name) == tables_.end()) << "duplicate table " << name;
  auto table = std::make_unique<Table>(name);
  Table* ptr = table.get();
  tables_[name] = std::move(table);
  return ptr;
}

Table* Catalog::Get(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Table& Catalog::at(const std::string& name) const {
  Table* t = Get(name);
  HETEX_CHECK(t != nullptr) << "no table " << name;
  return *t;
}

}  // namespace hetex::storage
