#ifndef HETEX_SSB_SSB_H_
#define HETEX_SSB_SSB_H_

#include <memory>
#include <string>
#include <vector>

#include "plan/query_spec.h"
#include "storage/table.h"

namespace hetex::ssb {

/// \brief Star Schema Benchmark database: generator + the 13 query definitions.
///
/// Faithful to O'Neil et al.'s SSB schema and predicate structure (the paper's
/// benchmark, §6): lineorder fact table with date/customer/supplier/part
/// dimensions, selectivities driven by the same dimensional predicates. String
/// attributes are order-preserving dictionary codes; brand
/// sequence numbers are zero-padded so lexicographic order matches numeric order.
///
/// Scale: lineorder has scale * 6,000,000 rows (SF1 = 6M). The evaluation scales
/// the paper's SF100/SF1000 regimes down proportionally.
class Ssb {
 public:
  struct Options {
    double scale = 0.1;
    uint64_t seed = 42;
    uint64_t lineorder_rows = 0;  ///< override (tests); 0 = scale * 6M
    /// Dimension-size overrides (0 = scale-derived). Scaled-down miniatures can
    /// keep the *paper-scale* hash-table size classes (cache- vs DRAM-resident)
    /// by scaling dimensions less aggressively than the fact table.
    uint64_t customer_rows = 0;
    uint64_t supplier_rows = 0;
    uint64_t part_rows = 0;
  };

  /// Generates all five tables into `catalog` (staging only; call
  /// Table::Place to position them on memory nodes).
  Ssb(const Options& options, storage::Catalog* catalog);

  const storage::Dictionary& region_dict() const { return *region_dict_; }
  const storage::Dictionary& nation_dict() const { return *nation_dict_; }
  const storage::Dictionary& city_dict() const { return *city_dict_; }
  const storage::Dictionary& mfgr_dict() const { return *mfgr_dict_; }
  const storage::Dictionary& category_dict() const { return *category_dict_; }
  const storage::Dictionary& brand_dict() const { return *brand_dict_; }
  const storage::Dictionary& yearmonth_dict() const { return *yearmonth_dict_; }

  /// Query definitions; `flight` in 1..4, `idx` 1-based within the flight
  /// (e.g. Query(2, 2) = Q2.2).
  plan::QuerySpec Query(int flight, int idx) const;

  /// All 13 queries in paper order (Q1.1 .. Q4.3).
  std::vector<plan::QuerySpec> AllQueries() const;

  /// Queries in `flight` (1..4) — the single source of the SSB matrix shape.
  /// 0 for out-of-range flights.
  static int FlightSize(int flight);

  /// Names of the fact/dimension columns a query touches (placement planning).
  static std::vector<std::string> FactColumns(const plan::QuerySpec& spec);

  storage::Catalog* catalog() const { return catalog_; }

 private:
  void GenerateDate();
  void GenerateCustomer(uint64_t rows);
  void GenerateSupplier(uint64_t rows);
  void GeneratePart(uint64_t rows);
  void GenerateLineorder(uint64_t rows);

  storage::Catalog* catalog_;
  Options options_;
  std::unique_ptr<storage::Dictionary> region_dict_;
  std::unique_ptr<storage::Dictionary> nation_dict_;
  std::unique_ptr<storage::Dictionary> city_dict_;
  std::unique_ptr<storage::Dictionary> mfgr_dict_;
  std::unique_ptr<storage::Dictionary> category_dict_;
  std::unique_ptr<storage::Dictionary> brand_dict_;
  std::unique_ptr<storage::Dictionary> yearmonth_dict_;
  std::vector<int32_t> datekeys_;  ///< generated date keys (FK domain)
};

}  // namespace hetex::ssb

#endif  // HETEX_SSB_SSB_H_
