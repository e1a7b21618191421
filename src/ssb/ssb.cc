#include "ssb/ssb.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"
#include "common/rng.h"

namespace hetex::ssb {

using plan::And;
using plan::Between;
using plan::Col;
using plan::Eq;
using plan::Ge;
using plan::Le;
using plan::Lit;
using plan::Lt;
using plan::Mul;
using plan::Or;
using plan::Sub;
using storage::ColType;
using storage::Column;
using storage::Dictionary;
using storage::Table;

namespace {

constexpr int kRegions = 5;
const char* kRegionNames[kRegions] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                      "MIDDLE EAST"};
// 5 nations per region, TPC-H style.
const char* kNationNames[25] = {
    "ALGERIA", "ETHIOPIA", "KENYA",     "MOROCCO", "MOZAMBIQUE",   // AFRICA
    "ARGENTINA", "BRAZIL", "CANADA",    "PERU",    "UNITED STATES",  // AMERICA
    "CHINA",   "INDIA",    "INDONESIA", "JAPAN",   "VIETNAM",       // ASIA
    "FRANCE",  "GERMANY",  "ROMANIA",   "RUSSIA",  "UNITED KINGDOM",  // EUROPE
    "EGYPT",   "IRAN",     "IRAQ",      "JORDAN",  "SAUDI ARABIA"};  // MIDDLE EAST

const char* kMonthNames[12] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                               "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};
const int kDaysInMonth[12] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};

/// SSB city: first 9 characters of the nation (space padded) plus a digit.
std::string CityName(int nation, int digit) {
  std::string base = kNationNames[nation];
  base.resize(9, ' ');
  return base + std::to_string(digit);
}

std::string MfgrName(int m) { return "MFGR#" + std::to_string(m); }          // 1..5
std::string CategoryName(int m, int c) {
  return "MFGR#" + std::to_string(m) + std::to_string(c);                    // 11..55
}
std::string BrandName(int m, int c, int b) {                                 // 01..40
  char buf[16];
  std::snprintf(buf, sizeof(buf), "MFGR#%d%d%02d", m, c, b);
  return buf;
}

}  // namespace

Ssb::Ssb(const Options& options, storage::Catalog* catalog)
    : catalog_(catalog), options_(options) {
  // Dictionaries (order-preserving, fixed domains).
  std::vector<std::string> regions(kRegionNames, kRegionNames + kRegions);
  region_dict_ = std::make_unique<Dictionary>(std::move(regions));
  std::vector<std::string> nations(kNationNames, kNationNames + 25);
  nation_dict_ = std::make_unique<Dictionary>(std::move(nations));
  std::vector<std::string> cities;
  for (int n = 0; n < 25; ++n) {
    for (int d = 0; d < 10; ++d) cities.push_back(CityName(n, d));
  }
  city_dict_ = std::make_unique<Dictionary>(std::move(cities));
  std::vector<std::string> mfgrs, categories, brands;
  for (int m = 1; m <= 5; ++m) {
    mfgrs.push_back(MfgrName(m));
    for (int c = 1; c <= 5; ++c) {
      categories.push_back(CategoryName(m, c));
      for (int b = 1; b <= 40; ++b) brands.push_back(BrandName(m, c, b));
    }
  }
  mfgr_dict_ = std::make_unique<Dictionary>(std::move(mfgrs));
  category_dict_ = std::make_unique<Dictionary>(std::move(categories));
  brand_dict_ = std::make_unique<Dictionary>(std::move(brands));
  std::vector<std::string> yearmonths;
  for (int y = 1992; y <= 1998; ++y) {
    for (int m = 0; m < 12; ++m) {
      yearmonths.push_back(std::string(kMonthNames[m]) + std::to_string(y));
    }
  }
  yearmonth_dict_ = std::make_unique<Dictionary>(std::move(yearmonths));

  const double sf = options.scale;
  const uint64_t lo_rows = options.lineorder_rows > 0
                               ? options.lineorder_rows
                               : static_cast<uint64_t>(sf * 6'000'000);
  const auto scaled = [&](double base, uint64_t min_rows) {
    return std::max<uint64_t>(static_cast<uint64_t>(base * sf), min_rows);
  };

  GenerateDate();
  GenerateCustomer(options.customer_rows ? options.customer_rows
                                         : scaled(30'000, 200));
  GenerateSupplier(options.supplier_rows ? options.supplier_rows
                                         : scaled(2'000, 40));
  GeneratePart(options.part_rows ? options.part_rows : scaled(200'000, 400));
  GenerateLineorder(std::max<uint64_t>(lo_rows, 1000));
}

void Ssb::GenerateDate() {
  Table* t = catalog_->CreateTable("date");
  Column* datekey = t->AddColumn("d_datekey", ColType::kInt32);
  datekey->set_unique(true);
  Column* year = t->AddColumn("d_year", ColType::kInt32);
  Column* yearmonthnum = t->AddColumn("d_yearmonthnum", ColType::kInt32);
  Column* weeknuminyear = t->AddColumn("d_weeknuminyear", ColType::kInt32);
  Column* yearmonth = t->AddColumn("d_yearmonth", ColType::kInt32);
  yearmonth->set_dictionary(yearmonth_dict_.get());

  for (int y = 1992; y <= 1998; ++y) {
    int day_of_year = 0;
    for (int m = 0; m < 12; ++m) {
      for (int d = 1; d <= kDaysInMonth[m]; ++d) {
        ++day_of_year;
        const int32_t key = y * 10000 + (m + 1) * 100 + d;
        datekeys_.push_back(key);
        datekey->Append(key);
        year->Append(y);
        yearmonthnum->Append(y * 100 + (m + 1));
        weeknuminyear->Append(1 + (day_of_year - 1) / 7);
        yearmonth->Append(
            yearmonth_dict_->Code(std::string(kMonthNames[m]) + std::to_string(y)));
      }
    }
  }
}

void Ssb::GenerateCustomer(uint64_t rows) {
  Rng rng(options_.seed ^ 0xC0FFEE);
  Table* t = catalog_->CreateTable("customer");
  Column* key = t->AddColumn("c_custkey", ColType::kInt32);
  key->set_unique(true);
  Column* city = t->AddColumn("c_city", ColType::kInt32);
  Column* nation = t->AddColumn("c_nation", ColType::kInt32);
  Column* region = t->AddColumn("c_region", ColType::kInt32);
  city->set_dictionary(city_dict_.get());
  nation->set_dictionary(nation_dict_.get());
  region->set_dictionary(region_dict_.get());

  for (uint64_t i = 0; i < rows; ++i) {
    const int n = static_cast<int>(rng.Uniform(25));
    const int d = static_cast<int>(rng.Uniform(10));
    key->Append(static_cast<int64_t>(i + 1));
    city->Append(city_dict_->Code(CityName(n, d)));
    nation->Append(nation_dict_->Code(kNationNames[n]));
    region->Append(region_dict_->Code(kRegionNames[n / 5]));
  }
}

void Ssb::GenerateSupplier(uint64_t rows) {
  Rng rng(options_.seed ^ 0x5EED5);
  Table* t = catalog_->CreateTable("supplier");
  Column* key = t->AddColumn("s_suppkey", ColType::kInt32);
  key->set_unique(true);
  Column* city = t->AddColumn("s_city", ColType::kInt32);
  Column* nation = t->AddColumn("s_nation", ColType::kInt32);
  Column* region = t->AddColumn("s_region", ColType::kInt32);
  city->set_dictionary(city_dict_.get());
  nation->set_dictionary(nation_dict_.get());
  region->set_dictionary(region_dict_.get());

  for (uint64_t i = 0; i < rows; ++i) {
    const int n = static_cast<int>(rng.Uniform(25));
    const int d = static_cast<int>(rng.Uniform(10));
    key->Append(static_cast<int64_t>(i + 1));
    city->Append(city_dict_->Code(CityName(n, d)));
    nation->Append(nation_dict_->Code(kNationNames[n]));
    region->Append(region_dict_->Code(kRegionNames[n / 5]));
  }
}

void Ssb::GeneratePart(uint64_t rows) {
  Rng rng(options_.seed ^ 0xBEEF);
  Table* t = catalog_->CreateTable("part");
  Column* key = t->AddColumn("p_partkey", ColType::kInt32);
  key->set_unique(true);
  Column* mfgr = t->AddColumn("p_mfgr", ColType::kInt32);
  Column* category = t->AddColumn("p_category", ColType::kInt32);
  Column* brand = t->AddColumn("p_brand1", ColType::kInt32);
  mfgr->set_dictionary(mfgr_dict_.get());
  category->set_dictionary(category_dict_.get());
  brand->set_dictionary(brand_dict_.get());

  for (uint64_t i = 0; i < rows; ++i) {
    const int m = 1 + static_cast<int>(rng.Uniform(5));
    const int c = 1 + static_cast<int>(rng.Uniform(5));
    const int b = 1 + static_cast<int>(rng.Uniform(40));
    key->Append(static_cast<int64_t>(i + 1));
    mfgr->Append(mfgr_dict_->Code(MfgrName(m)));
    category->Append(category_dict_->Code(CategoryName(m, c)));
    brand->Append(brand_dict_->Code(BrandName(m, c, b)));
  }
}

void Ssb::GenerateLineorder(uint64_t rows) {
  Rng rng(options_.seed);
  Table* t = catalog_->CreateTable("lineorder");
  Column* orderdate = t->AddColumn("lo_orderdate", ColType::kInt32);
  Column* custkey = t->AddColumn("lo_custkey", ColType::kInt32);
  Column* partkey = t->AddColumn("lo_partkey", ColType::kInt32);
  Column* suppkey = t->AddColumn("lo_suppkey", ColType::kInt32);
  Column* quantity = t->AddColumn("lo_quantity", ColType::kInt32);
  Column* extendedprice = t->AddColumn("lo_extendedprice", ColType::kInt32);
  Column* discount = t->AddColumn("lo_discount", ColType::kInt32);
  Column* revenue = t->AddColumn("lo_revenue", ColType::kInt32);
  Column* supplycost = t->AddColumn("lo_supplycost", ColType::kInt32);

  const uint64_t customers = catalog_->at("customer").rows();
  const uint64_t suppliers = catalog_->at("supplier").rows();
  const uint64_t parts = catalog_->at("part").rows();

  for (uint64_t i = 0; i < rows; ++i) {
    orderdate->Append(datekeys_[rng.Uniform(datekeys_.size())]);
    custkey->Append(static_cast<int64_t>(rng.Uniform(customers) + 1));
    partkey->Append(static_cast<int64_t>(rng.Uniform(parts) + 1));
    suppkey->Append(static_cast<int64_t>(rng.Uniform(suppliers) + 1));
    const int64_t qty = rng.UniformRange(1, 50);
    const int64_t price = rng.UniformRange(90, 55450);
    const int64_t disc = rng.UniformRange(0, 10);
    quantity->Append(qty);
    extendedprice->Append(price);
    discount->Append(disc);
    revenue->Append(price * (100 - disc) / 100);
    supplycost->Append(rng.UniformRange(54, 33277));
  }
}

plan::QuerySpec Ssb::Query(int flight, int idx) const {
  using jit::AggFunc;
  plan::QuerySpec q;
  q.name = "Q" + std::to_string(flight) + "." + std::to_string(idx);
  q.fact_table = "lineorder";

  // Each join carries the optimizer's cardinality estimate of its filtered
  // build side (selectivity x table rows), the statistic a real engine reads
  // from its catalog.
  auto add_join = [&](const char* table, plan::ExprPtr filter, const char* key,
                      std::vector<std::string> payload, const char* probe_key,
                      double selectivity) {
    plan::JoinSpec join{table, std::move(filter), key, std::move(payload),
                        probe_key};
    const uint64_t rows = catalog_->at(table).rows();
    join.build_rows_estimate =
        std::max<uint64_t>(1, static_cast<uint64_t>(rows * selectivity));
    q.joins.push_back(std::move(join));
  };
  auto date_join = [&](plan::ExprPtr filter, std::vector<std::string> payload,
                       double sel) {
    add_join("date", std::move(filter), "d_datekey", std::move(payload),
             "lo_orderdate", sel);
  };
  auto part_join = [&](plan::ExprPtr filter, std::vector<std::string> payload,
                       double sel) {
    add_join("part", std::move(filter), "p_partkey", std::move(payload),
             "lo_partkey", sel);
  };
  auto supp_join = [&](plan::ExprPtr filter, std::vector<std::string> payload,
                       double sel) {
    add_join("supplier", std::move(filter), "s_suppkey", std::move(payload),
             "lo_suppkey", sel);
  };
  auto cust_join = [&](plan::ExprPtr filter, std::vector<std::string> payload,
                       double sel) {
    add_join("customer", std::move(filter), "c_custkey", std::move(payload),
             "lo_custkey", sel);
  };
  const auto region = [&](const char* r) { return Lit(region_dict_->Code(r)); };
  const auto nation = [&](const char* n) { return Lit(nation_dict_->Code(n)); };
  const auto city = [&](const char* c) { return Lit(city_dict_->Code(c)); };

  if (flight == 1) {
    // sum(lo_extendedprice * lo_discount) with date + quantity/discount filters.
    q.aggs.push_back(
        {Mul(Col("lo_extendedprice"), Col("lo_discount")), AggFunc::kSum,
         "revenue"});
    if (idx == 1) {
      date_join(Eq(Col("d_year"), Lit(1993)), {}, 1.0 / 7);
      q.fact_filter = And(Between(Col("lo_discount"), 1, 3),
                          Lt(Col("lo_quantity"), Lit(25)));
    } else if (idx == 2) {
      date_join(Eq(Col("d_yearmonthnum"), Lit(199401)), {}, 1.0 / 84);
      q.fact_filter = And(Between(Col("lo_discount"), 4, 6),
                          Between(Col("lo_quantity"), 26, 35));
    } else {
      date_join(And(Eq(Col("d_weeknuminyear"), Lit(6)),
                    Eq(Col("d_year"), Lit(1994))),
                {}, 7.0 / 2556);
      q.fact_filter = And(Between(Col("lo_discount"), 5, 7),
                          Between(Col("lo_quantity"), 26, 35));
    }
    q.expected_groups = 1;
    return q;
  }

  if (flight == 2) {
    // sum(lo_revenue) group by d_year, p_brand1.
    if (idx == 1) {
      part_join(Eq(Col("p_category"), Lit(category_dict_->Code("MFGR#12"))),
                {"p_brand1"}, 1.0 / 25);
      supp_join(Eq(Col("s_region"), region("AMERICA")), {}, 1.0 / 5);
    } else if (idx == 2) {
      part_join(Between(Col("p_brand1"), brand_dict_->Code("MFGR#2221"),
                        brand_dict_->Code("MFGR#2228")),
                {"p_brand1"}, 8.0 / 1000);
      supp_join(Eq(Col("s_region"), region("ASIA")), {}, 1.0 / 5);
      q.uses_string_range_predicate = true;  // DBMS G fails Q2.2 (§6.1)
    } else {
      part_join(Eq(Col("p_brand1"), Lit(brand_dict_->Code("MFGR#2221"))),
                {"p_brand1"}, 1.0 / 1000);
      supp_join(Eq(Col("s_region"), region("EUROPE")), {}, 1.0 / 5);
    }
    date_join(nullptr, {"d_year"}, 1.0);
    q.group_by = {Col("d_year"), Col("p_brand1")};
    q.aggs.push_back({Col("lo_revenue"), AggFunc::kSum, "revenue"});
    q.expected_groups = 7 * 1000;
    q.group_domain_cardinality = 7 * 1000;
    return q;
  }

  if (flight == 3) {
    // sum(lo_revenue) by customer/supplier geography and year.
    std::string c_attr = idx == 1 ? "c_nation" : "c_city";
    std::string s_attr = idx == 1 ? "s_nation" : "s_city";
    if (idx == 1) {
      cust_join(Eq(Col("c_region"), region("ASIA")), {c_attr}, 1.0 / 5);
      supp_join(Eq(Col("s_region"), region("ASIA")), {s_attr}, 1.0 / 5);
      date_join(Between(Col("d_year"), 1992, 1997), {"d_year"}, 6.0 / 7);
    } else if (idx == 2) {
      cust_join(Eq(Col("c_nation"), nation("UNITED STATES")), {c_attr}, 1.0 / 25);
      supp_join(Eq(Col("s_nation"), nation("UNITED STATES")), {s_attr}, 1.0 / 25);
      date_join(Between(Col("d_year"), 1992, 1997), {"d_year"}, 6.0 / 7);
    } else {
      auto ki = [&](const char* col) {
        return Or(Eq(Col(col), city("UNITED KI1")), Eq(Col(col), city("UNITED KI5")));
      };
      cust_join(ki("c_city"), {c_attr}, 2.0 / 250);
      supp_join(ki("s_city"), {s_attr}, 2.0 / 250);
      if (idx == 3) {
        date_join(Between(Col("d_year"), 1992, 1997), {"d_year"}, 6.0 / 7);
      } else {  // Q3.4
        date_join(Eq(Col("d_yearmonth"), Lit(yearmonth_dict_->Code("Dec1997"))),
                  {"d_year"}, 1.0 / 84);
      }
    }
    q.group_by = {Col(c_attr), Col(s_attr), Col("d_year")};
    q.aggs.push_back({Col("lo_revenue"), AggFunc::kSum, "revenue"});
    q.expected_groups = idx == 1 ? 25 * 25 * 7 : 16 * 1024;
    q.group_domain_cardinality = idx == 1 ? 25 * 25 * 7 : 250 * 250 * 7;
    return q;
  }

  // Flight 4: sum(lo_revenue - lo_supplycost) ("profit").
  HETEX_CHECK(flight == 4);
  if (idx == 1) {
    cust_join(Eq(Col("c_region"), region("AMERICA")), {"c_nation"}, 1.0 / 5);
    supp_join(Eq(Col("s_region"), region("AMERICA")), {}, 1.0 / 5);
    part_join(Or(Eq(Col("p_mfgr"), Lit(mfgr_dict_->Code("MFGR#1"))),
                 Eq(Col("p_mfgr"), Lit(mfgr_dict_->Code("MFGR#2")))),
              {}, 2.0 / 5);
    date_join(nullptr, {"d_year"}, 1.0);
    q.group_by = {Col("d_year"), Col("c_nation")};
    q.group_domain_cardinality = 7 * 25;
  } else if (idx == 2) {
    cust_join(Eq(Col("c_region"), region("AMERICA")), {}, 1.0 / 5);
    supp_join(Eq(Col("s_region"), region("AMERICA")), {"s_nation"}, 1.0 / 5);
    part_join(Or(Eq(Col("p_mfgr"), Lit(mfgr_dict_->Code("MFGR#1"))),
                 Eq(Col("p_mfgr"), Lit(mfgr_dict_->Code("MFGR#2")))),
              {"p_category"}, 2.0 / 5);
    date_join(Or(Eq(Col("d_year"), Lit(1997)), Eq(Col("d_year"), Lit(1998))),
              {"d_year"}, 2.0 / 7);
    q.group_by = {Col("d_year"), Col("s_nation"), Col("p_category")};
    q.group_domain_cardinality = 7 * 25 * 25;
  } else {
    cust_join(Eq(Col("c_region"), region("AMERICA")), {}, 1.0 / 5);
    supp_join(Eq(Col("s_nation"), nation("UNITED STATES")), {"s_city"}, 1.0 / 25);
    part_join(Eq(Col("p_category"), Lit(category_dict_->Code("MFGR#14"))),
              {"p_brand1"}, 1.0 / 25);
    date_join(Or(Eq(Col("d_year"), Lit(1997)), Eq(Col("d_year"), Lit(1998))),
              {"d_year"}, 2.0 / 7);
    q.group_by = {Col("d_year"), Col("s_city"), Col("p_brand1")};
    // year x city x brand: the dense estimation domain that kills DBMS G at
    // non-fitting scale (Q4.3, paper 6.2).
    q.group_domain_cardinality = 7ull * 250 * 1000;
  }
  q.aggs.push_back(
      {Sub(Col("lo_revenue"), Col("lo_supplycost")), jit::AggFunc::kSum, "profit"});
  q.expected_groups = 16 * 1024;
  return q;
}

int Ssb::FlightSize(int flight) {
  static constexpr int kFlights[4] = {3, 3, 4, 3};
  return flight >= 1 && flight <= 4 ? kFlights[flight - 1] : 0;
}

std::vector<plan::QuerySpec> Ssb::AllQueries() const {
  std::vector<plan::QuerySpec> queries;
  for (int f = 1; f <= 4; ++f) {
    for (int i = 1; i <= FlightSize(f); ++i) queries.push_back(Query(f, i));
  }
  return queries;
}

std::vector<std::string> Ssb::FactColumns(const plan::QuerySpec& spec) {
  std::set<std::string> cols;
  if (spec.fact_filter != nullptr) spec.fact_filter->CollectColumns(&cols);
  for (const auto& join : spec.joins) cols.insert(spec.fact_table.empty() ? "" : join.probe_key);
  for (const auto& agg : spec.aggs) {
    if (agg.value != nullptr) agg.value->CollectColumns(&cols);
  }
  std::vector<std::string> out;
  std::set<std::string> payloads;
  for (const auto& join : spec.joins) {
    for (const auto& p : join.payload) payloads.insert(p);
  }
  for (const auto& c : cols) {
    if (!c.empty() && payloads.find(c) == payloads.end()) out.push_back(c);
  }
  return out;
}

}  // namespace hetex::ssb
