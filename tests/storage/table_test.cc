#include "storage/table.h"

#include <gtest/gtest.h>

#include "common/int_width.h"
#include "memory/memory_manager.h"
#include "sim/topology.h"

namespace hetex::storage {
namespace {

TEST(Dictionary, OrderPreservingCodes) {
  Dictionary d({"banana", "apple", "cherry"});
  EXPECT_EQ(d.size(), 3);
  EXPECT_LT(d.Code("apple"), d.Code("banana"));
  EXPECT_LT(d.Code("banana"), d.Code("cherry"));
  EXPECT_EQ(d.Value(d.Code("banana")), "banana");
}

TEST(Dictionary, Deduplicates) {
  Dictionary d({"x", "y", "x"});
  EXPECT_EQ(d.size(), 2);
}

TEST(Dictionary, RangeBoundsForStringPredicates) {
  // The Q2.2-style translation: BETWEEN 'b' AND 'd' -> code range.
  Dictionary d({"a", "b", "c", "d", "e"});
  EXPECT_EQ(d.LowerBound("b"), d.Code("b"));
  EXPECT_EQ(d.UpperBound("d"), d.Code("d") + 1);
  EXPECT_EQ(d.LowerBound("bb"), d.Code("c"));  // absent value: next code
}

class TableTest : public ::testing::Test {
 protected:
  TableTest() : topo_(sim::Topology::Options{}), mem_(topo_) {}

  std::unique_ptr<Table> MakeTable(uint64_t rows) {
    auto t = std::make_unique<Table>("t");
    Column* a = t->AddColumn("a", ColType::kInt32);
    Column* b = t->AddColumn("b", ColType::kInt64);
    for (uint64_t i = 0; i < rows; ++i) {
      a->Append(static_cast<int64_t>(i));
      b->Append(static_cast<int64_t>(i * 10));
    }
    return t;
  }

  sim::Topology topo_;
  memory::MemoryRegistry mem_;
};

TEST_F(TableTest, ColumnAccessors) {
  auto t = MakeTable(10);
  EXPECT_EQ(t->rows(), 10u);
  EXPECT_EQ(t->num_columns(), 2);
  EXPECT_EQ(t->ColumnIndex("b"), 1);
  EXPECT_EQ(t->column("a").width(), 4u);
  EXPECT_EQ(t->column("b").width(), 8u);
  EXPECT_EQ(t->column("b").At(3), 30);
  EXPECT_EQ(t->column("a").bytes(), 40u);
}

TEST_F(TableTest, PlaceSplitsRowsAcrossNodes) {
  auto t = MakeTable(101);
  ASSERT_TRUE(t->Place({topo_.socket(0).mem, topo_.socket(1).mem}, &mem_).ok());
  ASSERT_TRUE(t->placed());
  ASSERT_EQ(t->chunks().size(), 2u);
  EXPECT_EQ(t->chunks()[0].rows + t->chunks()[1].rows, 101u);
  EXPECT_EQ(t->chunks()[0].node, topo_.socket(0).mem);
  EXPECT_EQ(t->chunks()[1].node, topo_.socket(1).mem);
  EXPECT_EQ(t->chunks()[1].row_begin, t->chunks()[0].rows);
}

TEST_F(TableTest, PlacedDataMatchesStaging) {
  auto t = MakeTable(100);
  ASSERT_TRUE(t->Place({topo_.socket(0).mem, topo_.socket(1).mem}, &mem_).ok());
  const uint32_t wa = t->column("a").width();
  const uint32_t wb = t->column("b").width();
  for (const auto& chunk : t->chunks()) {
    for (uint64_t r = 0; r < chunk.rows; ++r) {
      EXPECT_EQ(LoadInt(chunk.col_data[0] + r * wa, wa),
                static_cast<int64_t>(chunk.row_begin + r));
      EXPECT_EQ(LoadInt(chunk.col_data[1] + r * wb, wb),
                static_cast<int64_t>((chunk.row_begin + r) * 10));
    }
  }
}

// Place stores each column in the narrowest code of its values' range,
// whatever its staging type: the plain signed width steps up just past the
// int8, int16 and int32 bounds, and a range that spans fewer values than
// that width holds moves to the narrower width with a base at its middle.
TEST_F(TableTest, PlacePicksTheNarrowestWidthAtTheTypeBounds) {
  struct Case {
    int64_t lo, hi;
    uint32_t width;
    int64_t base;
  };
  const Case cases[] = {
      {-128, 127, 1, 0},
      {-129, 0, 1, -64},  // 130 values: one byte around -64
      {0, 128, 1, 64},
      {-32768, 32767, 2, 0},
      {-32769, 0, 2, -16384},
      {0, 32768, 2, 16384},
      {INT32_MIN, INT32_MAX, 4, 0},
      {int64_t{INT32_MIN} - 1, 0, 4, -(int64_t{1} << 30)},
      {0, int64_t{INT32_MAX} + 1, 4, int64_t{1} << 30},
      {int64_t{INT32_MIN} - 1, INT32_MAX, 8, 0},  // 2^32 + 1 values
  };
  for (const Case& c : cases) {
    auto t = std::make_unique<Table>("w");
    Column* col = t->AddColumn("v", ColType::kInt64);
    for (int64_t v : {c.lo, c.hi, int64_t{0}}) col->Append(v);
    EXPECT_EQ(col->width(), 8u);  // the type's width until placed
    EXPECT_EQ(col->base(), 0);
    ASSERT_TRUE(t->Place({topo_.socket(0).mem}, &mem_).ok());
    EXPECT_EQ(col->width(), c.width) << "[" << c.lo << ", " << c.hi << "]";
    EXPECT_EQ(col->base(), c.base) << "[" << c.lo << ", " << c.hi << "]";
    const Table::Chunk& chunk = t->chunks()[0];
    EXPECT_EQ(LoadInt(chunk.col_data[0], col->code()), c.lo);
    EXPECT_EQ(LoadInt(chunk.col_data[0] + c.width, col->code()), c.hi);
    EXPECT_EQ(LoadInt(chunk.col_data[0] + 2 * c.width, col->code()), 0);
    t->DropStaging();
    EXPECT_EQ(col->width(), c.width);  // the placed data keeps its code
    EXPECT_EQ(col->base(), c.base);
  }
  // An int32 column narrows too (dictionary codes, small measures).
  auto t = MakeTable(200);
  ASSERT_TRUE(t->Place({topo_.socket(0).mem}, &mem_).ok());
  EXPECT_EQ(t->column("a").width(), 1u);  // 0..199: one byte around 100
  EXPECT_EQ(t->column("a").base(), 100);
  EXPECT_EQ(t->column("b").width(), 2u);  // 0..1990: no base narrows it
  EXPECT_EQ(t->column("b").base(), 0);
  EXPECT_EQ(t->ColumnSetBytes({"a", "b"}), 200u * 1 + 200u * 2);
}

// DropStaging keeps each column's code with its placed data; a re-Place
// after new appends picks the code again from the rows staged since.
TEST_F(TableTest, DropStagingKeepsTheCodeAndRePlacePicksItAgain) {
  auto t = std::make_unique<Table>("far");
  Column* col = t->AddColumn("v", ColType::kInt32);
  for (int64_t v = -1'000'100; v <= -1'000'000; ++v) col->Append(v);
  ASSERT_TRUE(t->Place({topo_.socket(0).mem}, &mem_).ok());
  EXPECT_EQ(col->width(), 1u);
  EXPECT_EQ(col->base(), -1'000'050);
  const uint64_t epoch = t->mutation_epoch();

  t->DropStaging();
  EXPECT_EQ(col->rows(), 0u);
  EXPECT_EQ(col->width(), 1u);
  EXPECT_EQ(col->base(), -1'000'050);
  EXPECT_EQ(LoadInt(t->chunks()[0].col_data[0] + 100, col->code()), -1'000'000);

  for (int64_t v = 2'000'000; v <= 2'030'000; v += 10) col->Append(v);
  ASSERT_TRUE(t->Place({topo_.socket(0).mem}, &mem_).ok());
  EXPECT_GT(t->mutation_epoch(), epoch);
  EXPECT_EQ(col->width(), 2u);
  EXPECT_EQ(col->base(), 2'015'000);
  const Table::Chunk& chunk = t->chunks()[0];
  ASSERT_EQ(chunk.rows, 3001u);
  for (uint64_t r = 0; r < chunk.rows; ++r) {
    ASSERT_EQ(LoadInt(chunk.col_data[0] + 2 * r, col->code()),
              2'000'000 + 10 * static_cast<int64_t>(r));
  }
}

TEST_F(TableTest, RePlaceMovesAndFreesOldChunks) {
  auto t = MakeTable(50);
  ASSERT_TRUE(t->Place({topo_.socket(0).mem}, &mem_).ok());
  const uint64_t used_host = mem_.manager(topo_.socket(0).mem).used();
  EXPECT_GT(used_host, 0u);
  ASSERT_TRUE(t->Place({topo_.gpu(0).mem}, &mem_).ok());
  EXPECT_EQ(mem_.manager(topo_.socket(0).mem).used(), 0u);
  EXPECT_GT(mem_.manager(topo_.gpu(0).mem).used(), 0u);
  EXPECT_EQ(t->chunks()[0].node, topo_.gpu(0).mem);
}

TEST_F(TableTest, PlaceFailsWhenCapacityExceeded) {
  sim::Topology::Options small;
  small.gpu_capacity = 512;  // tiny device memory
  sim::Topology topo(small);
  memory::MemoryRegistry mem(topo);
  auto t = MakeTable(1000);
  EXPECT_FALSE(t->Place({topo.gpu(0).mem}, &mem).ok());
  EXPECT_FALSE(t->placed());
}

TEST_F(TableTest, DropStagingKeepsChunks) {
  auto t = MakeTable(64);
  ASSERT_TRUE(t->Place({topo_.socket(0).mem}, &mem_).ok());
  t->DropStaging();
  EXPECT_EQ(t->column("a").rows(), 0u);  // staging gone
  EXPECT_TRUE(t->placed());
  EXPECT_EQ(t->chunks()[0].rows, 64u);   // placed data intact
  EXPECT_EQ(t->column("a").width(), 1u); // placed width intact (0..63)
  EXPECT_EQ(t->column("b").width(), 2u); // 0..630
}

TEST_F(TableTest, PlaceRejectsADuplicateInAColumnDeclaredUnique) {
  auto t = MakeTable(100);
  Column* key = &t->column(0);
  key->set_unique(true);
  ASSERT_TRUE(t->Place({topo_.socket(0).mem}, &mem_).ok());  // 0..99: distinct

  key->Append(42);  // a second 42 (column b stays 100 rows: not placed)
  const Status st = t->Place({topo_.socket(0).mem}, &mem_);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("column 'a' of table 't' is declared unique but "
                              "holds 42 twice"),
            std::string::npos)
      << st.ToString();
  // The rejected placement placed nothing; the earlier one stays.
  EXPECT_TRUE(t->placed());
  EXPECT_EQ(t->chunks()[0].rows, 100u);

  // The declaration survives DropStaging (the compiler reads it after).
  t->DropStaging();
  EXPECT_TRUE(t->column(0).unique());
}

TEST_F(TableTest, ColumnSetBytes) {
  auto t = MakeTable(100);
  EXPECT_EQ(t->ColumnSetBytes({"a"}), 400u);
  EXPECT_EQ(t->ColumnSetBytes({"a", "b"}), 400u + 800u);
}

TEST_F(TableTest, ColumnStatsExactOnSmallTables) {
  auto t = MakeTable(500);  // under the sample bound: full scan, exact stats
  const ColumnStats a = t->column_stats(t->ColumnIndex("a"));
  EXPECT_EQ(a.min, 0);
  EXPECT_EQ(a.max, 499);
  EXPECT_EQ(a.distinct, 500u);
  EXPECT_EQ(a.sampled, 500u);
}

TEST_F(TableTest, ColumnStatsSeeSmallDomains) {
  auto t = std::make_unique<Table>("dom");
  Column* c = t->AddColumn("c", ColType::kInt32);
  for (uint64_t i = 0; i < 1000; ++i) c->Append(static_cast<int64_t>(i % 7));
  const ColumnStats s = t->column_stats(0);
  EXPECT_EQ(s.distinct, 7u);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 6);
}

TEST_F(TableTest, SampleRowsVisitsBoundedStride) {
  auto t = MakeTable(1000);
  uint64_t visited = 0;
  const uint64_t n = t->SampleRows(100, [&](uint64_t) { ++visited; });
  EXPECT_EQ(n, visited);
  EXPECT_GT(n, 0u);
  EXPECT_LE(n, 100u);
}

TEST_F(TableTest, StatsUnavailableAfterDropStaging) {
  auto t = MakeTable(64);
  ASSERT_TRUE(t->Place({topo_.socket(0).mem}, &mem_).ok());
  t->DropStaging();
  EXPECT_EQ(t->column_stats(0).sampled, 0u);
  EXPECT_EQ(t->SampleRows(16, [](uint64_t) {}), 0u);
}

TEST(Catalog, CreateAndLookup) {
  Catalog catalog;
  Table* t = catalog.CreateTable("foo");
  EXPECT_EQ(catalog.Get("foo"), t);
  EXPECT_EQ(catalog.Get("bar"), nullptr);
  EXPECT_EQ(&catalog.at("foo"), t);
}

}  // namespace
}  // namespace hetex::storage
