// Tests for dbgen-style .tbl import/export: parsing, encodings, error
// handling, round trips, and query consistency on imported data.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "adamant/adamant.h"
#include "test_util.h"
#include "storage/tbl_io.h"
#include "tpch/tbl_schemas.h"

namespace adamant {
namespace {

using K = TblColumnSpec::Kind;

/// Temp-directory scratch file, removed on destruction.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& name)
      : path_("/tmp/adamant_tbl_test_" + name) {}
  ~ScratchFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }
  void Write(const std::string& content) const {
    std::ofstream out(path_);
    out << content;
  }

 private:
  std::string path_;
};

TEST(TblIo, ParsesAllEncodings) {
  ScratchFile file("encodings.tbl");
  file.Write(
      "1|ignored|1234.56|0.06|1995-03-15|MAIL|\n"
      "2|ignored|-7.05|0.10|1992-01-01|SHIP|\n");
  std::vector<TblColumnSpec> specs = {
      {"id", K::kInt32},   {"junk", K::kSkip}, {"price", K::kMoney},
      {"disc", K::kPct},   {"day", K::kDate},  {"mode", K::kDict}};
  auto table = ReadTblFile(file.path(), "t", specs);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ((*table)->num_rows(), 2u);
  EXPECT_EQ((*table)->num_columns(), 5u) << "skip column dropped";
  EXPECT_EQ((*(*table)->GetColumn("id"))->Value<int32_t>(1), 2);
  EXPECT_EQ((*(*table)->GetColumn("price"))->Value<int64_t>(0), 123456);
  EXPECT_EQ((*(*table)->GetColumn("price"))->Value<int64_t>(1), -705);
  EXPECT_EQ((*(*table)->GetColumn("disc"))->Value<int32_t>(0), 6);
  EXPECT_EQ((*(*table)->GetColumn("disc"))->Value<int32_t>(1), 10);
  EXPECT_EQ((*(*table)->GetColumn("day"))->Value<int32_t>(0),
            Date::FromYmd(1995, 3, 15).days());
  const StringDictionary* dict = (*table)->FindDictionary("mode");
  ASSERT_NE(dict, nullptr);
  EXPECT_EQ(dict->GetString(
                (*(*table)->GetColumn("mode"))->Value<int32_t>(0)),
            "MAIL");
  EXPECT_EQ(dict->GetString(
                (*(*table)->GetColumn("mode"))->Value<int32_t>(1)),
            "SHIP");
}

TEST(TblIo, ErrorsCarryRowNumbers) {
  ScratchFile file("bad.tbl");
  file.Write("1|10.00|\n2|not-a-number|\n");
  std::vector<TblColumnSpec> specs = {{"id", K::kInt32}, {"v", K::kMoney}};
  auto table = ReadTblFile(file.path(), "t", specs);
  ASSERT_FALSE(table.ok());
  EXPECT_TRUE(table.status().IsInvalidArgument());
  EXPECT_NE(table.status().message().find("row 2"), std::string::npos);
}

TEST(TblIo, MissingFieldsRejected) {
  ScratchFile file("short.tbl");
  file.Write("1|\n");
  std::vector<TblColumnSpec> specs = {{"a", K::kInt32}, {"b", K::kInt32}};
  EXPECT_TRUE(
      ReadTblFile(file.path(), "t", specs).status().IsInvalidArgument());
}

TEST(TblIo, MissingFileIsIoError) {
  EXPECT_TRUE(ReadTblFile("/nonexistent/nope.tbl", "t", {{"a", K::kInt32}})
                  .status()
                  .IsIOError());
}

TEST(TblIo, MalformedDateRejected) {
  ScratchFile file("baddate.tbl");
  file.Write("1995-13-40|\n");
  EXPECT_TRUE(ReadTblFile(file.path(), "t", {{"d", K::kDate}})
                  .status()
                  .IsInvalidArgument());
}

TEST(TblIo, RoundTripPreservesValues) {
  // Generate lineitem, export, re-import with a matching spec, compare.
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  config.include_dimension_tables = false;
  auto catalog = tpch::Generate(config);
  ASSERT_TRUE(catalog.ok());
  auto lineitem = *(*catalog)->GetTable("lineitem");

  std::vector<TblColumnSpec> specs = {
      {"l_orderkey", K::kInt32},   {"l_quantity", K::kInt32},
      {"l_extendedprice", K::kMoney}, {"l_discount", K::kPct},
      {"l_returnflag", K::kDict},  {"l_shipdate", K::kDate}};
  ScratchFile file("roundtrip.tbl");
  ASSERT_TRUE(WriteTblFile(*lineitem, file.path(), specs).ok());
  auto loaded = ReadTblFile(file.path(), "lineitem", specs);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ((*loaded)->num_rows(), lineitem->num_rows());

  for (const auto& spec : specs) {
    auto original = *lineitem->GetColumn(spec.name);
    auto round = *(*loaded)->GetColumn(spec.name);
    for (size_t i = 0; i < lineitem->num_rows(); ++i) {
      if (spec.kind == K::kMoney) {
        EXPECT_EQ(original->Value<int64_t>(i), round->Value<int64_t>(i))
            << spec.name << "[" << i << "]";
      } else if (spec.kind == K::kDict) {
        // Codes may differ (first-seen order); compare decoded strings.
        EXPECT_EQ(lineitem->FindDictionary(spec.name)->GetString(
                      original->Value<int32_t>(i)),
                  (*loaded)->FindDictionary(spec.name)->GetString(
                      round->Value<int32_t>(i)))
            << spec.name << "[" << i << "]";
      } else {
        EXPECT_EQ(original->Value<int32_t>(i), round->Value<int32_t>(i))
            << spec.name << "[" << i << "]";
      }
    }
  }
}

TEST(TblIo, DbgenLayoutImportRunsQueries) {
  // Export our generated tables in the FULL dbgen layouts (filling the text
  // columns the executor never reads with placeholders), re-import through
  // the official specs, and check Q6 agrees with the original catalog.
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  config.include_dimension_tables = false;
  auto catalog = tpch::Generate(config);
  ASSERT_TRUE(catalog.ok());
  auto lineitem = *(*catalog)->GetTable("lineitem");

  // Hand-write dbgen-shaped rows from the generated columns.
  ScratchFile dir_marker("lineitem_dir");
  const std::string dir = "/tmp/adamant_tbl_test_dir";
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  {
    std::ofstream out(dir + "/lineitem.tbl");
    const auto* ok = (*lineitem->GetColumn("l_orderkey"))->data<int32_t>();
    const auto* pk = (*lineitem->GetColumn("l_partkey"))->data<int32_t>();
    const auto* sk = (*lineitem->GetColumn("l_suppkey"))->data<int32_t>();
    const auto* ln = (*lineitem->GetColumn("l_linenumber"))->data<int32_t>();
    const auto* qty = (*lineitem->GetColumn("l_quantity"))->data<int32_t>();
    const auto* price =
        (*lineitem->GetColumn("l_extendedprice"))->data<int64_t>();
    const auto* disc = (*lineitem->GetColumn("l_discount"))->data<int32_t>();
    const auto* tax = (*lineitem->GetColumn("l_tax"))->data<int32_t>();
    const auto* rf = (*lineitem->GetColumn("l_returnflag"))->data<int32_t>();
    const auto* ls = (*lineitem->GetColumn("l_linestatus"))->data<int32_t>();
    const auto* sm = (*lineitem->GetColumn("l_shipmode"))->data<int32_t>();
    const auto* sd = (*lineitem->GetColumn("l_shipdate"))->data<int32_t>();
    const auto* cd = (*lineitem->GetColumn("l_commitdate"))->data<int32_t>();
    const auto* rd = (*lineitem->GetColumn("l_receiptdate"))->data<int32_t>();
    const StringDictionary* rf_dict = lineitem->FindDictionary("l_returnflag");
    const StringDictionary* ls_dict = lineitem->FindDictionary("l_linestatus");
    const StringDictionary* sm_dict = lineitem->FindDictionary("l_shipmode");
    char money[32], disc_text[16], tax_text[16];
    for (size_t i = 0; i < lineitem->num_rows(); ++i) {
      std::snprintf(money, sizeof(money), "%lld.%02lld",
                    static_cast<long long>(price[i] / 100),
                    static_cast<long long>(price[i] % 100));
      std::snprintf(disc_text, sizeof(disc_text), "0.%02d", disc[i]);
      std::snprintf(tax_text, sizeof(tax_text), "0.%02d", tax[i]);
      out << ok[i] << '|' << pk[i] << '|' << sk[i] << '|' << ln[i] << '|'
          << qty[i] << '|' << money << '|' << disc_text << '|'
          << tax_text << '|' << rf_dict->GetString(rf[i]) << '|'
          << ls_dict->GetString(ls[i]) << '|' << Date(sd[i]).ToString() << '|'
          << Date(cd[i]).ToString() << '|' << Date(rd[i]).ToString() << '|'
          << "DELIVER IN PERSON|" << sm_dict->GetString(sm[i])
          << "|comment text|\n";
    }
  }
  auto loaded = tpch::LoadTblDirectory(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(gpu.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*gpu)).ok());
  auto bundle = test::PrepareUnfused("6", **loaded, &manager, *gpu);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  options.chunk_elems = 512;
  QueryExecutor executor(&manager);
  auto exec = executor.Run(bundle->bundle.graph.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(*plan::ExtractQ6(bundle->bundle, *exec),
            *tpch::Q6Reference(**catalog, {}));
  ASSERT_EQ(std::system(("rm -rf " + dir).c_str()), 0);
}

TEST(TblIo, LoadDirectoryWithNoFilesFails) {
  EXPECT_TRUE(tpch::LoadTblDirectory("/tmp").status().IsNotFound());
}

TEST(TblIo, DerivePromoFlagMatchesDictionary) {
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto catalog = tpch::Generate(config);
  ASSERT_TRUE(catalog.ok());
  auto part = *(*catalog)->GetTable("part");

  // Re-derive on a copy without the flag and compare with the generator's.
  auto copy = std::make_shared<Table>("part_copy");
  ASSERT_TRUE(copy->AddColumn(*part->GetColumn("p_partkey")).ok());
  ASSERT_TRUE(copy->AddColumn(*part->GetColumn("p_type")).ok());
  *copy->GetDictionary("p_type") = *part->FindDictionary("p_type");
  ASSERT_TRUE(tpch::DerivePartPromoFlag(copy.get()).ok());
  const auto* want = (*part->GetColumn("p_ispromo"))->data<int32_t>();
  const auto* got = (*copy->GetColumn("p_ispromo"))->data<int32_t>();
  for (size_t i = 0; i < part->num_rows(); ++i) {
    EXPECT_EQ(got[i], want[i]);
  }
}

TEST(TblIo, ExportRejectsSkipAndUnknownColumns) {
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  config.include_dimension_tables = false;
  auto catalog = tpch::Generate(config);
  ASSERT_TRUE(catalog.ok());
  auto lineitem = *(*catalog)->GetTable("lineitem");
  ScratchFile file("reject.tbl");
  EXPECT_TRUE(WriteTblFile(*lineitem, file.path(), {{"x", K::kSkip}})
                  .IsInvalidArgument());
  EXPECT_TRUE(WriteTblFile(*lineitem, file.path(), {{"missing", K::kInt32}})
                  .IsNotFound());
}

}  // namespace
}  // namespace adamant
