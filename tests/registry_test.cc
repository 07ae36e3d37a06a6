// The query registry at fixture size and at a realistic one: every
// `run_tpch --query` name goes through sql::Prepare (chunked, one simulated
// cuda_gpu, fusion auto) and must match its tpch host reference. Q3 runs
// its hand-built plan; the SQL q3 under-sizes its hash table from SF 0.05
// on (docs/sql.md, "Known limitations").

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "adamant/adamant.h"

namespace adamant {
namespace {

const Catalog& CatalogAt(double scale_factor) {
  static std::map<double, std::shared_ptr<Catalog>>* const kCatalogs =
      new std::map<double, std::shared_ptr<Catalog>>();
  std::shared_ptr<Catalog>& catalog = (*kCatalogs)[scale_factor];
  if (catalog == nullptr) {
    tpch::TpchConfig config;
    config.scale_factor = scale_factor;
    auto generated = tpch::Generate(config);
    ADAMANT_CHECK(generated.ok()) << generated.status().ToString();
    catalog = *generated;
  }
  return *catalog;
}

class RegistryTest
    : public ::testing::TestWithParam<std::tuple<const char*, double>> {};

TEST_P(RegistryTest, MatchesReference) {
  const std::string name = std::get<0>(GetParam());
  const double scale_factor = std::get<1>(GetParam());
  const Catalog& catalog = CatalogAt(scale_factor);
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(gpu.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*gpu)).ok());

  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  options.chunk_elems = size_t{1} << 16;  // several chunks at SF 0.1
  auto query = sql::Prepare(name, catalog, &manager, *gpu, options);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->compiled.has_value(), name == "1" || name == "4" ||
                                             name == "6");
  QueryExecutor executor(&manager);
  auto exec = executor.Run(query->bundle.graph.get(), query->options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  const Status verdict = query->Verify(*exec);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();

  // Terminal output decodes what the raw values encode: Q5 prints nation
  // names, Q14 its promotion share.
  auto results = query->Results(*exec);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  const std::string text = query->Format(*results);
  EXPECT_FALSE(text.empty());
  if (name == "5") {
    EXPECT_EQ(text.find("nation "), std::string::npos) << text;
  }
  if (name == "14") {
    EXPECT_NE(text.find('%'), std::string::npos) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllQueries, RegistryTest,
    ::testing::Combine(::testing::Values("1", "3", "4", "5", "6", "10", "12",
                                         "14"),
                       ::testing::Values(0.002, 0.1)),
    [](const auto& info) {
      return std::string("Q") + std::get<0>(info.param) +
             (std::get<1>(info.param) < 0.01 ? "_sf0002" : "_sf01");
    });

TEST(Registry, EveryNameIsRegisteredOnce) {
  std::map<std::string, int> seen;
  for (const sql::RegisteredQuery& query : sql::RegisteredQueries()) {
    ++seen[query.name];
    // Exactly one definition: a SQL builtin or a hand-built plan.
    EXPECT_NE(query.builtin.empty(), query.build == nullptr) << query.name;
    EXPECT_EQ(query.format == nullptr, query.build == nullptr) << query.name;
    if (!query.builtin.empty()) {
      EXPECT_NE(sql::FindBuiltinQuery(query.builtin), nullptr) << query.name;
    }
  }
  EXPECT_EQ(seen.size(), 8u);
  for (const auto& [name, count] : seen) EXPECT_EQ(count, 1) << name;
  EXPECT_EQ(sql::FindRegisteredQuery("7"), nullptr);
}

TEST(Registry, PrepareResolvesBuiltinNamesAndText) {
  const Catalog& catalog = CatalogAt(0.002);
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(gpu.ok());
  auto builtin = sql::Prepare("q6", catalog, &manager, *gpu, {});
  ASSERT_TRUE(builtin.ok());
  EXPECT_EQ(builtin->label, "q6");
  EXPECT_EQ(builtin->registered, nullptr);
  auto text = sql::Prepare("SELECT COUNT(*) AS n FROM lineitem", catalog,
                           &manager, *gpu, {});
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text->label, "sql");
  EXPECT_FALSE(
      sql::Prepare("SELECT nope FROM lineitem", catalog, &manager, *gpu, {})
          .ok());
  EXPECT_TRUE(sql::Prepare("6", catalog, &manager, /*device=*/3, {})
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace adamant
