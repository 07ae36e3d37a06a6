// Tests for the sampling-based selectivity annotator and the library
// reference interpreter it is built on.

#include <gtest/gtest.h>

#include <numeric>

#include "adamant/adamant.h"
#include "plan/interpreter.h"
#include "plan/selectivity.h"

namespace adamant::plan {
namespace {

const Catalog& SharedCatalog() {
  static const Catalog* const kCatalog = [] {
    tpch::TpchConfig config;
    config.scale_factor = 0.002;
    config.include_dimension_tables = false;
    auto catalog = tpch::Generate(config);
    ADAMANT_CHECK(catalog.ok());
    return new Catalog(**catalog);
  }();
  return *kCatalog;
}

std::shared_ptr<Catalog> UniformCatalog() {
  // k in 0..9 uniform, value = 1.
  auto catalog = std::make_shared<Catalog>();
  auto table = std::make_shared<Table>("u");
  std::vector<int32_t> k(1000);
  std::vector<int64_t> v(1000, 1);
  for (int i = 0; i < 1000; ++i) k[static_cast<size_t>(i)] = i % 10;
  ADAMANT_CHECK(table->AddColumn(Column::FromVector("k", k)).ok());
  ADAMANT_CHECK(table->AddColumn(Column::FromVector("v", v)).ok());
  ADAMANT_CHECK(catalog->AddTable(table).ok());
  return catalog;
}

// --- Interpreter sanity (the fuzzer covers the deep cases) ---

TEST(Interpreter, MatchesHandComputedAggregate) {
  auto catalog = UniformCatalog();
  auto root = GroupBy(Filter(Scan("u"), {Predicate::Lt("k", 5, 0.0)}), "k",
                      {{AggOp::kCount, "", "n"}}, 16, false);
  auto results = InterpretPlan(*root, *catalog);
  ASSERT_TRUE(results.ok());
  const auto& groups = results->at("n");
  ASSERT_EQ(groups.size(), 5u);
  for (const auto& [key, count] : groups) EXPECT_EQ(count, 100);
}

TEST(Interpreter, RejectsSinkInStreamPosition) {
  auto catalog = UniformCatalog();
  auto root = GroupBy(Scan("u"), "k", {{AggOp::kCount, "", "n"}}, 16, false);
  EXPECT_TRUE(InterpretStream(*root, *catalog).status().IsInvalidArgument());
  EXPECT_TRUE(InterpretPlan(*Scan("u"), *catalog).status().IsInvalidArgument());
}

// --- Annotator ---

TEST(Selectivity, MeasuresUniformPredicate) {
  auto catalog = UniformCatalog();
  // Deliberately wrong user estimate (0.9); k < 3 really selects 30%.
  auto root = Reduce(Filter(Scan("u"), {Predicate::Lt("k", 3, 0.9)}),
                     {{AggOp::kSum, "v", "total"}});
  auto annotated = AnnotateSelectivities(*root, *catalog, /*sample_every=*/1);
  ASSERT_TRUE(annotated.ok());
  const LogicalNode& filter = *(*annotated)->child;
  ASSERT_EQ(filter.predicates.size(), 1u);
  EXPECT_NEAR(filter.predicates[0].selectivity, 0.3, 0.01);
  // The original tree is untouched.
  EXPECT_DOUBLE_EQ(root->child->predicates[0].selectivity, 0.9);
}

TEST(Selectivity, ConditionalTermsMultiplyOut) {
  auto catalog = UniformCatalog();
  // k < 8 (0.8) then k >= 4 given k < 8 (4..7 of 0..7 = 0.5).
  auto root = Reduce(Filter(Scan("u"), {Predicate::Lt("k", 8, 0.0),
                                        Predicate::Ge("k", 4, 0.0)}),
                     {{AggOp::kSum, "v", "total"}});
  auto annotated = AnnotateSelectivities(*root, *catalog, 1);
  ASSERT_TRUE(annotated.ok());
  const auto& preds = (*annotated)->child->predicates;
  EXPECT_NEAR(preds[0].selectivity, 0.8, 0.01);
  EXPECT_NEAR(preds[1].selectivity, 0.5, 0.01);
}

TEST(Selectivity, SamplingApproximatesFullScan) {
  auto root = Reduce(
      Filter(Scan("lineitem"),
             {Predicate::Between("l_shipdate", tpch::Q6Params{}.date,
                                 tpch::Q6Params{}.date_end() - 1, 0.0)}),
      {{AggOp::kSum, "l_extendedprice", "total"}});
  auto exact = AnnotateSelectivities(*root, SharedCatalog(), 1);
  auto sampled = AnnotateSelectivities(*root, SharedCatalog(), 13);
  ASSERT_TRUE(exact.ok() && sampled.ok());
  const double exact_sel = (*exact)->child->predicates[0].selectivity;
  const double sampled_sel = (*sampled)->child->predicates[0].selectivity;
  EXPECT_NEAR(exact_sel, 1.0 / 7.0, 0.02) << "one year of ~7";
  EXPECT_NEAR(sampled_sel, exact_sel, 0.05);
}

TEST(Selectivity, JoinFractionAndGroupCountFilled) {
  auto catalog = UniformCatalog();
  // Semi self-join where the build side keeps k < 3: 30% of probes match.
  auto root = GroupBy(
      HashJoin(Scan("u"), Filter(Scan("u"), {Predicate::Lt("k", 3, 0.0)}),
               "k", "k", ProbeMode::kSemi, /*join_selectivity=*/0.9),
      "k", {{AggOp::kSum, "v", "total"}}, /*expected_groups=*/0, true);
  auto annotated = AnnotateSelectivities(*root, *catalog, 1);
  ASSERT_TRUE(annotated.ok());
  EXPECT_NEAR((*annotated)->child->join_selectivity, 0.3, 0.01);
  EXPECT_GE((*annotated)->expected_groups, 3.0);
}

TEST(Selectivity, AnnotatedTpchPlansRunCorrectly) {
  // End to end: strip Q6's hand estimates, re-derive them by sampling, and
  // the lowered plan must still produce the exact answer (the margins keep
  // sampling error from causing overflows).
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(gpu.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*gpu)).ok());

  const tpch::Q6Params q6;
  auto logical = Reduce(
      Project(Filter(Scan("lineitem"),
                     {Predicate::Between("l_shipdate", q6.date,
                                         q6.date_end() - 1, 0.15),
                      Predicate::Between("l_discount", q6.discount_pct - 1,
                                         q6.discount_pct + 1, 0.28),
                      Predicate::Lt("l_quantity", q6.quantity, 0.47)}),
              {{"revenue",
                ScalarExpr::MulPct("l_extendedprice", "l_discount")}}),
      {{AggOp::kSum, "revenue", "revenue"}});
  auto annotated = AnnotateSelectivities(*logical, SharedCatalog(), 11);
  ASSERT_TRUE(annotated.ok());
  auto bundle = LowerPlan(**annotated, SharedCatalog(), *gpu);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  options.chunk_elems = 512;
  QueryExecutor executor(&manager);
  auto exec = executor.Run(bundle->graph.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(*exec->AggValue(bundle->nodes.at("revenue")),
            *tpch::Q6Reference(SharedCatalog(), {}));
}

TEST(Selectivity, TighterEstimatesShrinkBuffers) {
  // With measured selectivities the materialize buffers are sized to the
  // real fraction instead of the user's guess: the Q6 plan annotated by
  // sampling allocates less device memory than one annotated with sel=1.
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(gpu.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*gpu)).ok());
  QueryExecutor executor(&manager);
  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  options.chunk_elems = 1024;

  auto pessimistic_tree = Reduce(
      Project(Filter(Scan("lineitem"),
                     {Predicate::Between("l_shipdate", tpch::Q6Params{}.date,
                                         tpch::Q6Params{}.date_end() - 1,
                                         1.0)}),
              {{"revenue",
                ScalarExpr::MulPct("l_extendedprice", "l_discount")}}),
      {{AggOp::kSum, "revenue", "revenue"}});
  auto pessimistic = LowerPlan(*pessimistic_tree, SharedCatalog(), *gpu);
  ASSERT_TRUE(pessimistic.ok());
  auto exec_p = executor.Run(pessimistic->graph.get(), options);
  ASSERT_TRUE(exec_p.ok());

  auto annotated_tree =
      AnnotateSelectivities(*pessimistic_tree, SharedCatalog(), 7);
  ASSERT_TRUE(annotated_tree.ok());
  auto annotated = LowerPlan(**annotated_tree, SharedCatalog(), *gpu);
  ASSERT_TRUE(annotated.ok());
  auto exec_a = executor.Run(annotated->graph.get(), options);
  ASSERT_TRUE(exec_a.ok());

  const auto& mem_p =
      exec_p->stats.devices[static_cast<size_t>(*gpu)].device_mem_high_water;
  const auto& mem_a =
      exec_a->stats.devices[static_cast<size_t>(*gpu)].device_mem_high_water;
  EXPECT_LT(mem_a, mem_p) << "measured estimates size buffers tighter";
  // Same answer either way.
  EXPECT_EQ(*exec_a->AggValue(annotated->nodes.at("revenue")),
            *exec_p->AggValue(pessimistic->nodes.at("revenue")));
}

TEST(Selectivity, InvalidSampleRateRejected) {
  auto catalog = UniformCatalog();
  auto root = Reduce(Scan("u"), {{AggOp::kSum, "v", "x"}});
  EXPECT_TRUE(AnnotateSelectivities(*root, *catalog, 0)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace adamant::plan
