// SQL frontend tests: lexer/parser/binder diagnostics (line:col positions,
// no aborts), parity of the q1/q3/q4/q6 built-ins with the tpch host
// references across every execution model, the two SQL-only built-ins
// against host-loop references, EXPLAIN content, and QuerySpec::sql
// submission through the service.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "adamant/adamant.h"
#include "plan/feedback.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace adamant {
namespace {

struct SqlFixture {
  std::shared_ptr<Catalog> catalog;

  static const SqlFixture& Get() {
    static const SqlFixture* const kFixture = [] {
      auto* fixture = new SqlFixture();
      tpch::TpchConfig config;
      config.scale_factor = 0.002;
      auto catalog = tpch::Generate(config);
      ADAMANT_CHECK(catalog.ok()) << catalog.status().ToString();
      fixture->catalog = *catalog;
      return fixture;
    }();
    return *kFixture;
  }
};

const ExecutionModelKind kAllModels[] = {
    ExecutionModelKind::kOperatorAtATime,
    ExecutionModelKind::kChunked,
    ExecutionModelKind::kPipelined,
    ExecutionModelKind::kFourPhaseChunked,
    ExecutionModelKind::kFourPhasePipelined,
    ExecutionModelKind::kDeviceParallel,
};

std::unique_ptr<DeviceManager> TwoGpuManager() {
  auto manager = std::make_unique<DeviceManager>();
  for (int i = 0; i < 2; ++i) {
    auto device = manager->AddDriver(sim::DriverKind::kCudaGpu,
                                     "cuda_gpu." + std::to_string(i));
    ADAMANT_CHECK(device.ok()) << device.status().ToString();
    ADAMANT_CHECK(BindStandardKernels(manager->device(*device)).ok());
  }
  return manager;
}

ExecutionOptions OptionsFor(ExecutionModelKind model) {
  ExecutionOptions options;
  options.model = model;
  options.chunk_elems = 1024;  // several chunks even at SF 0.002
  options.fusion = FusionMode::kOff;
  if (model == ExecutionModelKind::kDeviceParallel) {
    options.device_set = {0, 1};
  }
  if (model == ExecutionModelKind::kPipelined ||
      model == ExecutionModelKind::kFourPhasePipelined) {
    options.pipeline_depth = 2;
  }
  return options;
}

const std::string& BuiltinSql(const char* name) {
  const sql::BuiltinQuery* builtin = sql::FindBuiltinQuery(name);
  ADAMANT_CHECK(builtin != nullptr) << name;
  return builtin->sql;
}

/// Prepares `sql_text`, runs it under `model` and returns the extracted
/// result set, after checking every sink against the host interpreter.
Result<sql::SqlResultSet> RunSql(const std::string& sql_text,
                                        const Catalog& catalog,
                                        DeviceManager* manager,
                                        ExecutionModelKind model,
                                        sql::CompiledQuery* compiled_out =
                                            nullptr) {
  ADAMANT_ASSIGN_OR_RETURN(
      sql::PreparedQuery query,
      sql::Prepare(sql_text, catalog, manager, 0, OptionsFor(model)));
  QueryExecutor executor(manager);
  ADAMANT_ASSIGN_OR_RETURN(
      QueryExecution exec,
      executor.Run(query.bundle.graph.get(), query.options));
  ADAMANT_ASSIGN_OR_RETURN(sql::SqlResultSet results, query.Results(exec));
  ADAMANT_RETURN_NOT_OK(query.Verify(exec));
  if (compiled_out != nullptr) *compiled_out = std::move(*query.compiled);
  return results;
}

// --- Lexer ---

TEST(SqlLexer, TokenizesWithPositions) {
  auto tokens = sql::Lex("SELECT a,\n  b FROM t");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 7u);  // incl. end token
  EXPECT_EQ((*tokens)[0].text, "select");  // identifiers lowercase
  EXPECT_EQ((*tokens)[0].pos.line, 1);
  EXPECT_EQ((*tokens)[0].pos.col, 1);
  EXPECT_EQ((*tokens)[3].text, "b");
  EXPECT_EQ((*tokens)[3].pos.line, 2);
  EXPECT_EQ((*tokens)[3].pos.col, 3);
}

TEST(SqlLexer, DecimalScales100) {
  auto tokens = sql::Lex("0.05 1.5 150000.00 24");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, sql::TokenKind::kDecimal);
  EXPECT_EQ((*tokens)[0].int_val, 5);
  EXPECT_EQ((*tokens)[1].int_val, 150);
  EXPECT_EQ((*tokens)[2].int_val, 15000000);
  EXPECT_EQ((*tokens)[3].kind, sql::TokenKind::kInt);
  EXPECT_EQ((*tokens)[3].int_val, 24);
}

TEST(SqlLexer, ErrorsCarryLineCol) {
  auto too_precise = sql::Lex("SELECT 0.123");
  ASSERT_FALSE(too_precise.ok());
  EXPECT_NE(too_precise.status().ToString().find("1:8"), std::string::npos)
      << too_precise.status().ToString();

  auto unterminated = sql::Lex("SELECT a FROM t WHERE b = 'oops");
  ASSERT_FALSE(unterminated.ok());
  EXPECT_NE(unterminated.status().ToString().find("1:27"), std::string::npos)
      << unterminated.status().ToString();

  auto bad_char = sql::Lex("SELECT a ? b");
  ASSERT_FALSE(bad_char.ok());
  EXPECT_NE(bad_char.status().ToString().find("1:10"), std::string::npos);
}

// --- Parser ---

TEST(SqlParser, ErrorsCarryLineCol) {
  struct Case {
    const char* sql;
    const char* pos;
  };
  const Case cases[] = {
      {"SELECT FROM t", "1:8"},               // missing select list
      {"SELECT a\nFROM", "2:5"},              // missing table
      {"SELECT a FROM t WHERE", "1:22"},      // missing condition
      {"SELECT a FROM t GROUP a", "1:23"},    // missing BY
      {"SELECT a FROM t LIMIT x", "1:23"},    // LIMIT wants an integer
      {"SELECT SUM(a FROM t", "1:14"},        // unclosed aggregate call
      {"SELECT a FROM t JOIN u ON a < b", "1:27"},  // ON wants equality
  };
  for (const Case& c : cases) {
    auto stmt = sql::Parse(c.sql);
    ASSERT_FALSE(stmt.ok()) << c.sql;
    EXPECT_NE(stmt.status().ToString().find(c.pos), std::string::npos)
        << c.sql << " -> " << stmt.status().ToString();
  }
}

TEST(SqlParser, AcceptsTheAnalyticSubset) {
  const char* accepted[] = {
      "SELECT COUNT(*) AS n FROM t",
      "SELECT a, SUM(b * 2) FROM t WHERE c BETWEEN 1 AND 5 GROUP BY a",
      "SELECT a FROM t, u WHERE t.k = u.k AND a IN (1, 2) ORDER BY a DESC "
      "LIMIT 3",
      "SELECT a FROM t JOIN u ON t.k = u.k WHERE d >= DATE '1994-01-01';",
      "SELECT SUM(p * (1 - d)) FROM t -- trailing comment",
  };
  for (const char* sql : accepted) {
    auto stmt = sql::Parse(sql);
    EXPECT_TRUE(stmt.ok()) << sql << " -> " << stmt.status().ToString();
  }
}

TEST(SqlParser, RejectsDeepNesting) {
  std::string sql = "SELECT ";
  for (int i = 0; i < 100; ++i) sql += "(";
  sql += "1";
  for (int i = 0; i < 100; ++i) sql += ")";
  sql += " FROM t";
  auto stmt = sql::Parse(sql);
  ASSERT_FALSE(stmt.ok());
  EXPECT_NE(stmt.status().ToString().find("nest"), std::string::npos);
}

// --- Binder ---

TEST(SqlBinder, RejectsUnknownNamesWithPositions) {
  const auto& fixture = SqlFixture::Get();
  struct Case {
    const char* sql;
    const char* pos;
    const char* fragment;
  };
  const Case cases[] = {
      {"SELECT l_quantity FROM lineitems", "1:24", "lineitems"},
      {"SELECT l_quantityy FROM lineitem", "1:8", "l_quantityy"},
      {"SELECT SUM(l_quantity) FROM lineitem\nWHERE l_shipmode = nope",
       "2:20", "nope"},
      {"SELECT o_orderkey FROM orders, lineitem\n"
       "WHERE l_orderkey = o_orderkey AND COUNT(l_orderkey) = 1",
       "2:35", "predicates compare"},
  };
  for (const Case& c : cases) {
    auto stmt = sql::Parse(c.sql);
    if (!stmt.ok()) {
      ADD_FAILURE() << c.sql << " failed to parse: "
                    << stmt.status().ToString();
      continue;
    }
    auto bound = sql::Bind(**stmt, *fixture.catalog);
    ASSERT_FALSE(bound.ok()) << c.sql;
    const std::string message = bound.status().ToString();
    EXPECT_NE(message.find(c.pos), std::string::npos)
        << c.sql << " -> " << message;
    EXPECT_NE(message.find(c.fragment), std::string::npos)
        << c.sql << " -> " << message;
  }
}

TEST(SqlBinder, ReportsAmbiguousColumns) {
  const auto& fixture = SqlFixture::Get();
  auto stmt = sql::Parse(
      "SELECT l_orderkey FROM lineitem, orders "
      "WHERE l_orderkey = o_orderkey AND comment = 'x'");
  // Neither table has "comment", so this surfaces as unknown; use a column
  // both sides share instead. TPC-H columns are prefixed, so craft the
  // ambiguity with an unqualified prefix-free name only if one exists;
  // otherwise the unknown-column diagnostic is the contract.
  ASSERT_TRUE(stmt.ok());
  auto bound = sql::Bind(**stmt, *fixture.catalog);
  ASSERT_FALSE(bound.ok());
  EXPECT_NE(bound.status().ToString().find("comment"), std::string::npos);
}

TEST(SqlBinder, RejectsOrderedCompareOnDictColumn) {
  const auto& fixture = SqlFixture::Get();
  auto stmt = sql::Parse(
      "SELECT COUNT(*) FROM lineitem WHERE l_shipmode < 'RAIL'");
  ASSERT_TRUE(stmt.ok());
  auto bound = sql::Bind(**stmt, *fixture.catalog);
  ASSERT_FALSE(bound.ok());
  EXPECT_NE(bound.status().ToString().find("l_shipmode"), std::string::npos);
}

TEST(SqlBinder, UnknownDictLiteralBindsToNeverMatch) {
  // A miss in the dictionary is an empty result, not an error.
  const auto& fixture = SqlFixture::Get();
  auto manager = TwoGpuManager();
  auto results = RunSql(
      "SELECT COUNT(*) AS n FROM lineitem WHERE l_shipmode = 'WARP DRIVE'",
      *fixture.catalog, manager.get(), ExecutionModelKind::kChunked);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->rows.size(), 1u);
  EXPECT_EQ(results->rows[0][0].i, 0);
}

// --- Parity with the tpch references, across every execution model ---

TEST(SqlParity, Q6AllModels) {
  const auto& fixture = SqlFixture::Get();
  auto manager = TwoGpuManager();
  auto want = tpch::Q6Reference(*fixture.catalog, {});
  ASSERT_TRUE(want.ok());
  for (ExecutionModelKind model : kAllModels) {
    auto results = RunSql(BuiltinSql("q6"), *fixture.catalog,
                                 manager.get(), model);
    ASSERT_TRUE(results.ok()) << ExecutionModelName(model) << ": "
                              << results.status().ToString();
    ASSERT_EQ(results->rows.size(), 1u);
    EXPECT_EQ(results->rows[0][0].i, *want) << ExecutionModelName(model);
  }
}

TEST(SqlParity, Q1AllModels) {
  const auto& fixture = SqlFixture::Get();
  auto manager = TwoGpuManager();
  auto want = tpch::Q1Reference(*fixture.catalog, {});
  ASSERT_TRUE(want.ok());
  // Reference rows keyed by (returnflag, linestatus) dictionary codes.
  std::map<std::pair<int32_t, int32_t>, tpch::Q1Row> expected;
  for (const tpch::Q1Row& row : *want) {
    expected[{row.returnflag, row.linestatus}] = row;
  }
  for (ExecutionModelKind model : kAllModels) {
    sql::CompiledQuery compiled;
    auto results = RunSql(BuiltinSql("q1"), *fixture.catalog,
                                 manager.get(), model, &compiled);
    ASSERT_TRUE(results.ok()) << ExecutionModelName(model) << ": "
                              << results.status().ToString();
    // returnflag, linestatus, sum_qty, sum_base, sum_disc_price,
    // sum_charge, avg_qty, count
    ASSERT_EQ(results->column_names.size(), 8u);
    ASSERT_EQ(results->rows.size(), expected.size())
        << ExecutionModelName(model);
    for (const auto& row : results->rows) {
      const auto key = std::make_pair(static_cast<int32_t>(row[0].i),
                                      static_cast<int32_t>(row[1].i));
      auto it = expected.find(key);
      ASSERT_NE(it, expected.end()) << ExecutionModelName(model);
      const tpch::Q1Row& ref = it->second;
      EXPECT_EQ(row[2].i, ref.sum_qty);
      EXPECT_EQ(row[3].i, ref.sum_base_price);
      EXPECT_EQ(row[4].i, ref.sum_disc_price);
      EXPECT_EQ(row[5].i, ref.sum_charge);
      ASSERT_TRUE(row[6].is_double);
      EXPECT_DOUBLE_EQ(row[6].d, static_cast<double>(ref.sum_qty) /
                                     static_cast<double>(ref.count));
      EXPECT_EQ(row[7].i, ref.count);
    }
  }
}

TEST(SqlParity, Q3AllModels) {
  const auto& fixture = SqlFixture::Get();
  auto manager = TwoGpuManager();
  auto want = tpch::Q3Reference(*fixture.catalog, {});
  ASSERT_TRUE(want.ok());
  for (ExecutionModelKind model : kAllModels) {
    auto results = RunSql(BuiltinSql("q3"), *fixture.catalog,
                                 manager.get(), model);
    ASSERT_TRUE(results.ok()) << ExecutionModelName(model) << ": "
                              << results.status().ToString();
    ASSERT_EQ(results->rows.size(), want->size())
        << ExecutionModelName(model);
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ(results->rows[i][0].i, (*want)[i].orderkey)
          << ExecutionModelName(model) << " row " << i;
      EXPECT_EQ(results->rows[i][1].i, (*want)[i].revenue)
          << ExecutionModelName(model) << " row " << i;
    }
  }
}

TEST(SqlParity, Q4AllModels) {
  const auto& fixture = SqlFixture::Get();
  auto manager = TwoGpuManager();
  auto want = tpch::Q4Reference(*fixture.catalog, {});
  ASSERT_TRUE(want.ok());
  for (ExecutionModelKind model : kAllModels) {
    auto results = RunSql(BuiltinSql("q4"), *fixture.catalog,
                                 manager.get(), model);
    ASSERT_TRUE(results.ok()) << ExecutionModelName(model) << ": "
                              << results.status().ToString();
    ASSERT_EQ(results->rows.size(), want->size());
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ(results->rows[i][0].i, (*want)[i].priority);
      EXPECT_EQ(results->rows[i][1].i, (*want)[i].order_count);
    }
  }
}

// --- SQL-only built-ins vs host-loop references ---

TEST(SqlOnly, ShipmodeRollupMatchesHostLoop) {
  const auto& fixture = SqlFixture::Get();
  auto manager = TwoGpuManager();

  auto table = fixture.catalog->GetTable("lineitem");
  ASSERT_TRUE(table.ok());
  auto shipdate = (*table)->GetColumn("l_shipdate");
  auto shipmode = (*table)->GetColumn("l_shipmode");
  auto returnflag = (*table)->GetColumn("l_returnflag");
  auto price = (*table)->GetColumn("l_extendedprice");
  auto discount = (*table)->GetColumn("l_discount");
  ASSERT_TRUE(shipdate.ok() && shipmode.ok() && returnflag.ok() &&
              price.ok() && discount.ok());
  const int32_t lo = Date::FromYmd(1995, 1, 1).days();
  const int32_t hi = Date::FromYmd(1996, 1, 1).days();
  // key -> (revenue, count), revenue in the kernels' integer fixed point.
  std::map<std::pair<int32_t, int32_t>, std::pair<int64_t, int64_t>> want;
  for (size_t i = 0; i < (*shipdate)->length(); ++i) {
    const int32_t date = (*shipdate)->Value<int32_t>(i);
    if (date < lo || date >= hi) continue;
    const auto key = std::make_pair((*shipmode)->Value<int32_t>(i),
                                    (*returnflag)->Value<int32_t>(i));
    const int64_t extended = (*price)->Value<int64_t>(i);
    const int64_t disc = (*discount)->Value<int32_t>(i);
    want[key].first += extended * (100 - disc) / 100;
    want[key].second += 1;
  }

  for (ExecutionModelKind model : kAllModels) {
    auto results = RunSql(BuiltinSql("shipmode_rollup"),
                                 *fixture.catalog, manager.get(), model);
    ASSERT_TRUE(results.ok()) << ExecutionModelName(model) << ": "
                              << results.status().ToString();
    ASSERT_EQ(results->rows.size(), want.size());
    int64_t previous_revenue = INT64_MAX;
    for (const auto& row : results->rows) {
      const auto key = std::make_pair(static_cast<int32_t>(row[0].i),
                                      static_cast<int32_t>(row[1].i));
      auto it = want.find(key);
      ASSERT_NE(it, want.end());
      EXPECT_EQ(row[2].i, it->second.first) << ExecutionModelName(model);
      EXPECT_EQ(row[3].i, it->second.second) << ExecutionModelName(model);
      // ORDER BY revenue DESC.
      EXPECT_LE(row[2].i, previous_revenue);
      previous_revenue = row[2].i;
    }
  }
}

TEST(SqlOnly, PriorityWindowMatchesHostLoop) {
  const auto& fixture = SqlFixture::Get();
  auto manager = TwoGpuManager();

  auto table = fixture.catalog->GetTable("orders");
  ASSERT_TRUE(table.ok());
  auto orderdate = (*table)->GetColumn("o_orderdate");
  auto priority = (*table)->GetColumn("o_orderpriority");
  auto total = (*table)->GetColumn("o_totalprice");
  ASSERT_TRUE(orderdate.ok() && priority.ok() && total.ok());
  const int32_t lo = Date::FromYmd(1994, 1, 1).days();
  const int32_t hi = Date::FromYmd(1994, 7, 1).days();
  std::map<int32_t, std::pair<int64_t, int64_t>> want;  // count, sum(price)
  for (size_t i = 0; i < (*orderdate)->length(); ++i) {
    const int32_t date = (*orderdate)->Value<int32_t>(i);
    if (date < lo || date >= hi) continue;
    if ((*total)->Value<int64_t>(i) <= 15000000) continue;  // $150000.00
    auto& entry = want[(*priority)->Value<int32_t>(i)];
    entry.first += 1;
    entry.second += (*total)->Value<int64_t>(i);
  }

  for (ExecutionModelKind model : kAllModels) {
    auto results = RunSql(BuiltinSql("priority_window"),
                                 *fixture.catalog, manager.get(), model);
    ASSERT_TRUE(results.ok()) << ExecutionModelName(model) << ": "
                              << results.status().ToString();
    ASSERT_EQ(results->rows.size(), want.size());
    for (const auto& row : results->rows) {
      auto it = want.find(static_cast<int32_t>(row[0].i));
      ASSERT_NE(it, want.end());
      EXPECT_EQ(row[1].i, it->second.first) << ExecutionModelName(model);
      ASSERT_TRUE(row[2].is_double);
      EXPECT_DOUBLE_EQ(row[2].d,
                       static_cast<double>(it->second.second) /
                           static_cast<double>(it->second.first))
          << ExecutionModelName(model);
    }
  }
}

// --- ORDER BY / LIMIT / AVG ---

TEST(SqlFeatures, OrderByAndLimit) {
  const auto& fixture = SqlFixture::Get();
  auto manager = TwoGpuManager();
  auto results = RunSql(
      "SELECT l_shipmode, COUNT(*) AS n FROM lineitem "
      "GROUP BY l_shipmode ORDER BY n DESC, l_shipmode LIMIT 3",
      *fixture.catalog, manager.get(), ExecutionModelKind::kChunked);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->rows.size(), 3u);
  EXPECT_GE(results->rows[0][1].i, results->rows[1][1].i);
  EXPECT_GE(results->rows[1][1].i, results->rows[2][1].i);
}

TEST(SqlFeatures, OrderByPosition) {
  const auto& fixture = SqlFixture::Get();
  auto manager = TwoGpuManager();
  auto results = RunSql(
      "SELECT l_linenumber, SUM(l_quantity) AS q FROM lineitem "
      "GROUP BY l_linenumber ORDER BY 1",
      *fixture.catalog, manager.get(), ExecutionModelKind::kChunked);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_GE(results->rows.size(), 2u);
  for (size_t i = 1; i < results->rows.size(); ++i) {
    EXPECT_LT(results->rows[i - 1][0].i, results->rows[i][0].i);
  }
}

TEST(SqlFeatures, AvgIsSumOverCount) {
  const auto& fixture = SqlFixture::Get();
  auto manager = TwoGpuManager();
  auto results = RunSql(
      "SELECT SUM(l_quantity) AS s, COUNT(*) AS n, AVG(l_quantity) AS a "
      "FROM lineitem WHERE l_quantity < 10",
      *fixture.catalog, manager.get(), ExecutionModelKind::kChunked);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->rows.size(), 1u);
  const auto& row = results->rows[0];
  ASSERT_TRUE(row[2].is_double);
  EXPECT_DOUBLE_EQ(row[2].d, static_cast<double>(row[0].i) /
                                 static_cast<double>(row[1].i));
}

// --- EXPLAIN ---

TEST(SqlExplain, ShowsPushdownAndCostedJoinOrder) {
  const auto& fixture = SqlFixture::Get();
  auto manager = TwoGpuManager();
  sql::PlannerOptions planner_options;
  planner_options.manager = manager.get();
  // Two build sides on the fact table -> the planner prices both orders.
  auto compiled = sql::Compile(
      "SELECT l_shipmode, SUM(l_extendedprice) AS total "
      "FROM lineitem, orders, part "
      "WHERE l_orderkey = o_orderkey AND l_partkey = p_partkey "
      "  AND p_size < 20 AND o_orderdate >= DATE '1995-01-01' "
      "GROUP BY l_shipmode",
      *fixture.catalog, planner_options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const std::string text = sql::ExplainCompiled(*compiled);
  EXPECT_NE(text.find("pushed-down predicates:"), std::string::npos) << text;
  EXPECT_NE(text.find("orders: o_orderdate >="), std::string::npos) << text;
  EXPECT_NE(text.find("part: p_size <"), std::string::npos) << text;
  EXPECT_NE(text.find("join order: lineitem joins"), std::string::npos)
      << text;
  EXPECT_NE(text.find("costed build orders:"), std::string::npos) << text;
  EXPECT_NE(text.find("(chosen)"), std::string::npos) << text;
  EXPECT_NE(text.find("join selectivities:"), std::string::npos) << text;
  EXPECT_EQ(compiled->join_candidates.size(), 2u);  // 2 permutations priced
  EXPECT_EQ(compiled->fact_table, "lineitem");
}

TEST(SqlExplain, Q6ShowsMergedDateRange) {
  const auto& fixture = SqlFixture::Get();
  auto compiled = sql::Compile(BuiltinSql("q6"), *fixture.catalog);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const std::string text = sql::ExplainCompiled(*compiled);
  // >= lo AND < hi merges into one inclusive Between, like the hand-built
  // plan's shape.
  EXPECT_NE(text.find("l_shipdate between"), std::string::npos) << text;
  EXPECT_NE(text.find("(no joins)"), std::string::npos) << text;
}

// --- Selectivity feedback into the planner ---

// Collects every node of a given kind, probe-side-first.
void CollectNodes(const plan::LogicalNodePtr& node,
                  plan::LogicalNode::Kind kind,
                  std::vector<const plan::LogicalNode*>* out) {
  if (node == nullptr) return;
  CollectNodes(node->child, kind, out);
  CollectNodes(node->build, kind, out);
  if (node->kind == kind) out->push_back(node.get());
}

double PredicateProduct(const plan::LogicalNode& filter) {
  double product = 1.0;
  for (const auto& predicate : filter.predicates) {
    product *= predicate.selectivity;
  }
  return product;
}

obs::OperatorStats SyntheticObservation(const std::string& feedback_key,
                                        uint64_t rows_in, uint64_t rows_out) {
  obs::OperatorStats op;
  op.label = feedback_key;  // unique label -> stable per-label ordinal
  op.kind = "MATERIALIZE";
  op.feedback_key = feedback_key;
  op.selective = true;
  op.rows_in = rows_in;
  op.rows_out = rows_out;
  op.max_chunk_selectivity =
      static_cast<double>(rows_out) / static_cast<double>(rows_in);
  op.launches = 1;
  return op;
}

// The planner consults the selectivity feedback cache on recompile: observed
// step selectivities override the sampled predicate estimates and the join
// selectivity, while a compile without feedback (or under a different query
// name) is untouched.
TEST(SqlFeedback, ObservedSelectivitiesOverridePlannerEstimates) {
  const auto& fixture = SqlFixture::Get();

  auto baseline = sql::Compile(BuiltinSql("q3"), *fixture.catalog);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  std::vector<const plan::LogicalNode*> filters;
  std::vector<const plan::LogicalNode*> joins;
  CollectNodes(baseline->plan, plan::LogicalNode::Kind::kFilter, &filters);
  CollectNodes(baseline->plan, plan::LogicalNode::Kind::kHashJoin, &joins);
  ASSERT_FALSE(filters.empty());
  ASSERT_FALSE(joins.empty());
  const plan::LogicalNode& base_filter = *filters.front();
  ASSERT_FALSE(base_filter.predicates.empty());
  const std::string filter_column = base_filter.predicates.back().column;
  const std::string probe_key = joins.front()->probe_key;
  const double base_product = PredicateProduct(base_filter);
  const double base_join = joins.front()->join_selectivity;

  // Feed the cache the keys lowering stamps on the filter chain's
  // MATERIALIZE and the join's HASH_PROBE, with observed selectivities far
  // from the sampled estimates.
  const double fed_filter = 0.007;
  const double fed_join = 333.0 / 1024.0;  // odd ratio, can't collide with
                                           // a sampled estimate
  plan::SelectivityFeedback feedback;
  feedback.Observe(
      "q3", {SyntheticObservation("step:lower.filter(" + filter_column + ")",
                                  1000000, 7000),
             SyntheticObservation("step:lower.probe(" + probe_key + ")", 1024,
                                  333)});
  ASSERT_EQ(feedback.RunsObserved("q3"), 1u);

  sql::PlannerOptions with_feedback;
  with_feedback.feedback = &feedback;
  with_feedback.feedback_name = "q3";
  auto tuned = sql::Compile(BuiltinSql("q3"), *fixture.catalog, with_feedback);
  ASSERT_TRUE(tuned.ok()) << tuned.status().ToString();
  filters.clear();
  joins.clear();
  CollectNodes(tuned->plan, plan::LogicalNode::Kind::kFilter, &filters);
  CollectNodes(tuned->plan, plan::LogicalNode::Kind::kHashJoin, &joins);
  ASSERT_FALSE(filters.empty());
  ASSERT_FALSE(joins.empty());
  // The correction is spread across the conjuncts, so only the product is
  // pinned: it must land on the measured cumulative selectivity.
  EXPECT_NEAR(PredicateProduct(*filters.front()), fed_filter, 1e-9);
  EXPECT_GT(std::abs(PredicateProduct(*filters.front()) - base_product),
            1e-4);
  EXPECT_DOUBLE_EQ(joins.front()->join_selectivity, fed_join);
  EXPECT_NE(joins.front()->join_selectivity, base_join);

  // A different feedback name leaves the plan at the sampled estimates.
  sql::PlannerOptions other_name;
  other_name.feedback = &feedback;
  other_name.feedback_name = "not-q3";
  auto untouched =
      sql::Compile(BuiltinSql("q3"), *fixture.catalog, other_name);
  ASSERT_TRUE(untouched.ok()) << untouched.status().ToString();
  filters.clear();
  CollectNodes(untouched->plan, plan::LogicalNode::Kind::kFilter, &filters);
  ASSERT_FALSE(filters.empty());
  EXPECT_DOUBLE_EQ(PredicateProduct(*filters.front()), base_product);
}

// --- Service submission via QuerySpec::sql ---

TEST(SqlService, SubmitsSqlText) {
  const auto& fixture = SqlFixture::Get();
  auto manager = TwoGpuManager();

  // The service lowers the text unfused, exactly as Prepare does here, so
  // this bundle reads the served run.
  const ExecutionOptions options = OptionsFor(ExecutionModelKind::kChunked);
  auto q6 = sql::Prepare(BuiltinSql("q6"), *fixture.catalog, manager.get(), 0,
                         options);
  ASSERT_TRUE(q6.ok());
  auto want = tpch::Q6Reference(*fixture.catalog, {});
  ASSERT_TRUE(want.ok());

  ServiceConfig config;
  config.workers = 2;
  QueryService service(manager.get(), config);
  QuerySpec spec;
  spec.sql = BuiltinSql("q6");
  spec.sql_catalog = fixture.catalog.get();
  spec.options = options;
  auto ticket = service.Submit(std::move(spec));
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  const auto& result = (*ticket)->Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*ticket)->name(), "sql");

  auto results = q6->Results(*result);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->rows.size(), 1u);
  EXPECT_EQ(results->rows[0][0].i, *want);
  service.Stop();
}

TEST(SqlService, CompileErrorsSurfaceAtSubmit) {
  const auto& fixture = SqlFixture::Get();
  auto manager = TwoGpuManager();
  ServiceConfig config;
  config.workers = 1;
  QueryService service(manager.get(), config);

  QuerySpec bad_sql;
  bad_sql.sql = "SELECT nope FROM lineitem";
  bad_sql.sql_catalog = fixture.catalog.get();
  auto ticket = service.Submit(std::move(bad_sql));
  ASSERT_FALSE(ticket.ok());
  EXPECT_NE(ticket.status().ToString().find("1:8"), std::string::npos)
      << ticket.status().ToString();

  QuerySpec no_catalog;
  no_catalog.sql = "SELECT COUNT(*) FROM lineitem";
  auto missing = service.Submit(std::move(no_catalog));
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().ToString().find("sql_catalog"),
            std::string::npos);
  service.Stop();
}

}  // namespace
}  // namespace adamant
