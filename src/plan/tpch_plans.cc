#include "plan/tpch_plans.h"

#include <algorithm>
#include <unordered_map>

#include "tpch/tpch_gen.h"

namespace adamant::plan {

namespace {

Result<ColumnPtr> Col(const Catalog& catalog, const std::string& table,
                      const std::string& column) {
  ADAMANT_ASSIGN_OR_RETURN(TablePtr t, catalog.GetTable(table));
  return t->GetColumn(column);
}

NodeConfig FilterCfg(CmpOp op, int64_t lo, int64_t hi = 0,
                     bool combine = false) {
  NodeConfig cfg;
  cfg.cmp_op = op;
  cfg.lo = lo;
  cfg.hi = hi;
  cfg.combine_and = combine;
  return cfg;
}

NodeConfig MaterializeCfg(double selectivity) {
  NodeConfig cfg;
  cfg.selectivity = selectivity;
  return cfg;
}

NodeConfig MapCfg(MapOp op, ElementType in, ElementType out,
                  int64_t imm = 0) {
  NodeConfig cfg;
  cfg.map_op = op;
  cfg.in_type = in;
  cfg.out_type = out;
  cfg.imm = imm;
  return cfg;
}

NodeConfig HashCfg(double expected_rows, bool scale = true) {
  NodeConfig cfg;
  cfg.expected_build_rows = expected_rows;
  cfg.build_rows_scale_with_data = scale;
  return cfg;
}

}  // namespace

Result<int64_t> ExtractQ6(const PlanBundle& bundle,
                          const QueryExecution& exec) {
  return exec.AggValue(bundle.result_node);
}

// ---------------------------------------------------------------------------
// Q6, late-materialization variant: predicates cascade through position
// lists instead of bitmaps. Each stage gathers only the column it needs at
// the current (already reduced) cardinality, and position lists compose via
// MATERIALIZE_POSITION (a position list is itself an int32 column).
// ---------------------------------------------------------------------------
Result<PlanBundle> BuildQ6Late(const Catalog& catalog,
                               const tpch::Q6Params& params, DeviceId device) {
  using K = PrimitiveKind;
  PlanBundle bundle;
  bundle.graph = std::make_unique<PrimitiveGraph>();
  PrimitiveGraph& g = *bundle.graph;

  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr shipdate,
                           Col(catalog, "lineitem", "l_shipdate"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr discount,
                           Col(catalog, "lineitem", "l_discount"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr quantity,
                           Col(catalog, "lineitem", "l_quantity"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr extprice,
                           Col(catalog, "lineitem", "l_extendedprice"));

  // Stage 1: positions of shipdate hits.
  NodeConfig fp1_cfg =
      FilterCfg(CmpOp::kBetween, params.date, params.date_end() - 1);
  fp1_cfg.selectivity = 0.18;
  int fp1 = g.AddNode(K::kFilterPosition, device, fp1_cfg,
                      "q6late.positions_shipdate");
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(shipdate, fp1, 0).status());

  // Stage 2: gather discount at stage-1 positions, filter again.
  int g_disc = g.AddNode(K::kMaterializePosition, device, {},
                         "q6late.gather_discount");
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(discount, g_disc, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(fp1, 0, g_disc, 1).status());
  NodeConfig fp2_cfg = FilterCfg(CmpOp::kBetween, params.discount_pct - 1,
                                 params.discount_pct + 1);
  fp2_cfg.selectivity = 0.32;
  int fp2 = g.AddNode(K::kFilterPosition, device, fp2_cfg,
                      "q6late.positions_discount");
  ADAMANT_RETURN_NOT_OK(g.Connect(g_disc, 0, fp2, 0).status());
  // Compose: stage-2 positions index into stage-1's list.
  int p12 = g.AddNode(K::kMaterializePosition, device, {},
                      "q6late.compose_positions12");
  ADAMANT_RETURN_NOT_OK(g.Connect(fp1, 0, p12, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(fp2, 0, p12, 1).status());

  // Stage 3: quantity predicate at the composed positions.
  int g_qty = g.AddNode(K::kMaterializePosition, device, {},
                        "q6late.gather_quantity");
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(quantity, g_qty, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(p12, 0, g_qty, 1, ElementType::kInt32,
                                  DataSemantic::kPosition)
                            .status());
  NodeConfig fp3_cfg = FilterCfg(CmpOp::kLt, params.quantity);
  fp3_cfg.selectivity = 0.52;
  int fp3 = g.AddNode(K::kFilterPosition, device, fp3_cfg,
                      "q6late.positions_quantity");
  ADAMANT_RETURN_NOT_OK(g.Connect(g_qty, 0, fp3, 0).status());
  int p123 = g.AddNode(K::kMaterializePosition, device, {},
                       "q6late.compose_positions123");
  ADAMANT_RETURN_NOT_OK(g.Connect(p12, 0, p123, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(fp3, 0, p123, 1).status());

  // Final gathers + revenue + reduce.
  int g_price = g.AddNode(K::kMaterializePosition, device, {},
                          "q6late.gather_price");
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(extprice, g_price, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(p123, 0, g_price, 1, ElementType::kInt32,
                                  DataSemantic::kPosition)
                            .status());
  int g_disc2 = g.AddNode(K::kMaterializePosition, device, {},
                          "q6late.gather_discount_final");
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(discount, g_disc2, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(p123, 0, g_disc2, 1, ElementType::kInt32,
                                  DataSemantic::kPosition)
                            .status());
  int map_rev =
      g.AddNode(K::kMap, device,
                MapCfg(MapOp::kMulPct, ElementType::kInt64, ElementType::kInt64),
                "q6late.map_revenue");
  ADAMANT_RETURN_NOT_OK(
      g.Connect(g_price, 0, map_rev, 0, ElementType::kInt64).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(g_disc2, 0, map_rev, 1).status());
  NodeConfig agg_cfg;
  agg_cfg.agg_op = AggOp::kSum;
  int agg = g.AddNode(K::kAggBlock, device, agg_cfg, "q6late.agg_revenue");
  ADAMANT_RETURN_NOT_OK(
      g.Connect(map_rev, 0, agg, 0, ElementType::kInt64).status());

  bundle.nodes = {{"agg", agg}};
  bundle.result_node = agg;
  return bundle;
}

// ---------------------------------------------------------------------------
// Revenue per order over sorted lineitem: boundary flags -> prefix sum ->
// sort_agg (the Table-I sorted-aggregation path); and the hash-based
// equivalent for cross-checking.
// ---------------------------------------------------------------------------
Result<PlanBundle> BuildRevenueByOrderSorted(const Catalog& catalog,
                                             DeviceId device) {
  using K = PrimitiveKind;
  PlanBundle bundle;
  bundle.graph = std::make_unique<PrimitiveGraph>();
  PrimitiveGraph& g = *bundle.graph;

  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_orderkey,
                           Col(catalog, "lineitem", "l_orderkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_extprice,
                           Col(catalog, "lineitem", "l_extendedprice"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_discount,
                           Col(catalog, "lineitem", "l_discount"));

  int flags = g.AddNode(
      K::kMap, device,
      MapCfg(MapOp::kNeqPrev, ElementType::kInt32, ElementType::kInt32),
      "sorted.map_boundaries");
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_orderkey, flags, 0).status());
  NodeConfig px_cfg;
  px_cfg.exclusive = false;  // inclusive: first group is index 0
  int pxsum = g.AddNode(K::kPrefixSum, device, px_cfg, "sorted.prefix_sum");
  ADAMANT_RETURN_NOT_OK(g.Connect(flags, 0, pxsum, 0).status());

  int map_rev = g.AddNode(K::kMap, device,
                          MapCfg(MapOp::kMulPctComplement, ElementType::kInt64,
                                 ElementType::kInt64),
                          "sorted.map_revenue");
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_extprice, map_rev, 0).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_discount, map_rev, 1).status());

  // Distinct orderkeys = the last prefix value + 1; the plan sizes the
  // output for the worst case (every row its own group is impossible, but
  // the order count bounds it).
  NodeConfig agg_cfg;
  agg_cfg.agg_op = AggOp::kSum;
  agg_cfg.num_groups = l_orderkey->length();
  int agg = g.AddNode(K::kSortAgg, device, agg_cfg, "sorted.sort_agg");
  ADAMANT_RETURN_NOT_OK(
      g.Connect(map_rev, 0, agg, 0, ElementType::kInt64).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(pxsum, 0, agg, 1).status());

  bundle.nodes = {{"agg", agg}};
  bundle.result_node = agg;
  return bundle;
}

Result<PlanBundle> BuildRevenueByOrderHashed(const Catalog& catalog,
                                             DeviceId device) {
  using K = PrimitiveKind;
  PlanBundle bundle;
  bundle.graph = std::make_unique<PrimitiveGraph>();
  PrimitiveGraph& g = *bundle.graph;

  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_orderkey,
                           Col(catalog, "lineitem", "l_orderkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_extprice,
                           Col(catalog, "lineitem", "l_extendedprice"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_discount,
                           Col(catalog, "lineitem", "l_discount"));

  int map_rev = g.AddNode(K::kMap, device,
                          MapCfg(MapOp::kMulPctComplement, ElementType::kInt64,
                                 ElementType::kInt64),
                          "hashed.map_revenue");
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_extprice, map_rev, 0).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_discount, map_rev, 1).status());
  NodeConfig agg_cfg = HashCfg(static_cast<double>(l_orderkey->length()));
  agg_cfg.agg_op = AggOp::kSum;
  int agg = g.AddNode(K::kHashAgg, device, agg_cfg, "hashed.hash_agg");
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_orderkey, agg, 0).status());
  ADAMANT_RETURN_NOT_OK(
      g.Connect(map_rev, 0, agg, 1, ElementType::kInt64).status());

  bundle.nodes = {{"agg", agg}};
  bundle.result_node = agg;
  return bundle;
}

// ---------------------------------------------------------------------------
// Q3 — revenue of undelivered orders for one market segment.
// Pipeline 1 (customer): filter segment -> materialize custkey -> build HT1.
// Pipeline 2 (orders): filter date -> materialize custkey/orderkey -> probe
//   HT1 -> gather orderkeys -> build HT2.
// Pipeline 3 (lineitem): filter shipdate -> materialize orderkey/price/
//   discount -> probe HT2 -> gather three columns -> map revenue ->
//   hash_agg by orderkey.
// ---------------------------------------------------------------------------
Result<PlanBundle> BuildQ3(const Catalog& catalog,
                           const tpch::Q3Params& params, DeviceId device) {
  using K = PrimitiveKind;
  PlanBundle bundle;
  bundle.graph = std::make_unique<PrimitiveGraph>();
  PrimitiveGraph& g = *bundle.graph;

  ADAMANT_ASSIGN_OR_RETURN(TablePtr customer, catalog.GetTable("customer"));
  const StringDictionary* seg_dict = customer->FindDictionary("c_mktsegment");
  if (seg_dict == nullptr) {
    return Status::Internal("customer has no c_mktsegment dictionary");
  }
  ADAMANT_ASSIGN_OR_RETURN(int32_t segment_code,
                           seg_dict->Lookup(params.segment));

  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr c_custkey,
                           Col(catalog, "customer", "c_custkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr c_segment,
                           Col(catalog, "customer", "c_mktsegment"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr o_orderkey,
                           Col(catalog, "orders", "o_orderkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr o_custkey,
                           Col(catalog, "orders", "o_custkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr o_orderdate,
                           Col(catalog, "orders", "o_orderdate"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_orderkey,
                           Col(catalog, "lineitem", "l_orderkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_shipdate,
                           Col(catalog, "lineitem", "l_shipdate"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_extprice,
                           Col(catalog, "lineitem", "l_extendedprice"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_discount,
                           Col(catalog, "lineitem", "l_discount"));

  const auto customer_rows = static_cast<double>(c_custkey->length());
  const auto orders_rows = static_cast<double>(o_orderkey->length());

  // Pipeline 1.
  int f_seg = g.AddNode(K::kFilterBitmap, device,
                        FilterCfg(CmpOp::kEq, segment_code), "q3.filter_segment");
  int m_ck = g.AddNode(K::kMaterialize, device, MaterializeCfg(0.25),
                       "q3.materialize_custkey");
  int build1 = g.AddNode(K::kHashBuild, device, HashCfg(customer_rows * 0.25),
                         "q3.build_customers");
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(c_segment, f_seg, 0).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(c_custkey, m_ck, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_seg, 0, m_ck, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(m_ck, 0, build1, 0).status());

  // Pipeline 2.
  int f_date = g.AddNode(K::kFilterBitmap, device,
                         FilterCfg(CmpOp::kLt, params.date),
                         "q3.filter_orderdate");
  int m_ocust = g.AddNode(K::kMaterialize, device, MaterializeCfg(0.60),
                          "q3.materialize_ocustkey");
  int m_okey = g.AddNode(K::kMaterialize, device, MaterializeCfg(0.60),
                         "q3.materialize_orderkey");
  NodeConfig probe1_cfg;
  probe1_cfg.probe_mode = ProbeMode::kAll;  // customer keys are unique
  probe1_cfg.selectivity = 0.30;
  int probe1 = g.AddNode(K::kHashProbe, device, probe1_cfg, "q3.probe_customers");
  int gather_ok =
      g.AddNode(K::kMaterializePosition, device, {}, "q3.gather_orderkey");
  int build2 = g.AddNode(K::kHashBuild, device, HashCfg(orders_rows * 0.15),
                         "q3.build_orders");
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(o_orderdate, f_date, 0).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(o_custkey, m_ocust, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_date, 0, m_ocust, 1).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(o_orderkey, m_okey, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_date, 0, m_okey, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(m_ocust, 0, probe1, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(build1, 0, probe1, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(m_okey, 0, gather_ok, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(probe1, 0, gather_ok, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(gather_ok, 0, build2, 0).status());

  // Pipeline 3.
  int f_ship = g.AddNode(K::kFilterBitmap, device,
                         FilterCfg(CmpOp::kGt, params.date),
                         "q3.filter_shipdate");
  int m_lok = g.AddNode(K::kMaterialize, device, MaterializeCfg(0.60),
                        "q3.materialize_lorderkey");
  int m_price = g.AddNode(K::kMaterialize, device, MaterializeCfg(0.60),
                          "q3.materialize_price");
  int m_disc = g.AddNode(K::kMaterialize, device, MaterializeCfg(0.60),
                         "q3.materialize_discount");
  NodeConfig probe2_cfg;
  probe2_cfg.probe_mode = ProbeMode::kAll;
  probe2_cfg.selectivity = 0.25;
  int probe2 = g.AddNode(K::kHashProbe, device, probe2_cfg, "q3.probe_orders");
  int g_lok =
      g.AddNode(K::kMaterializePosition, device, {}, "q3.gather_lorderkey");
  int g_price =
      g.AddNode(K::kMaterializePosition, device, {}, "q3.gather_price");
  int g_disc =
      g.AddNode(K::kMaterializePosition, device, {}, "q3.gather_discount");
  int map_rev = g.AddNode(K::kMap, device,
                          MapCfg(MapOp::kMulPctComplement, ElementType::kInt64,
                                 ElementType::kInt64),
                          "q3.map_revenue");
  NodeConfig agg_cfg = HashCfg(orders_rows * 0.15);
  agg_cfg.agg_op = AggOp::kSum;
  int agg = g.AddNode(K::kHashAgg, device, agg_cfg, "q3.agg_revenue");

  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_shipdate, f_ship, 0).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_orderkey, m_lok, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_ship, 0, m_lok, 1).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_extprice, m_price, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_ship, 0, m_price, 1).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_discount, m_disc, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_ship, 0, m_disc, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(m_lok, 0, probe2, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(build2, 0, probe2, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(m_lok, 0, g_lok, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(probe2, 0, g_lok, 1).status());
  ADAMANT_RETURN_NOT_OK(
      g.Connect(m_price, 0, g_price, 0, ElementType::kInt64).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(probe2, 0, g_price, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(m_disc, 0, g_disc, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(probe2, 0, g_disc, 1).status());
  ADAMANT_RETURN_NOT_OK(
      g.Connect(g_price, 0, map_rev, 0, ElementType::kInt64).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(g_disc, 0, map_rev, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(g_lok, 0, agg, 0).status());
  ADAMANT_RETURN_NOT_OK(
      g.Connect(map_rev, 0, agg, 1, ElementType::kInt64).status());

  bundle.nodes = {{"build_customers", build1},
                  {"build_orders", build2},
                  {"agg", agg}};
  bundle.result_node = agg;
  return bundle;
}

Result<std::vector<tpch::Q3Row>> ExtractQ3(const PlanBundle& bundle,
                                           const QueryExecution& exec,
                                           const Catalog& catalog,
                                           const tpch::Q3Params& params) {
  ADAMANT_ASSIGN_OR_RETURN(auto groups, exec.GroupResults(bundle.result_node));

  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr o_orderkey,
                           Col(catalog, "orders", "o_orderkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr o_orderdate,
                           Col(catalog, "orders", "o_orderdate"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr o_shippriority,
                           Col(catalog, "orders", "o_shippriority"));
  std::unordered_map<int32_t, size_t> order_row;
  order_row.reserve(o_orderkey->length());
  for (size_t i = 0; i < o_orderkey->length(); ++i) {
    order_row.emplace(o_orderkey->Value<int32_t>(i), i);
  }

  std::vector<tpch::Q3Row> rows;
  rows.reserve(groups.size());
  for (const auto& [orderkey, revenue] : groups) {
    auto it = order_row.find(orderkey);
    if (it == order_row.end()) {
      return Status::Internal("Q3 group key " + std::to_string(orderkey) +
                              " not in orders");
    }
    rows.push_back(tpch::Q3Row{orderkey, revenue,
                               o_orderdate->Value<int32_t>(it->second),
                               o_shippriority->Value<int32_t>(it->second)});
  }
  std::sort(rows.begin(), rows.end(),
            [](const tpch::Q3Row& a, const tpch::Q3Row& b) {
              if (a.revenue != b.revenue) return a.revenue > b.revenue;
              if (a.orderdate != b.orderdate) return a.orderdate < b.orderdate;
              return a.orderkey < b.orderkey;
            });
  if (rows.size() > params.limit) rows.resize(params.limit);
  return rows;
}

// ---------------------------------------------------------------------------
// Q5 — local supplier volume (six tables). Pipelines 1-4 build the nation
// (region-filtered), customer, supplier and orders (date-filtered) hash
// tables; pipeline 5 streams lineitem through three inner probes, filters
// on c_nationkey == s_nationkey with a MAP/FILTER over the probed payloads,
// semi-probes the region's nations, and aggregates revenue per nation.
// ---------------------------------------------------------------------------
Result<PlanBundle> BuildQ5(const Catalog& catalog,
                           const tpch::Q5Params& params, DeviceId device) {
  using K = PrimitiveKind;
  PlanBundle bundle;
  bundle.graph = std::make_unique<PrimitiveGraph>();
  PrimitiveGraph& g = *bundle.graph;

  // Resolve the region key from its dictionary-encoded name.
  ADAMANT_ASSIGN_OR_RETURN(TablePtr region, catalog.GetTable("region"));
  const StringDictionary* region_dict = region->FindDictionary("r_name");
  if (region_dict == nullptr) {
    return Status::Internal("region has no r_name dictionary");
  }
  ADAMANT_ASSIGN_OR_RETURN(int32_t region_code,
                           region_dict->Lookup(params.region));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr r_regionkey,
                           Col(catalog, "region", "r_regionkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr r_name, Col(catalog, "region", "r_name"));
  int32_t regionkey = -1;
  for (size_t i = 0; i < r_name->length(); ++i) {
    if (r_name->Value<int32_t>(i) == region_code) {
      regionkey = r_regionkey->Value<int32_t>(i);
    }
  }
  if (regionkey < 0) return Status::NotFound("region " + params.region);

  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr n_nationkey,
                           Col(catalog, "nation", "n_nationkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr n_regionkey,
                           Col(catalog, "nation", "n_regionkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr c_custkey,
                           Col(catalog, "customer", "c_custkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr c_nationkey,
                           Col(catalog, "customer", "c_nationkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr s_suppkey,
                           Col(catalog, "supplier", "s_suppkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr s_nationkey,
                           Col(catalog, "supplier", "s_nationkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr o_orderkey,
                           Col(catalog, "orders", "o_orderkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr o_custkey,
                           Col(catalog, "orders", "o_custkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr o_orderdate,
                           Col(catalog, "orders", "o_orderdate"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_orderkey,
                           Col(catalog, "lineitem", "l_orderkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_suppkey,
                           Col(catalog, "lineitem", "l_suppkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_extprice,
                           Col(catalog, "lineitem", "l_extendedprice"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_discount,
                           Col(catalog, "lineitem", "l_discount"));

  // Pipeline 1: the region's nations (fixed 25-row table: no data scaling).
  int f_region = g.AddNode(K::kFilterBitmap, device,
                           FilterCfg(CmpOp::kEq, regionkey),
                           "q5.filter_region");
  int m_nkey = g.AddNode(K::kMaterialize, device, MaterializeCfg(0.3),
                         "q5.materialize_nationkey");
  NodeConfig nation_cfg = HashCfg(32, /*scale=*/false);
  int build_nation = g.AddNode(K::kHashBuild, device, nation_cfg,
                               "q5.build_region_nations");
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(n_regionkey, f_region, 0).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(n_nationkey, m_nkey, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_region, 0, m_nkey, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(m_nkey, 0, build_nation, 0).status());

  // Pipeline 2: customers (custkey -> nationkey).
  int build_cust = g.AddNode(
      K::kHashBuild, device,
      HashCfg(static_cast<double>(c_custkey->length()) * 1.05),
      "q5.build_customers");
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(c_custkey, build_cust, 0).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(c_nationkey, build_cust, 1).status());

  // Pipeline 3: suppliers (suppkey -> nationkey).
  int build_supp = g.AddNode(
      K::kHashBuild, device,
      HashCfg(static_cast<double>(s_suppkey->length()) * 1.05),
      "q5.build_suppliers");
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(s_suppkey, build_supp, 0).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(s_nationkey, build_supp, 1).status());

  // Pipeline 4: the year's orders (orderkey -> custkey).
  int f_date = g.AddNode(
      K::kFilterBitmap, device,
      FilterCfg(CmpOp::kBetween, params.date, params.date_end() - 1),
      "q5.filter_orderdate");
  int m_okey = g.AddNode(K::kMaterialize, device, MaterializeCfg(0.20),
                         "q5.materialize_orderkey");
  int m_ocust = g.AddNode(K::kMaterialize, device, MaterializeCfg(0.20),
                          "q5.materialize_ocustkey");
  int build_orders = g.AddNode(
      K::kHashBuild, device,
      HashCfg(static_cast<double>(o_orderkey->length()) * 0.20),
      "q5.build_orders");
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(o_orderdate, f_date, 0).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(o_orderkey, m_okey, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_date, 0, m_okey, 1).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(o_custkey, m_ocust, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_date, 0, m_ocust, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(m_okey, 0, build_orders, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(m_ocust, 0, build_orders, 1).status());

  // Pipeline 5: lineitem through the probe chain.
  NodeConfig probe0_cfg;
  probe0_cfg.selectivity = 0.25;  // one year of ~7
  int probe0 = g.AddNode(K::kHashProbe, device, probe0_cfg, "q5.probe_orders");
  int g_supp0 =
      g.AddNode(K::kMaterializePosition, device, {}, "q5.gather_suppkey0");
  int g_price0 =
      g.AddNode(K::kMaterializePosition, device, {}, "q5.gather_price0");
  int g_disc0 =
      g.AddNode(K::kMaterializePosition, device, {}, "q5.gather_discount0");
  NodeConfig probe1_cfg;
  probe1_cfg.selectivity = 1.0;  // FK: every custkey matches
  int probe1 =
      g.AddNode(K::kHashProbe, device, probe1_cfg, "q5.probe_customers");
  int g_supp1 =
      g.AddNode(K::kMaterializePosition, device, {}, "q5.gather_suppkey1");
  int g_price1 =
      g.AddNode(K::kMaterializePosition, device, {}, "q5.gather_price1");
  int g_disc1 =
      g.AddNode(K::kMaterializePosition, device, {}, "q5.gather_discount1");
  NodeConfig probe2_cfg;
  probe2_cfg.selectivity = 1.0;  // FK: every suppkey matches
  int probe2 =
      g.AddNode(K::kHashProbe, device, probe2_cfg, "q5.probe_suppliers");
  int g_cnat2 =
      g.AddNode(K::kMaterializePosition, device, {}, "q5.gather_cnation2");
  int g_price2 =
      g.AddNode(K::kMaterializePosition, device, {}, "q5.gather_price2");
  int g_disc2 =
      g.AddNode(K::kMaterializePosition, device, {}, "q5.gather_discount2");
  int nat_diff = g.AddNode(
      K::kMap, device,
      MapCfg(MapOp::kSubCol, ElementType::kInt32, ElementType::kInt32),
      "q5.map_nation_diff");
  int f_local = g.AddNode(K::kFilterBitmap, device, FilterCfg(CmpOp::kEq, 0),
                          "q5.filter_local_supplier");
  int m_nat = g.AddNode(K::kMaterialize, device, MaterializeCfg(0.10),
                        "q5.materialize_nation");
  int map_rev = g.AddNode(K::kMap, device,
                          MapCfg(MapOp::kMulPctComplement, ElementType::kInt64,
                                 ElementType::kInt64),
                          "q5.map_revenue");
  int m_rev = g.AddNode(K::kMaterialize, device, MaterializeCfg(0.10),
                        "q5.materialize_revenue");
  NodeConfig probe3_cfg;
  probe3_cfg.probe_mode = ProbeMode::kSemi;
  probe3_cfg.selectivity = 0.45;  // ~5 of 25 nations, with margin
  int probe3 =
      g.AddNode(K::kHashProbe, device, probe3_cfg, "q5.probe_region_nations");
  int g_nat4 =
      g.AddNode(K::kMaterializePosition, device, {}, "q5.gather_nation4");
  int g_rev4 =
      g.AddNode(K::kMaterializePosition, device, {}, "q5.gather_revenue4");
  NodeConfig agg_cfg = HashCfg(32, /*scale=*/false);
  agg_cfg.agg_op = AggOp::kSum;
  int agg = g.AddNode(K::kHashAgg, device, agg_cfg, "q5.agg_by_nation");

  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_orderkey, probe0, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(build_orders, 0, probe0, 1).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_suppkey, g_supp0, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(probe0, 0, g_supp0, 1).status());
  ADAMANT_RETURN_NOT_OK(
      g.ConnectScan(l_extprice, g_price0, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(probe0, 0, g_price0, 1).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_discount, g_disc0, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(probe0, 0, g_disc0, 1).status());

  ADAMANT_RETURN_NOT_OK(g.Connect(probe0, 1, probe1, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(build_cust, 0, probe1, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(g_supp0, 0, g_supp1, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(probe1, 0, g_supp1, 1).status());
  ADAMANT_RETURN_NOT_OK(
      g.Connect(g_price0, 0, g_price1, 0, ElementType::kInt64).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(probe1, 0, g_price1, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(g_disc0, 0, g_disc1, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(probe1, 0, g_disc1, 1).status());

  ADAMANT_RETURN_NOT_OK(g.Connect(g_supp1, 0, probe2, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(build_supp, 0, probe2, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(probe1, 1, g_cnat2, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(probe2, 0, g_cnat2, 1).status());
  ADAMANT_RETURN_NOT_OK(
      g.Connect(g_price1, 0, g_price2, 0, ElementType::kInt64).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(probe2, 0, g_price2, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(g_disc1, 0, g_disc2, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(probe2, 0, g_disc2, 1).status());

  ADAMANT_RETURN_NOT_OK(g.Connect(g_cnat2, 0, nat_diff, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(probe2, 1, nat_diff, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(nat_diff, 0, f_local, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(g_cnat2, 0, m_nat, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_local, 0, m_nat, 1).status());
  ADAMANT_RETURN_NOT_OK(
      g.Connect(g_price2, 0, map_rev, 0, ElementType::kInt64).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(g_disc2, 0, map_rev, 1).status());
  ADAMANT_RETURN_NOT_OK(
      g.Connect(map_rev, 0, m_rev, 0, ElementType::kInt64).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_local, 0, m_rev, 1).status());

  ADAMANT_RETURN_NOT_OK(g.Connect(m_nat, 0, probe3, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(build_nation, 0, probe3, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(m_nat, 0, g_nat4, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(probe3, 0, g_nat4, 1).status());
  ADAMANT_RETURN_NOT_OK(
      g.Connect(m_rev, 0, g_rev4, 0, ElementType::kInt64).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(probe3, 0, g_rev4, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(g_nat4, 0, agg, 0).status());
  ADAMANT_RETURN_NOT_OK(
      g.Connect(g_rev4, 0, agg, 1, ElementType::kInt64).status());

  bundle.nodes = {{"agg", agg}};
  bundle.result_node = agg;
  return bundle;
}

Result<std::map<int32_t, std::string>> NationNames(const Catalog& catalog) {
  ADAMANT_ASSIGN_OR_RETURN(TablePtr nation, catalog.GetTable("nation"));
  const StringDictionary* dict = nation->FindDictionary("n_name");
  if (dict == nullptr) return Status::Internal("nation dictionary missing");
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr n_key, nation->GetColumn("n_nationkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr n_name, nation->GetColumn("n_name"));
  std::map<int32_t, std::string> names;
  for (size_t i = 0; i < nation->num_rows(); ++i) {
    names[n_key->Value<int32_t>(i)] =
        dict->GetString(n_name->Value<int32_t>(i));
  }
  return names;
}

Result<std::vector<tpch::Q5Row>> ExtractQ5(const PlanBundle& bundle,
                                           const QueryExecution& exec,
                                           const Catalog& catalog) {
  ADAMANT_ASSIGN_OR_RETURN(auto groups, exec.GroupResults(bundle.result_node));
  ADAMANT_ASSIGN_OR_RETURN(auto name_of, NationNames(catalog));
  std::vector<tpch::Q5Row> rows;
  rows.reserve(groups.size());
  for (const auto& [nationkey, revenue] : groups) {
    auto it = name_of.find(nationkey);
    if (it == name_of.end()) {
      return Status::Internal("nation key " + std::to_string(nationkey) +
                              " not in nation table");
    }
    rows.push_back(tpch::Q5Row{nationkey, it->second, revenue});
  }
  std::sort(rows.begin(), rows.end(),
            [](const tpch::Q5Row& a, const tpch::Q5Row& b) {
              if (a.revenue != b.revenue) return a.revenue > b.revenue;
              return a.nationkey < b.nationkey;
            });
  return rows;
}

// ---------------------------------------------------------------------------
// Q10 — returned-item reporting. Pipeline 1 builds a hash table over the
// quarter's orders keyed by orderkey with the custkey as payload; pipeline 2
// probes with returned lineitems and aggregates revenue directly on the
// probed payload (the custkey).
// ---------------------------------------------------------------------------
Result<PlanBundle> BuildQ10(const Catalog& catalog,
                            const tpch::Q10Params& params, DeviceId device) {
  using K = PrimitiveKind;
  PlanBundle bundle;
  bundle.graph = std::make_unique<PrimitiveGraph>();
  PrimitiveGraph& g = *bundle.graph;

  ADAMANT_ASSIGN_OR_RETURN(TablePtr lineitem, catalog.GetTable("lineitem"));
  const StringDictionary* rf_dict = lineitem->FindDictionary("l_returnflag");
  if (rf_dict == nullptr) {
    return Status::Internal("lineitem has no l_returnflag dictionary");
  }
  ADAMANT_ASSIGN_OR_RETURN(int32_t code_r, rf_dict->Lookup("R"));

  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr o_orderkey,
                           Col(catalog, "orders", "o_orderkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr o_custkey,
                           Col(catalog, "orders", "o_custkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr o_orderdate,
                           Col(catalog, "orders", "o_orderdate"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_orderkey,
                           Col(catalog, "lineitem", "l_orderkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_returnflag,
                           Col(catalog, "lineitem", "l_returnflag"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_extprice,
                           Col(catalog, "lineitem", "l_extendedprice"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_discount,
                           Col(catalog, "lineitem", "l_discount"));

  const auto orders_rows = static_cast<double>(o_orderkey->length());

  // Pipeline 1: quarter's orders -> HT(orderkey -> custkey).
  int f_date = g.AddNode(
      K::kFilterBitmap, device,
      FilterCfg(CmpOp::kBetween, params.date, params.date_end() - 1),
      "q10.filter_orderdate");
  int m_okey = g.AddNode(K::kMaterialize, device, MaterializeCfg(0.08),
                         "q10.materialize_orderkey");
  int m_cust = g.AddNode(K::kMaterialize, device, MaterializeCfg(0.08),
                         "q10.materialize_custkey");
  int build = g.AddNode(K::kHashBuild, device, HashCfg(orders_rows * 0.06),
                        "q10.build_orders");
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(o_orderdate, f_date, 0).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(o_orderkey, m_okey, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_date, 0, m_okey, 1).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(o_custkey, m_cust, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_date, 0, m_cust, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(m_okey, 0, build, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(m_cust, 0, build, 1).status());

  // Pipeline 2: returned lineitems -> probe -> revenue by payload custkey.
  int f_ret = g.AddNode(K::kFilterBitmap, device,
                        FilterCfg(CmpOp::kEq, code_r), "q10.filter_returned");
  int m_lok = g.AddNode(K::kMaterialize, device, MaterializeCfg(0.33),
                        "q10.materialize_lorderkey");
  int m_price = g.AddNode(K::kMaterialize, device, MaterializeCfg(0.33),
                          "q10.materialize_price");
  int m_disc = g.AddNode(K::kMaterialize, device, MaterializeCfg(0.33),
                         "q10.materialize_discount");
  NodeConfig probe_cfg;
  probe_cfg.probe_mode = ProbeMode::kAll;
  probe_cfg.selectivity = 0.10;  // one quarter of ~7 years, with margin
  int probe = g.AddNode(K::kHashProbe, device, probe_cfg, "q10.probe_orders");
  int g_price =
      g.AddNode(K::kMaterializePosition, device, {}, "q10.gather_price");
  int g_disc =
      g.AddNode(K::kMaterializePosition, device, {}, "q10.gather_discount");
  int map_rev = g.AddNode(K::kMap, device,
                          MapCfg(MapOp::kMulPctComplement, ElementType::kInt64,
                                 ElementType::kInt64),
                          "q10.map_revenue");
  NodeConfig agg_cfg = HashCfg(orders_rows * 0.05);
  agg_cfg.agg_op = AggOp::kSum;
  int agg = g.AddNode(K::kHashAgg, device, agg_cfg, "q10.agg_by_custkey");

  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_returnflag, f_ret, 0).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_orderkey, m_lok, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_ret, 0, m_lok, 1).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_extprice, m_price, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_ret, 0, m_price, 1).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_discount, m_disc, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_ret, 0, m_disc, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(m_lok, 0, probe, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(build, 0, probe, 1).status());
  ADAMANT_RETURN_NOT_OK(
      g.Connect(m_price, 0, g_price, 0, ElementType::kInt64).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(probe, 0, g_price, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(m_disc, 0, g_disc, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(probe, 0, g_disc, 1).status());
  ADAMANT_RETURN_NOT_OK(
      g.Connect(g_price, 0, map_rev, 0, ElementType::kInt64).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(g_disc, 0, map_rev, 1).status());
  // The aggregation key is the probe's payload output (the custkey).
  ADAMANT_RETURN_NOT_OK(g.Connect(probe, 1, agg, 0).status());
  ADAMANT_RETURN_NOT_OK(
      g.Connect(map_rev, 0, agg, 1, ElementType::kInt64).status());

  bundle.nodes = {{"build", build}, {"probe", probe}, {"agg", agg}};
  bundle.result_node = agg;
  return bundle;
}

Result<std::vector<tpch::Q10Row>> ExtractQ10(const PlanBundle& bundle,
                                             const QueryExecution& exec,
                                             const tpch::Q10Params& params) {
  ADAMANT_ASSIGN_OR_RETURN(auto groups, exec.GroupResults(bundle.result_node));
  std::vector<tpch::Q10Row> rows;
  rows.reserve(groups.size());
  for (const auto& [custkey, revenue] : groups) {
    rows.push_back(tpch::Q10Row{custkey, revenue});
  }
  std::sort(rows.begin(), rows.end(),
            [](const tpch::Q10Row& a, const tpch::Q10Row& b) {
              if (a.revenue != b.revenue) return a.revenue > b.revenue;
              return a.custkey < b.custkey;
            });
  if (rows.size() > params.limit) rows.resize(params.limit);
  return rows;
}

// ---------------------------------------------------------------------------
// Q12 — shipping modes and order priority. The order priority travels as the
// hash table's payload; post-probe filters over the payload split the joined
// lines into high/low priority before counting per ship mode.
// ---------------------------------------------------------------------------
Result<PlanBundle> BuildQ12(const Catalog& catalog,
                            const tpch::Q12Params& params, DeviceId device) {
  using K = PrimitiveKind;
  PlanBundle bundle;
  bundle.graph = std::make_unique<PrimitiveGraph>();
  PrimitiveGraph& g = *bundle.graph;

  ADAMANT_ASSIGN_OR_RETURN(TablePtr lineitem, catalog.GetTable("lineitem"));
  const StringDictionary* modes = lineitem->FindDictionary("l_shipmode");
  if (modes == nullptr) {
    return Status::Internal("lineitem has no l_shipmode dictionary");
  }
  ADAMANT_ASSIGN_OR_RETURN(int32_t mode1, modes->Lookup(params.shipmode1));
  ADAMANT_ASSIGN_OR_RETURN(int32_t mode2, modes->Lookup(params.shipmode2));

  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr o_orderkey,
                           Col(catalog, "orders", "o_orderkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr o_priority,
                           Col(catalog, "orders", "o_orderpriority"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_orderkey,
                           Col(catalog, "lineitem", "l_orderkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_shipmode,
                           Col(catalog, "lineitem", "l_shipmode"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_shipdate,
                           Col(catalog, "lineitem", "l_shipdate"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_commit,
                           Col(catalog, "lineitem", "l_commitdate"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_receipt,
                           Col(catalog, "lineitem", "l_receiptdate"));

  // Pipeline 1: all orders -> hash table keyed by orderkey carrying the
  // priority as payload.
  int build = g.AddNode(
      K::kHashBuild, device,
      HashCfg(static_cast<double>(o_orderkey->length()) * 1.05),
      "q12.build_orders");
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(o_orderkey, build, 0).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(o_priority, build, 1).status());

  // Pipeline 2: qualifying lineitems -> probe -> payload split -> counts.
  int f_mode = g.AddNode(K::kFilterBitmap, device,
                         FilterCfg(CmpOp::kInPair, mode1, mode2),
                         "q12.filter_shipmode");
  int late = g.AddNode(
      K::kMap, device,
      MapCfg(MapOp::kSubCol, ElementType::kInt32, ElementType::kInt32),
      "q12.map_receipt_minus_commit");
  int f_late = g.AddNode(K::kFilterBitmap, device,
                         FilterCfg(CmpOp::kGt, 0, 0, /*combine=*/true),
                         "q12.filter_commit_before_receipt");
  int slack = g.AddNode(
      K::kMap, device,
      MapCfg(MapOp::kSubCol, ElementType::kInt32, ElementType::kInt32),
      "q12.map_commit_minus_ship");
  int f_slack = g.AddNode(K::kFilterBitmap, device,
                          FilterCfg(CmpOp::kGt, 0, 0, /*combine=*/true),
                          "q12.filter_ship_before_commit");
  int f_window = g.AddNode(
      K::kFilterBitmap, device,
      [&] {
        NodeConfig cfg = FilterCfg(CmpOp::kBetween, params.date,
                                   params.date_end() - 1, /*combine=*/true);
        return cfg;
      }(),
      "q12.filter_receipt_window");
  int m_mode = g.AddNode(K::kMaterialize, device, MaterializeCfg(0.05),
                         "q12.materialize_shipmode");
  int m_okey = g.AddNode(K::kMaterialize, device, MaterializeCfg(0.05),
                         "q12.materialize_orderkey");
  NodeConfig probe_cfg;
  probe_cfg.probe_mode = ProbeMode::kAll;  // FK: exactly one match per line
  probe_cfg.selectivity = 1.0;
  int probe = g.AddNode(K::kHashProbe, device, probe_cfg, "q12.probe_orders");
  int g_mode =
      g.AddNode(K::kMaterializePosition, device, {}, "q12.gather_shipmode");

  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_shipmode, f_mode, 0).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_receipt, late, 0).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_commit, late, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(late, 0, f_late, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_mode, 0, f_late, 1).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_commit, slack, 0).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_shipdate, slack, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(slack, 0, f_slack, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_late, 0, f_slack, 1).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_receipt, f_window, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_slack, 0, f_window, 1).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_shipmode, m_mode, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_window, 0, m_mode, 1).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_orderkey, m_okey, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_window, 0, m_okey, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(m_okey, 0, probe, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(build, 0, probe, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(m_mode, 0, g_mode, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(probe, 0, g_mode, 1).status());

  // Split by the probed priority payload. Codes 0/1 = 1-URGENT/2-HIGH.
  auto count_branch = [&](const char* label, CmpOp op, int64_t threshold,
                          double sel) -> Result<int> {
    int f = g.AddNode(K::kFilterBitmap, device, FilterCfg(op, threshold),
                      std::string("q12.filter_") + label);
    ADAMANT_RETURN_NOT_OK(g.Connect(probe, 1, f, 0).status());
    NodeConfig mcfg = MaterializeCfg(sel);
    int m = g.AddNode(K::kMaterialize, device, mcfg,
                      std::string("q12.materialize_") + label);
    ADAMANT_RETURN_NOT_OK(g.Connect(g_mode, 0, m, 0).status());
    ADAMANT_RETURN_NOT_OK(g.Connect(f, 0, m, 1).status());
    NodeConfig acfg = HashCfg(/*7 ship modes*/ 8, /*scale=*/false);
    acfg.agg_op = AggOp::kCount;
    int agg = g.AddNode(K::kHashAgg, device, acfg,
                        std::string("q12.count_") + label);
    ADAMANT_RETURN_NOT_OK(g.Connect(m, 0, agg, 0).status());
    return agg;
  };
  ADAMANT_ASSIGN_OR_RETURN(int agg_high,
                           count_branch("high", CmpOp::kLe, 1, 0.55));
  ADAMANT_ASSIGN_OR_RETURN(int agg_low,
                           count_branch("low", CmpOp::kGe, 2, 0.75));

  bundle.nodes = {{"build", build},
                  {"probe", probe},
                  {"high", agg_high},
                  {"low", agg_low}};
  bundle.result_node = agg_high;
  return bundle;
}

Result<std::vector<tpch::Q12Row>> ExtractQ12(const PlanBundle& bundle,
                                             const QueryExecution& exec) {
  ADAMANT_ASSIGN_OR_RETURN(auto high,
                           exec.GroupResults(bundle.nodes.at("high")));
  ADAMANT_ASSIGN_OR_RETURN(auto low, exec.GroupResults(bundle.nodes.at("low")));
  std::map<int32_t, tpch::Q12Row> rows;
  for (const auto& [mode, count] : high) {
    rows.try_emplace(mode, tpch::Q12Row{mode, 0, 0}).first->second
        .high_line_count = count;
  }
  for (const auto& [mode, count] : low) {
    rows.try_emplace(mode, tpch::Q12Row{mode, 0, 0}).first->second
        .low_line_count = count;
  }
  std::vector<tpch::Q12Row> result;
  result.reserve(rows.size());
  for (const auto& [mode, row] : rows) result.push_back(row);
  return result;
}

// ---------------------------------------------------------------------------
// Q14 — promotion effect: the part table's pre-decoded PROMO flag travels as
// the hash payload; revenue is aggregated twice (total, and payload-filtered
// promo share).
// ---------------------------------------------------------------------------
Result<PlanBundle> BuildQ14(const Catalog& catalog,
                            const tpch::Q14Params& params, DeviceId device) {
  using K = PrimitiveKind;
  PlanBundle bundle;
  bundle.graph = std::make_unique<PrimitiveGraph>();
  PrimitiveGraph& g = *bundle.graph;

  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr p_partkey,
                           Col(catalog, "part", "p_partkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr p_ispromo,
                           Col(catalog, "part", "p_ispromo"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_partkey,
                           Col(catalog, "lineitem", "l_partkey"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_shipdate,
                           Col(catalog, "lineitem", "l_shipdate"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_extprice,
                           Col(catalog, "lineitem", "l_extendedprice"));
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr l_discount,
                           Col(catalog, "lineitem", "l_discount"));

  // Pipeline 1: part -> hash table with the promo flag as payload.
  int build = g.AddNode(
      K::kHashBuild, device,
      HashCfg(static_cast<double>(p_partkey->length()) * 1.05),
      "q14.build_parts");
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(p_partkey, build, 0).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(p_ispromo, build, 1).status());

  // Pipeline 2: one month of lineitems -> probe -> revenue and promo split.
  int f_ship = g.AddNode(
      K::kFilterBitmap, device,
      FilterCfg(CmpOp::kBetween, params.date, params.date_end() - 1),
      "q14.filter_shipdate");
  int m_pk = g.AddNode(K::kMaterialize, device, MaterializeCfg(0.03),
                       "q14.materialize_partkey");
  int m_price = g.AddNode(K::kMaterialize, device, MaterializeCfg(0.03),
                          "q14.materialize_price");
  int m_disc = g.AddNode(K::kMaterialize, device, MaterializeCfg(0.03),
                         "q14.materialize_discount");
  NodeConfig probe_cfg;
  probe_cfg.probe_mode = ProbeMode::kAll;
  probe_cfg.selectivity = 1.0;
  int probe = g.AddNode(K::kHashProbe, device, probe_cfg, "q14.probe_parts");
  int g_price =
      g.AddNode(K::kMaterializePosition, device, {}, "q14.gather_price");
  int g_disc =
      g.AddNode(K::kMaterializePosition, device, {}, "q14.gather_discount");
  int map_rev = g.AddNode(K::kMap, device,
                          MapCfg(MapOp::kMulPctComplement, ElementType::kInt64,
                                 ElementType::kInt64),
                          "q14.map_revenue");
  NodeConfig total_cfg;
  total_cfg.agg_op = AggOp::kSum;
  int agg_total =
      g.AddNode(K::kAggBlock, device, total_cfg, "q14.agg_total");
  int f_promo = g.AddNode(K::kFilterBitmap, device, FilterCfg(CmpOp::kEq, 1),
                          "q14.filter_promo");
  int m_promo = g.AddNode(K::kMaterialize, device, MaterializeCfg(0.35),
                          "q14.materialize_promo_revenue");
  NodeConfig promo_cfg;
  promo_cfg.agg_op = AggOp::kSum;
  int agg_promo =
      g.AddNode(K::kAggBlock, device, promo_cfg, "q14.agg_promo");

  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_shipdate, f_ship, 0).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_partkey, m_pk, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_ship, 0, m_pk, 1).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_extprice, m_price, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_ship, 0, m_price, 1).status());
  ADAMANT_RETURN_NOT_OK(g.ConnectScan(l_discount, m_disc, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_ship, 0, m_disc, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(m_pk, 0, probe, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(build, 0, probe, 1).status());
  ADAMANT_RETURN_NOT_OK(
      g.Connect(m_price, 0, g_price, 0, ElementType::kInt64).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(probe, 0, g_price, 1).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(m_disc, 0, g_disc, 0).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(probe, 0, g_disc, 1).status());
  ADAMANT_RETURN_NOT_OK(
      g.Connect(g_price, 0, map_rev, 0, ElementType::kInt64).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(g_disc, 0, map_rev, 1).status());
  ADAMANT_RETURN_NOT_OK(
      g.Connect(map_rev, 0, agg_total, 0, ElementType::kInt64).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(probe, 1, f_promo, 0).status());
  ADAMANT_RETURN_NOT_OK(
      g.Connect(map_rev, 0, m_promo, 0, ElementType::kInt64).status());
  ADAMANT_RETURN_NOT_OK(g.Connect(f_promo, 0, m_promo, 1).status());
  ADAMANT_RETURN_NOT_OK(
      g.Connect(m_promo, 0, agg_promo, 0, ElementType::kInt64).status());

  bundle.nodes = {{"build", build},
                  {"probe", probe},
                  {"total", agg_total},
                  {"promo", agg_promo}};
  bundle.result_node = agg_promo;
  return bundle;
}

Result<tpch::Q14Result> ExtractQ14(const PlanBundle& bundle,
                                   const QueryExecution& exec) {
  ADAMANT_ASSIGN_OR_RETURN(int64_t promo,
                           exec.AggValue(bundle.nodes.at("promo")));
  ADAMANT_ASSIGN_OR_RETURN(int64_t total,
                           exec.AggValue(bundle.nodes.at("total")));
  return tpch::Q14Result{promo, total};
}

size_t QueryInputBytes(const PlanBundle& bundle) {
  return bundle.graph->InputBytes();
}

}  // namespace adamant::plan
