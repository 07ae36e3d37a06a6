#ifndef ADAMANT_PLAN_TPCH_PLANS_H_
#define ADAMANT_PLAN_TPCH_PLANS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "device/device_manager.h"
#include "runtime/executor.h"
#include "runtime/primitive_graph.h"
#include "storage/table.h"
#include "tpch/queries.h"
#include "tpch/reference.h"

namespace adamant::plan {

/// A built primitive graph plus the node ids needed to extract results.
/// This is the output an optimizer would hand to ADAMANT's runtime: a
/// primitive graph annotated with target devices (Fig. 2).
struct PlanBundle {
  std::unique_ptr<PrimitiveGraph> graph;
  /// Named nodes ("agg", "agg_qty", ...) for result extraction.
  std::map<std::string, int> nodes;
  /// The primary result node (terminal aggregation).
  int result_node = -1;
};

/// TPC-H Q6 with late materialization: FILTER_POSITION produces position
/// lists, successive predicates gather-and-filter, and position lists
/// compose through MATERIALIZE_POSITION — the "late materialization with
/// position lists" alternative the paper's filter supports (Section V-A).
Result<PlanBundle> BuildQ6Late(const Catalog& catalog,
                               const tpch::Q6Params& params, DeviceId device);

/// Revenue per order via the sorted-data path: lineitem is ordered by
/// l_orderkey, so group indices come from MAP(neq-prev) + PREFIX_SUM and
/// the aggregation is a SORT_AGG — exercising Table I's sorted-aggregation
/// primitives in a real query. PREFIX_SUM is a global breaker, so this
/// plan requires the operator-at-a-time model.
Result<PlanBundle> BuildRevenueByOrderSorted(const Catalog& catalog,
                                             DeviceId device);

/// The same aggregation via HASH_AGG (for cross-checking the sorted path).
Result<PlanBundle> BuildRevenueByOrderHashed(const Catalog& catalog,
                                             DeviceId device);

/// TPC-H Q3: customer⨝orders⨝lineitem with per-order revenue aggregation
/// (three pipelines; the paper's "multiple joins" query).
Result<PlanBundle> BuildQ3(const Catalog& catalog,
                           const tpch::Q3Params& params, DeviceId device);

/// TPC-H Q5: local supplier volume — the six-table join. Four hash tables
/// (region-filtered nations, customers, suppliers, date-filtered orders)
/// chain through a single lineitem pipeline; the cross-side condition
/// c_nationkey = s_nationkey becomes a MAP/FILTER over two probed payloads
/// (extension beyond the paper's three; deepest plan in the suite).
Result<PlanBundle> BuildQ5(const Catalog& catalog,
                           const tpch::Q5Params& params, DeviceId device);

/// TPC-H Q10: returned-item reporting. The qualifying order's custkey
/// travels as the hash payload and becomes the aggregation key — the probed
/// payload feeds HASH_AGG directly (extension beyond the paper's three).
Result<PlanBundle> BuildQ10(const Catalog& catalog,
                            const tpch::Q10Params& params, DeviceId device);

/// TPC-H Q12: shipping modes and order priority. Exercises HASH_PROBE's
/// build-side payload output (the order priority travels through the hash
/// table) and post-probe filtering (extension beyond the paper's three).
Result<PlanBundle> BuildQ12(const Catalog& catalog,
                            const tpch::Q12Params& params, DeviceId device);

/// TPC-H Q14: promotion effect; conditional aggregation via a payload
/// predicate over the probed part flag (extension beyond the paper's three).
Result<PlanBundle> BuildQ14(const Catalog& catalog,
                            const tpch::Q14Params& params, DeviceId device);

// --- Result assembly (host-side finish of the small final result) ---

/// Q6 (and any plan whose result node is one block aggregate): the
/// revenue in cents.
Result<int64_t> ExtractQ6(const PlanBundle& bundle,
                          const QueryExecution& exec);

/// Q3: top-limit rows by (revenue desc, orderdate, orderkey); the
/// orderdate/shippriority columns are joined back on the host.
Result<std::vector<tpch::Q3Row>> ExtractQ3(const PlanBundle& bundle,
                                           const QueryExecution& exec,
                                           const Catalog& catalog,
                                           const tpch::Q3Params& params);

/// n_nationkey -> decoded n_name, from the catalog's nation table.
Result<std::map<int32_t, std::string>> NationNames(const Catalog& catalog);

/// Q5: rows by (revenue desc, nationkey asc), nation names decoded.
Result<std::vector<tpch::Q5Row>> ExtractQ5(const PlanBundle& bundle,
                                           const QueryExecution& exec,
                                           const Catalog& catalog);

/// Q10: top-limit rows by (revenue desc, custkey asc).
Result<std::vector<tpch::Q10Row>> ExtractQ10(const PlanBundle& bundle,
                                             const QueryExecution& exec,
                                             const tpch::Q10Params& params);

/// Q12: rows sorted by ship-mode code.
Result<std::vector<tpch::Q12Row>> ExtractQ12(const PlanBundle& bundle,
                                             const QueryExecution& exec);

/// Q14: promo and total revenue (host computes the percentage).
Result<tpch::Q14Result> ExtractQ14(const PlanBundle& bundle,
                                   const QueryExecution& exec);

/// Bytes of input columns the query reads (Fig. 7-left working sets).
size_t QueryInputBytes(const PlanBundle& bundle);

}  // namespace adamant::plan

#endif  // ADAMANT_PLAN_TPCH_PLANS_H_
