// Working with ADAMANT at the optimizer level: build logical plans, EXPLAIN
// them, lower them to primitive graphs with a device-placement policy, and
// execute — no hand-wired primitives anywhere.

#include <cstdio>

#include "adamant/adamant.h"
#include "plan/placement_optimizer.h"

using namespace adamant;  // NOLINT — example brevity

int main() {
  auto catalog = tpch::Generate({.scale_factor = 0.01});
  if (!catalog.ok()) return 1;

  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  auto cpu = manager.AddDriver(sim::DriverKind::kOpenMpCpu);
  if (!gpu.ok() || !cpu.ok()) return 1;
  if (!BindStandardKernels(manager.device(*gpu)).ok()) return 1;
  if (!BindStandardKernels(manager.device(*cpu)).ok()) return 1;

  // 1) A logical plan, as an optimizer would emit it: TPC-H Q3, with
  //    cardinality estimates that size the device buffers.
  using namespace plan;  // NOLINT — the plan-building DSL
  tpch::Q3Params params;
  const StringDictionary* segments =
      (*(*catalog)->GetTable("customer"))->FindDictionary("c_mktsegment");
  if (segments == nullptr) return 1;
  auto segment = segments->Lookup(params.segment);
  if (!segment.ok()) return 1;
  const double orders = static_cast<double>(
      (*(*catalog)->GetTable("orders"))->num_rows());
  auto customer_orders = HashJoin(
      Filter(Scan("orders"), {Predicate::Lt("o_orderdate", params.date, 0.5)}),
      Filter(Scan("customer"),
             {Predicate::Eq("c_mktsegment", *segment, 0.22)}),
      "o_custkey", "c_custkey", ProbeMode::kAll, /*join_selectivity=*/0.25);
  auto joined = HashJoin(
      Filter(Scan("lineitem"),
             {Predicate::Gt("l_shipdate", params.date, 0.56)}),
      customer_orders, "l_orderkey", "o_orderkey", ProbeMode::kAll,
      /*join_selectivity=*/0.22);
  auto logical = GroupBy(
      Project(joined, {{"revenue", ScalarExpr::MulPctComplement(
                                       "l_extendedprice", "l_discount")}}),
      "l_orderkey", {{AggOp::kSum, "revenue", "revenue"}},
      /*expected_groups=*/orders * 0.15, /*groups_scale_with_data=*/true);
  std::printf("=== Logical plan (TPC-H Q3) ===\n%s\n",
              ExplainPlan(*logical).c_str());

  // 2) Lower it with a heterogeneous placement policy: streaming primitives
  //    on the CPU driver, hash primitives on the GPU. The router moves data
  //    between the devices at pipeline boundaries.
  plan::PlacementPolicy policy;
  policy.default_device = *gpu;
  policy.by_kind[PrimitiveKind::kFilterBitmap] = *cpu;
  policy.by_kind[PrimitiveKind::kMap] = *cpu;
  auto bundle = plan::LowerPlan(*logical, **catalog, policy);
  if (!bundle.ok()) {
    std::fprintf(stderr, "lowering: %s\n", bundle.status().ToString().c_str());
    return 1;
  }
  std::printf("=== Lowered primitive graph ===\n");
  for (const GraphNode& node : bundle->graph->nodes()) {
    std::printf("  [%2d] %-22s %-34s on %s\n", node.id,
                PrimitiveKindName(node.kind), node.label.c_str(),
                manager.device(node.device)->name().c_str());
  }

  // 3) Execute and verify against the scalar reference.
  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  options.chunk_elems = size_t{1} << 20;
  QueryExecutor executor(&manager);
  auto exec = executor.Run(bundle->graph.get(), options);
  if (!exec.ok()) {
    std::fprintf(stderr, "run: %s\n", exec.status().ToString().c_str());
    return 1;
  }
  auto got = plan::ExtractQ3(*bundle, *exec, **catalog, params);
  auto want = tpch::Q3Reference(**catalog, params);
  if (!got.ok() || !want.ok()) return 1;

  std::printf("\n=== Q3 top results (%s) ===\n",
              *got == *want ? "match the scalar reference" : "MISMATCH");
  std::printf("%-10s %14s %-12s\n", "orderkey", "revenue", "orderdate");
  for (size_t i = 0; i < got->size() && i < 5; ++i) {
    std::printf("%-10d %14.2f %-12s\n", (*got)[i].orderkey,
                MoneyToDouble((*got)[i].revenue),
                Date((*got)[i].orderdate).ToString().c_str());
  }
  std::printf("\nsimulated elapsed: %.2f ms; %zu bytes crossed the host "
              "between devices\n",
              sim::MsFromUs(exec->stats.elapsed_us), exec->stats.bytes_d2h);

  // 4) What-if placement search: simulate every (streaming, hash, sink) ->
  //    device assignment and report the ranking.
  manager.SetDataScale(30.0 / 0.01);  // placement matters at larger scales
  ExecutionOptions search_options;
  search_options.model = ExecutionModelKind::kChunked;
  auto search =
      plan::SearchPlacements(*logical, **catalog, &manager, search_options);
  if (!search.ok()) return 1;
  std::printf("\n=== What-if placement search (Q3, nominal SF 30) ===\n");
  for (const auto& [name, elapsed] : search->evaluated) {
    if (elapsed < 0) {
      std::printf("  %-60s failed\n", name.c_str());
    } else {
      std::printf("  %-60s %9.1f ms%s\n", name.c_str(),
                  sim::MsFromUs(elapsed),
                  name == search->best_name ? "  <- best" : "");
    }
  }
  return *got == *want ? 0 : 2;
}
