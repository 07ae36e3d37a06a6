// SQL quickstart: generate TPC-H, plug a simulated GPU, prepare a SQL
// query (lexer → parser → binder → planner → lowering → fusion), run it,
// and print the result table. See docs/sql.md
// for the supported grammar.

#include <cstdio>

#include "adamant/adamant.h"

using namespace adamant;  // NOLINT — example brevity

int main() {
  auto catalog = tpch::Generate({.scale_factor = 0.01});
  if (!catalog.ok()) return 1;

  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  if (!gpu.ok() || !BindStandardKernels(manager.device(*gpu)).ok()) return 1;

  const std::string query =
      "SELECT l_returnflag, COUNT(*) AS lines, AVG(l_quantity) AS avg_qty "
      "FROM lineitem "
      "WHERE l_shipdate >= DATE '1995-01-01' "
      "GROUP BY l_returnflag "
      "ORDER BY lines DESC";

  // sql::Prepare compiles the text (the planner prices join orders with
  // the device cost model), lowers it onto the GPU and fuses it.
  auto prepared = sql::Prepare(query, **catalog, &manager, *gpu, {});
  if (!prepared.ok()) {  // errors carry line:col positions
    std::fprintf(stderr, "%s\n", prepared.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", prepared->Explain().c_str());

  QueryExecutor executor(&manager);
  auto exec = executor.Run(prepared->bundle.graph.get(), prepared->options);
  if (!exec.ok()) return 1;

  auto results = prepared->Results(*exec);
  if (!results.ok()) return 1;
  std::printf("%s", sql::FormatResultSet(*results, *prepared->compiled,
                                         **catalog).c_str());
  return 0;
}
