// Figure 7: why operator-at-a-time does not scale.
//   (left)   query input sizes and the full TPC-H dataset vs GPU memory
//            capacities across scale factors;
//   (right)  the memory footprint of TPC-H Q6 during execution (per-stage
//            device-memory high water).
//
// This figure reports sizes, not times, so the binary prints the series
// directly (no google-benchmark timing loop).

#include <cinttypes>
#include <cstdio>

#include "bench/bench_util.h"

namespace adamant::bench {
namespace {

constexpr double kBytesPerGiB = 1024.0 * 1024 * 1024;

struct Gpu {
  const char* name;
  double gib;
};
const Gpu kGpus[] = {
    {"GTX 1080 Ti", 11}, {"RTX 2080 Ti", 11}, {"V100", 32}, {"A100", 40}};

double QueryInputGiB(int query, double sf) {
  const Catalog& catalog = SharedCatalog();
  BenchRig rig = BenchRig::Make(sim::DriverKind::kCudaGpu);
  sql::PreparedQuery prepared =
      PrepareQuery(query, catalog, rig.manager.get(), rig.device);
  return static_cast<double>(plan::QueryInputBytes(prepared.bundle)) *
         (sf / kActualSf) / kBytesPerGiB;
}

double DatasetGiB(double sf) {
  const Catalog& catalog = SharedCatalog();
  double bytes = 0;
  for (const auto& name : catalog.TableNames()) {
    bytes += static_cast<double>((*catalog.GetTable(name))->TotalBytes());
  }
  return bytes * (sf / kActualSf) / kBytesPerGiB;
}

void PrintLeftPanel() {
  std::printf("=== Fig. 7 (left): query input size vs GPU memory ===\n");
  std::printf("%-10s", "SF");
  for (int q : {1, 3, 4, 6}) std::printf("   Q%d(GiB)", q);
  std::printf("  dataset(GiB)\n");
  for (double sf : {1.0, 10.0, 30.0, 100.0, 140.0, 300.0}) {
    std::printf("%-10.0f", sf);
    for (int q : {1, 3, 4, 6}) std::printf("  %8.2f", QueryInputGiB(q, sf));
    std::printf("     %8.2f\n", DatasetGiB(sf));
  }
  std::printf("\nGPU capacities:");
  for (const Gpu& gpu : kGpus) std::printf("  %s=%.0fGiB", gpu.name, gpu.gib);
  std::printf("\n\nFits entirely in an 11 GiB GPU (input only):\n");
  for (int q : {1, 3, 4, 6}) {
    double max_sf = 1;
    while (QueryInputGiB(q, max_sf * 2) < 11) max_sf *= 2;
    std::printf("  Q%d up to ~SF %.0f\n", q, max_sf);
  }
}

void PrintRightPanel() {
  std::printf(
      "\n=== Fig. 7 (right): Q6 device-memory footprint during execution "
      "===\n");
  std::printf("(operator-at-a-time at nominal SF 10, RTX 2080 Ti)\n");
  const Catalog& catalog = SharedCatalog();
  BenchRig rig = BenchRig::Make(sim::DriverKind::kCudaGpu,
                                sim::HardwareSetup::kSetup1, 10.0);
  sql::PreparedQuery prepared =
      PrepareQuery(6, catalog, rig.manager.get(), rig.device);
  ExecutionOptions options;
  options.model = ExecutionModelKind::kOperatorAtATime;
  QueryExecutor executor(rig.manager.get());
  auto exec = executor.Run(prepared.bundle.graph.get(), options);
  if (!exec.ok()) {
    std::printf("  run failed: %s\n", exec.status().ToString().c_str());
    return;
  }
  const auto& dev = exec->stats.devices[static_cast<size_t>(rig.device)];
  std::printf("  input columns resident : %8.2f GiB\n",
              static_cast<double>(plan::QueryInputBytes(prepared.bundle)) *
                  (10.0 / kActualSf) / kBytesPerGiB);
  std::printf("  peak footprint         : %8.2f GiB  (columns + bitmap + "
              "materialized intermediates)\n",
              static_cast<double>(dev.device_mem_high_water) / kBytesPerGiB);
  std::printf("  simulated elapsed      : %8.2f ms\n",
              sim::MsFromUs(exec->stats.elapsed_us));
  std::printf(
      "\nShape check: storing whole inputs leaves only the remainder of "
      "device memory\nfor intermediates — the motivation for chunked "
      "execution (Section IV-A).\n");
}

}  // namespace
}  // namespace adamant::bench

int main() {
  adamant::bench::PrintLeftPanel();
  adamant::bench::PrintRightPanel();
  return 0;
}
