// Compares the four co-processor execution models of Section IV on the
// evaluated TPC-H queries — a miniature of the paper's Fig. 11, with a
// per-resource breakdown showing *why* the models differ:
//   * chunked: every transfer waits for the previous chunk's execution;
//   * pipelined: a transfer "thread" runs ahead (copy/compute overlap);
//   * 4-phase: pinned staging buffers double the effective PCIe bandwidth
//     and allocations are hoisted into the stage phase;
//   * 4-phase pipelined: both.

#include <cstdio>

#include "adamant/adamant.h"

using namespace adamant;  // NOLINT — example brevity

int main() {
  auto catalog = tpch::Generate(
      {.scale_factor = 0.02, .include_dimension_tables = false});
  if (!catalog.ok()) return 1;

  // Emulate SF 30 (about 3 GiB of query input, larger than what the
  // operator-at-a-time model could hold next to its intermediates).
  const double nominal_sf = 30.0;

  for (auto kind : {sim::DriverKind::kOpenClGpu, sim::DriverKind::kCudaGpu}) {
    DeviceManager manager(sim::HardwareSetup::kSetup1);
    manager.SetDataScale(nominal_sf / 0.02);
    auto gpu = manager.AddDriver(kind);
    if (!gpu.ok() || !BindStandardKernels(manager.device(*gpu)).ok()) return 1;

    std::printf("=== %s (RTX 2080 Ti, nominal SF %.0f) ===\n",
                sim::DriverKindName(kind), nominal_sf);
    std::printf("%-4s %-18s %12s %12s %12s %12s\n", "Q", "model",
                "elapsed_ms", "h2d_busy_ms", "compute_ms", "vs chunked");
    for (int query : {3, 4, 6}) {
      double chunked_ms = 0;
      for (auto model :
           {ExecutionModelKind::kChunked, ExecutionModelKind::kPipelined,
            ExecutionModelKind::kFourPhaseChunked,
            ExecutionModelKind::kFourPhasePipelined}) {
        ExecutionOptions options;
        options.model = model;
        options.chunk_elems = size_t{1} << 25;
        auto prepared = sql::Prepare(std::to_string(query), **catalog,
                                     &manager, *gpu, options);
        if (!prepared.ok()) return 1;
        QueryExecutor executor(&manager);
        auto exec = executor.Run(prepared->bundle.graph.get(), options);
        if (!exec.ok()) {
          std::fprintf(stderr, "%s\n", exec.status().ToString().c_str());
          return 1;
        }
        const double ms = sim::MsFromUs(exec->stats.elapsed_us);
        if (model == ExecutionModelKind::kChunked) chunked_ms = ms;
        const auto& dev =
            exec->stats.devices[static_cast<size_t>(*gpu)];
        std::printf("Q%-3d %-18s %12.1f %12.1f %12.1f %11.2fx\n", query,
                    ExecutionModelName(model), ms,
                    sim::MsFromUs(dev.h2d_busy_us),
                    sim::MsFromUs(dev.compute_busy_us), chunked_ms / ms);
      }
    }
    std::printf("\n");
  }
  std::printf(
      "Reading the breakdown: H2D busy time is identical for chunked and\n"
      "pipelined (same pageable transfers) — pipelining only removes idle\n"
      "gaps; the 4-phase models shrink H2D busy time itself via pinned\n"
      "staging (Fig. 3's bandwidth gap).\n");
  return 0;
}
