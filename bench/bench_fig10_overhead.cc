// Figure 10: overhead of the abstraction layers — the difference between a
// query's overall execution time and the total processing time of its
// individual primitives, per driver and query.
//
// Expected shape (paper): OpenCL wrappers show the largest overhead
// (explicit data mapping per kernel argument); CUDA and OpenMP need no such
// mapping; the overhead is small compared to direct execution overall.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace adamant::bench {
namespace {

void OverheadBench(benchmark::State& state, sim::DriverKind kind, int query) {
  const Catalog& catalog = SharedCatalog();
  // In-memory scale: queries fit on the device (the overhead measurement
  // isolates framework costs, not transfer scheduling).
  BenchRig rig = BenchRig::Make(kind, sim::HardwareSetup::kSetup1, 1.0);
  const auto make_graph =
      PrepareQuery(query, catalog, rig.manager.get(), rig.device)
          .GraphFactory();
  for (auto _ : state) {
    auto graph = make_graph(rig.device);
    ADAMANT_CHECK(graph.ok()) << graph.status().ToString();
    ExecutionOptions options;
    options.model = ExecutionModelKind::kOperatorAtATime;
    QueryExecutor executor(rig.manager.get());
    auto exec = executor.Run(graph->get(), options);
    ADAMANT_CHECK(exec.ok()) << exec.status().ToString();
    const double total = exec->stats.elapsed_us;
    const double kernels = exec->stats.kernel_body_us;
    const double wire = exec->stats.transfer_wire_us;
    const double overhead = total - kernels - wire;
    state.SetIterationTime(sim::SecFromUs(total));
    state.counters["total_ms"] = sim::MsFromUs(total);
    state.counters["primitives_ms"] = sim::MsFromUs(kernels);
    state.counters["overhead_ms"] = sim::MsFromUs(overhead);
    state.counters["overhead_pct"] = 100.0 * overhead / total;
  }
}

void RegisterAll() {
  for (auto [name, kind] :
       std::vector<std::pair<const char*, sim::DriverKind>>{
           {"opencl_gpu", sim::DriverKind::kOpenClGpu},
           {"cuda_gpu", sim::DriverKind::kCudaGpu},
           {"opencl_cpu", sim::DriverKind::kOpenClCpu},
           {"openmp_cpu", sim::DriverKind::kOpenMpCpu}}) {
    for (int query : {3, 4, 6}) {
      std::string bench_name = std::string("fig10/overhead/Q") +
                               std::to_string(query) + "/" + name;
      benchmark::RegisterBenchmark(bench_name.c_str(),
                                   [kind = kind, query](benchmark::State& s) {
                                     OverheadBench(s, kind, query);
                                   })
          ->UseManualTime()
        ->Iterations(2);
    }
  }
}

}  // namespace
}  // namespace adamant::bench

int main(int argc, char** argv) {
  adamant::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
