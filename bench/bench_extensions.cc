// Extension queries beyond the paper's three (Q3/Q4/Q6): TPC-H Q1 (five
// aggregates over packed keys), Q5 (six-table join), Q12 (payload through the hash
// table + post-probe filtering) and Q14 (conditional aggregation via a
// payload predicate), across execution models — demonstrating that the
// harness generalizes past the evaluated workload.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace adamant::bench {
namespace {

const Catalog& FullCatalog() {
  // Q14 needs the part table; use a dimension-table-inclusive instance.
  static const Catalog* const kCatalog = [] {
    tpch::TpchConfig config;
    config.scale_factor = kActualSf;
    config.include_dimension_tables = true;
    auto catalog = tpch::Generate(config);
    ADAMANT_CHECK(catalog.ok());
    return new Catalog(**catalog);
  }();
  return *kCatalog;
}

void ExtensionBench(benchmark::State& state, int query,
                    ExecutionModelKind model) {
  const Catalog& catalog = FullCatalog();
  BenchRig rig = BenchRig::Make(sim::DriverKind::kCudaGpu,
                                sim::HardwareSetup::kSetup1,
                                /*nominal_sf=*/30.0);
  const auto make_graph =
      PrepareQuery(query, catalog, rig.manager.get(), rig.device)
          .GraphFactory();
  for (auto _ : state) {
    auto graph = make_graph(rig.device);
    ADAMANT_CHECK(graph.ok()) << graph.status().ToString();
    ExecutionOptions options;
    options.model = model;
    options.chunk_elems = size_t{1} << 25;
    QueryExecutor executor(rig.manager.get());
    auto exec = executor.Run(graph->get(), options);
    ADAMANT_CHECK(exec.ok()) << exec.status().ToString();
    state.SetIterationTime(sim::SecFromUs(exec->stats.elapsed_us));
    state.counters["elapsed_ms"] = sim::MsFromUs(exec->stats.elapsed_us);
    state.counters["chunks"] = static_cast<double>(exec->stats.chunks);
  }
}

void RegisterAll() {
  for (int query : {1, 5, 12, 14}) {
    for (auto [model_name, model] :
         std::vector<std::pair<const char*, ExecutionModelKind>>{
             {"chunked", ExecutionModelKind::kChunked},
             {"4phase", ExecutionModelKind::kFourPhaseChunked},
             {"4phase_pipelined", ExecutionModelKind::kFourPhasePipelined}}) {
      std::string name = std::string("extensions/Q") + std::to_string(query) +
                         "/cuda/" + model_name;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [query, model = model](benchmark::State& s) {
            ExtensionBench(s, query, model);
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
