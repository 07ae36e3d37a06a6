// Figure 11: performance of the execution models on larger-than-memory TPC-H
// inputs (2-3.5 GiB per query), OpenCL vs CUDA, queries Q3/Q4/Q6, chunk size
// 2^25 ints — plus the HeavyDB comparison at SF 100/120/140 (cold start with
// transfer vs in-place).
//
// Expected shapes (paper):
//   * 4-phase beats naive chunked (up to ~3x best case Q6, ~1.3x worst Q3);
//   * 4-phase pipelined adds little on top of 4-phase (transfer dominates);
//   * CUDA is faster than OpenCL across the board;
//   * HeavyDB: Q3 out of memory; in-place comparable to chunked; cold start
//     up to ~4x slower than ADAMANT's models.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"

namespace adamant::bench {
namespace {

// Nominal scale factors giving ~2 / ~2.9 / ~3.5 GiB of query input.
const double kSfPoints[] = {20, 30, 35};

void ExecModelBench(benchmark::State& state, sim::DriverKind kind, int query,
                    ExecutionModelKind model) {
  const double sf = kSfPoints[static_cast<size_t>(state.range(0))];
  const Catalog& catalog = SharedCatalog();
  BenchRig rig = BenchRig::Make(kind, sim::HardwareSetup::kSetup1, sf);
  const sql::PreparedQuery prepared =
      PrepareQuery(query, catalog, rig.manager.get(), rig.device);
  const auto make_graph = prepared.GraphFactory();
  for (auto _ : state) {
    auto graph = make_graph(rig.device);
    ADAMANT_CHECK(graph.ok()) << graph.status().ToString();
    ExecutionOptions options;
    options.model = model;
    options.chunk_elems = size_t{1} << 25;  // the paper's chunk size
    QueryExecutor executor(rig.manager.get());
    auto exec = executor.Run(graph->get(), options);
    ADAMANT_CHECK(exec.ok()) << exec.status().ToString();
    state.SetIterationTime(sim::SecFromUs(exec->stats.elapsed_us));
    state.counters["elapsed_ms"] = sim::MsFromUs(exec->stats.elapsed_us);
    state.counters["input_GiB"] =
        static_cast<double>(plan::QueryInputBytes(prepared.bundle)) *
        (sf / kActualSf) /
        (1024.0 * 1024 * 1024);
    state.counters["chunks"] = static_cast<double>(exec->stats.chunks);
  }
}

void RegisterExecModels() {
  for (auto [driver_name, kind] :
       std::vector<std::pair<const char*, sim::DriverKind>>{
           {"opencl", sim::DriverKind::kOpenClGpu},
           {"cuda", sim::DriverKind::kCudaGpu}}) {
    for (int query : {3, 4, 6}) {
      for (auto [model_name, model] :
           std::vector<std::pair<const char*, ExecutionModelKind>>{
               {"chunked", ExecutionModelKind::kChunked},
               {"pipelined", ExecutionModelKind::kPipelined},
               {"4phase", ExecutionModelKind::kFourPhaseChunked},
               {"4phase_pipelined", ExecutionModelKind::kFourPhasePipelined}}) {
        std::string name = std::string("fig11/Q") + std::to_string(query) +
                           "/" + driver_name + "/" + model_name;
        benchmark::RegisterBenchmark(
            name.c_str(),
            [kind = kind, query, model = model](benchmark::State& s) {
              ExecModelBench(s, kind, query, model);
            })
            ->DenseRange(0, 2)  // the three SF points
            ->UseManualTime()
        ->Iterations(2);
      }
    }
  }
}

// --- HeavyDB comparison (printed table; OOM rows are not timeable) ---

void PrintHeavyDbComparison() {
  std::printf(
      "\n=== Fig. 11 (bottom): HeavyDB comparison, A100 setup, SF 100/120/140 "
      "===\n");
  std::printf("%-4s %-6s %16s %16s %16s %16s\n", "Q", "SF", "heavydb_cold_ms",
              "heavydb_hot_ms", "adamant_chunked", "adamant_4phase");
  const Catalog& catalog = SharedCatalog();
  for (int query : {3, 4, 6}) {
    for (double sf : {100.0, 120.0, 140.0}) {
      BenchRig rig =
          BenchRig::Make(sim::DriverKind::kCudaGpu,
                         sim::HardwareSetup::kSetup2, sf);
      const sql::PreparedQuery prepared =
          PrepareQuery(query, catalog, rig.manager.get(), rig.device);
      const plan::PlanBundle& bundle = prepared.bundle;
      baseline::HeavyDbExecutor heavy(rig.manager.get(), rig.device);

      std::string cold = "OOM", hot = "OOM";
      if (auto run = heavy.Run(*bundle.graph, {/*with_transfer=*/true});
          run.ok()) {
        cold = std::to_string(sim::MsFromUs(run->elapsed_us));
        cold.resize(cold.find('.') + 2);
      }
      if (auto run = heavy.Run(*bundle.graph, {/*with_transfer=*/false});
          run.ok()) {
        hot = std::to_string(sim::MsFromUs(run->elapsed_us));
        hot.resize(hot.find('.') + 2);
      }

      auto adamant_ms = [&](ExecutionModelKind model) {
        auto fresh = prepared.GraphFactory()(rig.device);
        ADAMANT_CHECK(fresh.ok()) << fresh.status().ToString();
        ExecutionOptions options;
        options.model = model;
        options.chunk_elems = size_t{1} << 25;
        QueryExecutor executor(rig.manager.get());
        auto exec = executor.Run(fresh->get(), options);
        ADAMANT_CHECK(exec.ok()) << exec.status().ToString();
        return sim::MsFromUs(exec->stats.elapsed_us);
      };
      std::printf("Q%-3d %-6.0f %16s %16s %16.1f %16.1f\n", query, sf,
                  cold.c_str(), hot.c_str(),
                  adamant_ms(ExecutionModelKind::kChunked),
                  adamant_ms(ExecutionModelKind::kFourPhaseChunked));
    }
  }
  std::printf(
      "\nShape check: Q3 exceeds HeavyDB's in-place capacity at every SF "
      "(the paper: the\nhash table size exceeds the maximum capacity); "
      "in-place (hot) execution is\ncomparable to ADAMANT chunked; cold "
      "start pays the full-column transfer and\ntrails ADAMANT's models by "
      "2-4x.\n");
}

}  // namespace
}  // namespace adamant::bench

int main(int argc, char** argv) {
  adamant::bench::RegisterExecModels();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  adamant::bench::PrintHeavyDbComparison();
  return 0;
}
