// Ablations beyond the paper's figures, for the design choices DESIGN.md
// calls out:
//   (1) transform_memory vs the naive host round-trip for SDK-format
//       conversion (Fig. 4's motivation, quantified);
//   (2) chunk-size sweep for Q6 under chunked and 4-phase execution (the
//       paper fixes 2^25; this shows the trade-off that makes it optimal);
//   (3) early (bitmap) vs late (position-list) materialization for Q6 —
//       the two filter outputs Table I provides.

#include <benchmark/benchmark.h>

#include <vector>

#include "bench/bench_util.h"
#include "runtime/transfer_hub.h"

namespace adamant::bench {
namespace {

// (1) transform vs round-trip.
void TransformAblation(benchmark::State& state, bool use_transform) {
  BenchRig rig = BenchRig::Make(sim::DriverKind::kCudaGpu);
  const size_t bytes = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> host(bytes);
  DataTransferHub hub(rig.manager.get(),
                      use_transform ? DataContainer::WithDefaultTransforms()
                                    : DataContainer::WithoutTransforms());
  for (auto _ : state) {
    rig.dev()->ResetTimelines();
    auto buf = hub.LoadData(rig.device, host.data(), bytes);
    ADAMANT_CHECK(buf.ok());
    const double t0 = rig.dev()->MaxCompletion();
    auto converted =
        hub.EnsureFormat(rig.device, *buf, SdkFormat::kThrustVector, bytes);
    ADAMANT_CHECK(converted.ok());
    const double elapsed = rig.dev()->MaxCompletion() - t0;
    state.SetIterationTime(sim::SecFromUs(elapsed));
    state.counters["convert_us"] = elapsed;
    ADAMANT_CHECK(rig.dev()->DeleteMemory(*converted).ok());
  }
}

// (2) chunk-size sweep.
void ChunkSizeAblation(benchmark::State& state, ExecutionModelKind model) {
  const Catalog& catalog = SharedCatalog();
  BenchRig rig =
      BenchRig::Make(sim::DriverKind::kCudaGpu, sim::HardwareSetup::kSetup1,
                     /*nominal_sf=*/30.0);
  const auto chunk_elems = static_cast<size_t>(state.range(0));
  const auto make_graph =
      PrepareQuery(6, catalog, rig.manager.get(), rig.device).GraphFactory();
  for (auto _ : state) {
    auto graph = make_graph(rig.device);
    ADAMANT_CHECK(graph.ok()) << graph.status().ToString();
    ExecutionOptions options;
    options.model = model;
    options.chunk_elems = chunk_elems;
    QueryExecutor executor(rig.manager.get());
    auto exec = executor.Run(graph->get(), options);
    ADAMANT_CHECK(exec.ok()) << exec.status().ToString();
    state.SetIterationTime(sim::SecFromUs(exec->stats.elapsed_us));
    state.counters["elapsed_ms"] = sim::MsFromUs(exec->stats.elapsed_us);
    state.counters["chunks"] = static_cast<double>(exec->stats.chunks);
  }
}

// (4) transfer-ring depth for the pipelined model.
void RingDepthAblation(benchmark::State& state) {
  const Catalog& catalog = SharedCatalog();
  BenchRig rig = BenchRig::Make(sim::DriverKind::kCudaGpu,
                                sim::HardwareSetup::kSetup1,
                                /*nominal_sf=*/30.0);
  const auto depth = static_cast<size_t>(state.range(0));
  const auto make_graph =
      PrepareQuery(6, catalog, rig.manager.get(), rig.device).GraphFactory();
  for (auto _ : state) {
    auto graph = make_graph(rig.device);
    ADAMANT_CHECK(graph.ok()) << graph.status().ToString();
    ExecutionOptions options;
    options.model = ExecutionModelKind::kPipelined;
    options.chunk_elems = size_t{1} << 25;
    options.pipeline_depth = depth;
    QueryExecutor executor(rig.manager.get());
    auto exec = executor.Run(graph->get(), options);
    ADAMANT_CHECK(exec.ok()) << exec.status().ToString();
    state.SetIterationTime(sim::SecFromUs(exec->stats.elapsed_us));
    state.counters["elapsed_ms"] = sim::MsFromUs(exec->stats.elapsed_us);
  }
}

// (3) early vs late materialization.
void MaterializationAblation(benchmark::State& state, bool late,
                             sim::DriverKind kind) {
  const Catalog& catalog = SharedCatalog();
  BenchRig rig = BenchRig::Make(kind, sim::HardwareSetup::kSetup1,
                                /*nominal_sf=*/30.0);
  const auto make_early =
      PrepareQuery(6, catalog, rig.manager.get(), rig.device).GraphFactory();
  for (auto _ : state) {
    auto graph =
        late ? std::move(plan::BuildQ6Late(catalog, {}, rig.device)->graph)
             : std::move(*make_early(rig.device));
    ExecutionOptions options;
    options.model = ExecutionModelKind::kFourPhaseChunked;
    options.chunk_elems = size_t{1} << 25;
    QueryExecutor executor(rig.manager.get());
    auto exec = executor.Run(graph.get(), options);
    ADAMANT_CHECK(exec.ok()) << exec.status().ToString();
    state.SetIterationTime(sim::SecFromUs(exec->stats.elapsed_us));
    state.counters["elapsed_ms"] = sim::MsFromUs(exec->stats.elapsed_us);
    state.counters["kernel_ms"] = sim::MsFromUs(exec->stats.kernel_body_us);
  }
}

void RegisterAll() {
  for (bool use_transform : {true, false}) {
    std::string name = std::string("ablation/sdk_conversion/") +
                       (use_transform ? "transform_memory" : "host_roundtrip");
    benchmark::RegisterBenchmark(
        name.c_str(),
        [use_transform](benchmark::State& s) {
          TransformAblation(s, use_transform);
        })
        ->RangeMultiplier(16)
        ->Range(1 << 20, 1 << 28)
        ->UseManualTime()
        ->Iterations(2);
  }
  benchmark::RegisterBenchmark("ablation/ring_depth/Q6/pipelined",
                               RingDepthAblation)
      ->DenseRange(1, 4)
      ->UseManualTime()
      ->Iterations(2);
  for (auto [driver_name, kind] :
       std::vector<std::pair<const char*, sim::DriverKind>>{
           {"cuda_gpu", sim::DriverKind::kCudaGpu},
           {"opencl_gpu", sim::DriverKind::kOpenClGpu}}) {
    for (bool late : {false, true}) {
      std::string name = std::string("ablation/materialization/Q6/") +
                         (late ? "late/" : "early/") + driver_name;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [late, kind = kind](benchmark::State& s) {
            MaterializationAblation(s, late, kind);
          })
          ->UseManualTime()
          ->Iterations(2);
    }
  }
  for (auto [model_name, model] :
       std::vector<std::pair<const char*, ExecutionModelKind>>{
           {"chunked", ExecutionModelKind::kChunked},
           {"4phase", ExecutionModelKind::kFourPhaseChunked}}) {
    std::string name =
        std::string("ablation/chunk_size/Q6/") + model_name;
    benchmark::RegisterBenchmark(name.c_str(),
                                 [model = model](benchmark::State& s) {
                                   ChunkSizeAblation(s, model);
                                 })
        ->RangeMultiplier(4)
        ->Range(1 << 19, 1 << 27)
        ->UseManualTime()
        ->Iterations(2);
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
