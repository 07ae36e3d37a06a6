// Multi-device chunk-parallel scaling: Q3/Q4/Q6 at nominal SF 30 (the
// paper's larger-than-memory regime), device-parallel across 1/2/4 identical
// simulated GPUs versus the single-device chunked baseline. Reports simulated
// elapsed time, speedup over the baseline, the chunk split, and host merge
// cost per point, plus the single-device execution models at the same scale
// so the numbers stay comparable with bench_fig11_exec_models.
//
// Expected shapes:
//   * Q6 (one pipeline, AGG_BLOCK breaker) scales nearly linearly: the
//     chunk ranges are independent and the merge is one 8-byte add;
//   * Q3 scales sublinearly: every partition device must receive the
//     merged build/agg tables between pipelines, and the merges walk hash
//     tables on the host;
//   * Q4 REGRESSES under the split: its interior HASH_BUILD table (sized
//     by the full lineitem scan) must round-trip device->host->devices for
//     the merge, and that transfer outweighs the halved kernel time — the
//     model only pays off when breaker state is small relative to the
//     scan, exactly the trade-off the merge_host_ms / wire columns expose;
//   * device-parallel on 1 device matches the chunked baseline exactly
//     (same chunk loop plus a barrier no-op and an 8-byte terminal read).
//
// Results land in BENCH_multidevice.json.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace adamant::bench {
namespace {

constexpr double kNominalSf = 30;
constexpr size_t kChunkElems = size_t{1} << 25;  // the paper's chunk size

std::unique_ptr<DeviceManager> MakeManager(int devices) {
  auto manager = std::make_unique<DeviceManager>(sim::HardwareSetup::kSetup1);
  manager->SetDataScale(kNominalSf / kActualSf);
  for (int i = 0; i < devices; ++i) {
    auto device = manager->AddDriver(sim::DriverKind::kCudaGpu,
                                     "cuda_gpu." + std::to_string(i));
    ADAMANT_CHECK(device.ok()) << device.status().ToString();
    ADAMANT_CHECK(BindStandardKernels(manager->device(*device)).ok());
  }
  return manager;
}

struct Sample {
  int query = 0;
  std::string model;
  int devices = 0;
  double elapsed_ms = 0;
  double speedup = 0;  // vs single-device chunked on the same query
  double merge_host_ms = 0;
  size_t chunks = 0;
  std::string chunk_split;  // "per-device counts, e.g. \"8+8\""
  /// Whether SearchPlacements' merge-cost gate would admit this point
  /// (always true for non-device-parallel models). Rejected points are
  /// still simulated here so the regression they predict stays visible.
  bool admitted = true;
  double merge_pred_ms = 0;    // predicted interior-merge round-trip cost
  double savings_pred_ms = 0;  // predicted compute saving of the split
};

Sample RunPoint(int query, ExecutionModelKind model, int devices,
                double baseline_elapsed_us = 0) {
  const Catalog& catalog = SharedCatalog();
  auto manager = MakeManager(devices);
  const plan::PlanBundle bundle =
      PrepareQuery(query, catalog, manager.get(), 0).bundle;
  ExecutionOptions options;
  options.model = model;
  options.chunk_elems = kChunkElems;
  Sample sample;
  if (model == ExecutionModelKind::kDeviceParallel) {
    for (int i = 0; i < devices; ++i) {
      options.device_set.push_back(static_cast<DeviceId>(i));
    }
    auto merge = plan::EstimateDeviceParallelMerge(
        *bundle.graph, manager.get(), options.device_set,
        baseline_elapsed_us);
    ADAMANT_CHECK(merge.ok()) << merge.status().ToString();
    sample.admitted = devices < 2 || !merge->merge_dominated;
    sample.merge_pred_ms = sim::MsFromUs(merge->merge_cost_us);
    sample.savings_pred_ms = sim::MsFromUs(merge->savings_us);
  }
  QueryExecutor executor(manager.get());
  auto exec = executor.Run(bundle.graph.get(), options);
  ADAMANT_CHECK(exec.ok()) << "Q" << query << "/" << ExecutionModelName(model)
                           << ": " << exec.status().ToString();
  sample.query = query;
  sample.model = ExecutionModelName(model);
  sample.devices = devices;
  sample.elapsed_ms = sim::MsFromUs(exec->stats.elapsed_us);
  sample.merge_host_ms = exec->stats.merge_host_ms;
  sample.chunks = exec->stats.chunks;
  for (const auto& [device, chunks] : exec->stats.chunks_by_device) {
    if (!sample.chunk_split.empty()) sample.chunk_split += "+";
    sample.chunk_split += std::to_string(chunks);
  }
  return sample;
}

void WriteJson(const std::vector<Sample>& samples, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  ADAMANT_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\n  \"bench\": \"multidevice\",\n");
  std::fprintf(f, "  \"nominal_sf\": %g,\n  \"chunk_elems\": %zu,\n",
               kNominalSf, kChunkElems);
  std::fprintf(f, "  \"samples\": [\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(f,
                 "    {\"query\": \"Q%d\", \"model\": \"%s\", "
                 "\"devices\": %d, \"elapsed_ms\": %.3f, \"speedup\": %.3f, "
                 "\"merge_host_ms\": %.4f, \"chunks\": %zu, "
                 "\"chunk_split\": \"%s\", \"admitted\": %s, "
                 "\"merge_pred_ms\": %.3f, \"savings_pred_ms\": %.3f}%s\n",
                 s.query, s.model.c_str(), s.devices, s.elapsed_ms, s.speedup,
                 s.merge_host_ms, s.chunks, s.chunk_split.c_str(),
                 s.admitted ? "true" : "false", s.merge_pred_ms,
                 s.savings_pred_ms, i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace adamant::bench

int main() {
  using namespace adamant;
  using namespace adamant::bench;

  std::vector<Sample> samples;
  std::printf("%-4s %-18s %8s %12s %9s %14s %12s %9s\n", "Q", "model",
              "devices", "elapsed_ms", "speedup", "merge_host_ms",
              "chunk_split", "admitted");
  for (int query : {3, 4, 6}) {
    // Single-device baselines (chunked is the speedup denominator; the
    // others anchor comparability with bench_fig11_exec_models).
    Sample baseline = RunPoint(query, ExecutionModelKind::kChunked, 1);
    baseline.speedup = 1.0;
    std::vector<Sample> group = {baseline};
    for (ExecutionModelKind model : {ExecutionModelKind::kFourPhaseChunked,
                                     ExecutionModelKind::kFourPhasePipelined}) {
      Sample s = RunPoint(query, model, 1);
      s.speedup = baseline.elapsed_ms / s.elapsed_ms;
      group.push_back(s);
    }
    for (int devices : {1, 2, 4}) {
      Sample s = RunPoint(query, ExecutionModelKind::kDeviceParallel, devices,
                          baseline.elapsed_ms * 1000.0);
      s.speedup = baseline.elapsed_ms / s.elapsed_ms;
      group.push_back(s);
    }
    for (const Sample& s : group) {
      std::printf("Q%-3d %-18s %8d %12.3f %9.3f %14.4f %12s %9s\n", s.query,
                  s.model.c_str(), s.devices, s.elapsed_ms, s.speedup,
                  s.merge_host_ms, s.chunk_split.c_str(),
                  s.admitted ? "yes" : "REJECTED");
      samples.push_back(s);
    }
  }
  WriteJson(samples, "BENCH_multidevice.json");

  bool ok = true;
  // The acceptance bar: two devices must beat single-device chunked on Q6.
  double q6_chunked = 0, q6_dp2 = 0;
  for (const Sample& s : samples) {
    if (s.query != 6) continue;
    if (s.model == "chunked" && s.devices == 1) q6_chunked = s.elapsed_ms;
    if (s.model == "device-parallel" && s.devices == 2) q6_dp2 = s.elapsed_ms;
  }
  if (q6_dp2 <= 0 || q6_dp2 >= q6_chunked) {
    std::printf("FAIL: Q6 device-parallel x2 (%.3f ms) does not beat "
                "single-device chunked (%.3f ms)\n",
                q6_dp2, q6_chunked);
    ok = false;
  } else {
    std::printf("OK: Q6 device-parallel x2 speedup %.2fx\n",
                q6_chunked / q6_dp2);
  }
  // Merge-cost gate calibration: no *admitted* multi-device point may run
  // materially slower than the chunked baseline (the Q4 regression must be
  // rejected, not admitted), and the gate must not over-reject (Q6 x2 — the
  // near-linear case — stays admitted).
  for (const Sample& s : samples) {
    if (s.model != "device-parallel" || s.devices < 2) continue;
    if (s.admitted && s.speedup < 0.95) {
      std::printf("FAIL: Q%d device-parallel x%d admitted by the merge gate "
                  "but only %.3fx vs chunked\n",
                  s.query, s.devices, s.speedup);
      ok = false;
    }
    if (s.query == 4 && s.devices == 2 && s.admitted) {
      std::printf("FAIL: Q4 device-parallel x2 (the known merge-dominated "
                  "regression) was not rejected\n");
      ok = false;
    }
    if (s.query == 6 && s.devices == 2 && !s.admitted) {
      std::printf("FAIL: Q6 device-parallel x2 was rejected by the merge "
                  "gate despite near-linear scaling\n");
      ok = false;
    }
  }
  if (ok) std::printf("OK: merge-cost gate admits/rejects correctly\n");
  return ok ? 0 : 1;
}
