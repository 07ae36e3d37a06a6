// Cross-layer kernel fusion: the Q6-style map/filter/agg pipeline run
// unfused (one kernel per primitive, intermediates materialized between
// launches) vs fused (the plan-level FusionPass collapses the chain into a
// single FUSED_AGG composite that the recipe interpreter executes in one
// traversal). Both runs use the chunked execution model on a simulated GPU
// with the nominal data scale the paper's experiments emulate, and both
// extracted results must be bit-identical.
//
// The headline metric is *simulated kernel body time*: the per-tuple work
// the device charges for the launched kernels. Fusion removes six of the
// seven traversals, so the model predicts a large body-time win; wire time
// (the scan columns still cross the bus once either way) is reported but
// not gated.
//
// Gates (exit non-zero on failure):
//   * the fusion pass actually fuses (>= 1 group on Q6);
//   * fused vs unfused simulated kernel body time speedup >= 2.0x (the
//     ISSUE acceptance bar; the model predicts ~10x);
//   * extracted revenue is bit-identical between the two runs.
//
// Results land in BENCH_fusion.json.

#include <cstdio>
#include <memory>
#include <string>

#include "adamant/adamant.h"

namespace adamant::bench {
namespace {

constexpr double kActualSf = 0.01;
constexpr double kNominalSf = 30;

struct RunResult {
  int64_t revenue = 0;
  double kernel_body_us = 0;
  double elapsed_us = 0;
  double wire_us = 0;
  size_t chunks = 0;
  size_t execute_calls = 0;
  size_t fused_launches = 0;
  int fused_groups = 0;
};

// Prepares Q6 with the given fusion mode and runs it chunked on a fresh
// simulated GPU (fresh so the cumulative device clocks measure one run).
Result<RunResult> RunQ6(const Catalog& catalog, FusionMode fusion) {
  DeviceManager manager(sim::HardwareSetup::kSetup1);
  manager.SetDataScale(kNominalSf / kActualSf);
  ADAMANT_ASSIGN_OR_RETURN(DeviceId device,
                           manager.AddDriver(sim::DriverKind::kCudaGpu));
  ADAMANT_RETURN_NOT_OK(BindStandardKernels(manager.device(device)));

  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  options.chunk_elems = size_t{1} << 25;
  options.fusion = fusion;
  ADAMANT_ASSIGN_OR_RETURN(
      sql::PreparedQuery q6,
      sql::Prepare("6", catalog, &manager, device, options));
  RunResult r;
  r.fused_groups = q6.fusion.groups;

  QueryExecutor executor(&manager);
  ADAMANT_ASSIGN_OR_RETURN(QueryExecution exec,
                           executor.Run(q6.bundle.graph.get(), options));
  ADAMANT_ASSIGN_OR_RETURN(r.revenue, plan::ExtractQ6(q6.bundle, exec));
  r.kernel_body_us = exec.stats.kernel_body_us;
  r.elapsed_us = exec.stats.elapsed_us;
  r.wire_us = exec.stats.transfer_wire_us;
  r.chunks = exec.stats.chunks;
  for (const DeviceRunStats& ds : exec.stats.devices) {
    r.execute_calls += ds.execute_calls;
    r.fused_launches += ds.fused_launches;
  }
  return r;
}

void EmitJson(const RunResult& unfused, const RunResult& fused,
              double body_speedup, bool match, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  ADAMANT_CHECK(f != nullptr) << "cannot open " << path;
  auto emit = [&](const char* key, const RunResult& r, const char* tail) {
    std::fprintf(f,
                 "  \"%s\": {\"kernel_body_us\": %.3f, \"elapsed_us\": %.3f, "
                 "\"wire_us\": %.3f, \"chunks\": %zu, \"execute_calls\": %zu, "
                 "\"fused_launches\": %zu, \"fused_groups\": %d}%s\n",
                 key, r.kernel_body_us, r.elapsed_us, r.wire_us, r.chunks,
                 r.execute_calls, r.fused_launches, r.fused_groups, tail);
  };
  std::fprintf(f, "{\n  \"bench\": \"fusion\",\n  \"query\": \"q6\",\n");
  std::fprintf(f, "  \"actual_sf\": %g,\n  \"nominal_sf\": %g,\n", kActualSf,
               kNominalSf);
  emit("unfused", unfused, ",");
  emit("fused", fused, ",");
  std::fprintf(f,
               "  \"kernel_body_speedup\": %.3f,\n"
               "  \"elapsed_speedup\": %.3f,\n"
               "  \"results_match\": %s\n}\n",
               body_speedup,
               fused.elapsed_us > 0 ? unfused.elapsed_us / fused.elapsed_us
                                    : 0.0,
               match ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace adamant::bench

int main() {
  using namespace adamant;
  using namespace adamant::bench;

  tpch::TpchConfig config;
  config.scale_factor = kActualSf;
  auto catalog = tpch::Generate(config);
  ADAMANT_CHECK(catalog.ok()) << catalog.status().ToString();

  auto unfused = RunQ6(**catalog, FusionMode::kOff);
  ADAMANT_CHECK(unfused.ok()) << unfused.status().ToString();
  auto fused = RunQ6(**catalog, FusionMode::kOn);
  ADAMANT_CHECK(fused.ok()) << fused.status().ToString();

  const double body_speedup =
      fused->kernel_body_us > 0
          ? unfused->kernel_body_us / fused->kernel_body_us
          : 0.0;
  const bool match = unfused->revenue == fused->revenue;
  std::printf("Q6 chunked, SF %g emulating SF %g:\n", kActualSf, kNominalSf);
  std::printf("  unfused: body %10.1f us, elapsed %10.1f us, %zu launches\n",
              unfused->kernel_body_us, unfused->elapsed_us,
              unfused->execute_calls);
  std::printf("  fused:   body %10.1f us, elapsed %10.1f us, %zu launches "
              "(%d group(s), %zu fused)\n",
              fused->kernel_body_us, fused->elapsed_us, fused->execute_calls,
              fused->fused_groups, fused->fused_launches);
  std::printf("  kernel-body speedup %.2fx, revenue %s\n", body_speedup,
              match ? "bit-identical" : "MISMATCH");
  EmitJson(*unfused, *fused, body_speedup, match, "BENCH_fusion.json");

  bool ok = true;
  if (fused->fused_groups < 1 || fused->fused_launches == 0) {
    std::printf("FAIL: fusion pass fused nothing on Q6\n");
    ok = false;
  }
  if (body_speedup < 2.0) {
    std::printf("FAIL: fused kernel-body speedup %.2fx < 2.0x\n",
                body_speedup);
    ok = false;
  }
  if (!match) {
    std::printf("FAIL: fused revenue %lld != unfused %lld\n",
                static_cast<long long>(fused->revenue),
                static_cast<long long>(unfused->revenue));
    ok = false;
  }
  if (ok) std::printf("OK: all fusion gates passed\n");
  return ok ? 0 : 1;
}
