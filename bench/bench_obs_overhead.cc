// Observability overhead: wall-clock cost of running Q3/Q4/Q6 with the
// trace recorder enabled versus disabled, and with EXPLAIN ANALYZE
// per-operator stats collection enabled versus plain runs. Unlike the figure benchmarks this
// one reports *real* time — the recorder's cost is host-side bookkeeping
// (one relaxed atomic load per potential span when disabled; a clock read,
// a mutex'd per-thread buffer append, and a small string per span when
// enabled), which simulated time would not see.
//
// Method: per query, warm up, then interleave untraced/traced runs and keep
// the minimum of each (min-of-N is the standard low-noise wall-clock
// estimator). The gate — also enforced in CI — is
//
//   traced_min  <= untraced_min * 1.02 + 2 ms
//   analyze_min <= untraced_min * 1.03 + 2 ms
//
// i.e. tracing must cost under 2% and operator-stats collection under 3%,
// with a small absolute floor so sub-millisecond runs don't fail on
// scheduler jitter alone. The analyze series runs with tracing off —
// it isolates the cost of the OperatorStats counters alone.
//
// Results land in BENCH_obs.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace adamant::bench {
namespace {

constexpr double kNominalSf = 5;
constexpr size_t kChunkElems = size_t{1} << 22;
constexpr int kIterations = 9;

double RunOnceMs(DeviceManager* manager, int query,
                 bool collect_operator_stats = false) {
  const Catalog& catalog = SharedCatalog();
  sql::PreparedQuery prepared = PrepareQuery(query, catalog, manager, 0);
  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  options.chunk_elems = kChunkElems;
  options.collect_operator_stats = collect_operator_stats;
  QueryExecutor executor(manager);
  const auto start = std::chrono::steady_clock::now();
  auto exec = executor.Run(prepared.bundle.graph.get(), options);
  const auto end = std::chrono::steady_clock::now();
  ADAMANT_CHECK(exec.ok()) << exec.status().ToString();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

struct Sample {
  int query = 0;
  double untraced_min_ms = 0;
  double traced_min_ms = 0;
  double analyze_min_ms = 0;
  double overhead_pct = 0;
  double analyze_overhead_pct = 0;
  size_t trace_events = 0;
  bool pass = false;
};

Sample Measure(int query) {
  BenchRig rig = BenchRig::Make(sim::DriverKind::kCudaGpu,
                                sim::HardwareSetup::kSetup1, kNominalSf);
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Disable();

  RunOnceMs(rig.manager.get(), query);  // warm up caches/allocators
  RunOnceMs(rig.manager.get(), query);

  Sample sample;
  sample.query = query;
  double untraced = 1e300;
  double traced = 1e300;
  double analyze = 1e300;
  // Interleaved so slow drift (thermal, background load) hits all modes
  // equally rather than biasing whichever ran last.
  for (int i = 0; i < kIterations; ++i) {
    untraced = std::min(untraced, RunOnceMs(rig.manager.get(), query));
    recorder.Enable();
    traced = std::min(traced, RunOnceMs(rig.manager.get(), query));
    sample.trace_events = recorder.TotalEvents();
    recorder.Disable();
    // EXPLAIN ANALYZE series: operator-stats counters on, tracing off.
    analyze = std::min(analyze,
                       RunOnceMs(rig.manager.get(), query,
                                 /*collect_operator_stats=*/true));
  }
  sample.untraced_min_ms = untraced;
  sample.traced_min_ms = traced;
  sample.analyze_min_ms = analyze;
  sample.overhead_pct =
      untraced > 0 ? (traced - untraced) / untraced * 100.0 : 0;
  sample.analyze_overhead_pct =
      untraced > 0 ? (analyze - untraced) / untraced * 100.0 : 0;
  sample.pass = traced <= untraced * 1.02 + 2.0 &&
                analyze <= untraced * 1.03 + 2.0;
  return sample;
}

void WriteJson(const std::vector<Sample>& samples, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  ADAMANT_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\n  \"bench\": \"obs_overhead\",\n");
  std::fprintf(f, "  \"nominal_sf\": %g,\n  \"chunk_elems\": %zu,\n",
               kNominalSf, kChunkElems);
  std::fprintf(f, "  \"gate\": \"traced_min <= untraced_min * 1.02 + 2ms; "
               "analyze_min <= untraced_min * 1.03 + 2ms\",\n");
  std::fprintf(f, "  \"samples\": [\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(f,
                 "    {\"query\": \"Q%d\", \"untraced_min_ms\": %.3f, "
                 "\"traced_min_ms\": %.3f, \"analyze_min_ms\": %.3f, "
                 "\"overhead_pct\": %.2f, "
                 "\"analyze_overhead_pct\": %.2f, "
                 "\"trace_events\": %zu, \"pass\": %s}%s\n",
                 s.query, s.untraced_min_ms, s.traced_min_ms,
                 s.analyze_min_ms, s.overhead_pct, s.analyze_overhead_pct,
                 s.trace_events, s.pass ? "true" : "false",
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace adamant::bench

int main() {
  using namespace adamant::bench;

  std::vector<Sample> samples;
  std::printf("%-4s %16s %14s %15s %10s %12s %13s %6s\n", "Q",
              "untraced_min_ms", "traced_min_ms", "analyze_min_ms",
              "traced_%", "analyze_%", "trace_events", "gate");
  bool all_pass = true;
  for (int query : {3, 4, 6}) {
    Sample s = Measure(query);
    std::printf("Q%-3d %16.3f %14.3f %15.3f %10.2f %12.2f %13zu %6s\n",
                s.query, s.untraced_min_ms, s.traced_min_ms, s.analyze_min_ms,
                s.overhead_pct, s.analyze_overhead_pct, s.trace_events,
                s.pass ? "PASS" : "FAIL");
    all_pass = all_pass && s.pass;
    samples.push_back(s);
  }
  WriteJson(samples, "BENCH_obs.json");
  if (!all_pass) {
    std::fprintf(stderr,
                 "obs overhead gate FAILED: tracing costs more than "
                 "2%% + 2ms, or operator-stats collection more than "
                 "3%% + 2ms, on at least one query\n");
    return 1;
  }
  std::printf("obs overhead gate PASS\n");
  return 0;
}
