#ifndef ADAMANT_BENCH_E2E_BENCH_H_
#define ADAMANT_BENCH_E2E_BENCH_H_

// Shared types of the end-to-end benchmark: command-line arguments, one
// timed request, and the report that becomes the final JSON line.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace adamant::bench_e2e {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test hook: perturb one expected result so the oracle must fail.
  bool corrupt_oracle = false;
};

/// Host wall time spent inside one public entry point of a layer.
using LayerTimes = std::map<std::string, double>;

/// One timed request.
struct Sample {
  std::string query;
  /// Wall time from the request's start to completion or failure.
  double latency_ms = 0;
  bool completed = false;  // returned results without an error Status
  bool mismatch = false;   // completed, but the results differ from oracle
  std::string error;
  LayerTimes layers;
  // Simulated-clock accounting of the run (completed requests).
  double sim_elapsed_us = 0;
  double sim_kernel_body_us = 0;
  double sim_transfer_wire_us = 0;
  // Executor counters.
  double chunks = 0;
  double h2d_bytes = 0;
  double h2d_saved_bytes = 0;
  double parallel_launches = 0;
  double fused_launches = 0;
  double fused_groups = 0;
  // served_sql only.
  double submit_ms = 0;
  double queue_wait_ms = 0;
  double run_ms = 0;
  // Trace-clock window of the request (traced phase only).
  uint64_t trace_begin_us = 0;
  uint64_t trace_end_us = 0;

  bool ok() const { return completed && !mismatch; }
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What a run prints: the counts, the correctness verdict and the metrics
/// of the requested kind (end-to-end untraced, per-layer traced).
struct Report {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::pair<std::string, Metric>> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, Metric{value, unit}});
  }
  std::string ToJson() const;
};

/// Linear-interpolated percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Latency percentile over every attempted request at its own wall time,
/// failed ones included (failures are counted separately; see README.md
/// for why they are not ranked above completed requests).
double LatencyPercentile(const std::vector<Sample>& samples, double q);

/// Folds a phase's samples into the report's attempted / failed / correct
/// fields and logs each distinct failure (query name + error) to stderr.
void CountOutcomes(const std::vector<Sample>& samples, Report* report);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Runs args.workload (adhoc_sql or served_sql) and fills `report` for
/// args.trace.
void RunWorkload(const Args& args, Report* report);

}  // namespace adamant::bench_e2e

#endif  // ADAMANT_BENCH_E2E_BENCH_H_
