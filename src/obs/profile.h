#ifndef ADAMANT_OBS_PROFILE_H_
#define ADAMANT_OBS_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace adamant::obs {

class MetricsRegistry;

/// One device's share of one pipeline: time this device spent moving data
/// in (H2D), moving results out (D2H), and computing, while the pipeline
/// was running. Milliseconds throughout.
struct PipelineDeviceSlice {
  int device = 0;
  double transfer_ms = 0;  // H2D
  double d2h_ms = 0;
  double compute_ms = 0;
};

/// Per-pipeline breakdown within a query run.
struct PipelineProfile {
  int index = 0;
  double wall_ms = 0;
  size_t chunks = 0;
  /// True when the run was cancelled (deadline, client cancel, watchdog)
  /// while this pipeline was executing — its chunk count and timings cover
  /// only the work done before the token tripped.
  bool cancelled = false;
  std::vector<PipelineDeviceSlice> devices;
};

/// One run's totals on one device, charged per operation into the run's
/// ledger (device/run_ledger.h) and exported as QueryStats::devices.
/// Times are simulated microseconds.
struct DeviceRunStats {
  std::string name;
  double h2d_busy_us = 0;
  double d2h_busy_us = 0;
  double compute_busy_us = 0;
  double kernel_body_us = 0;
  /// Per-primitive-kernel body time ("map" -> us, "hash_build" -> us, ...).
  std::map<std::string, double> kernel_body_by_name;
  double transfer_wire_us = 0;
  size_t execute_calls = 0;
  size_t place_calls = 0;
  size_t retrieve_calls = 0;
  size_t prepare_calls = 0;
  /// Peak arena use while the run was active (nominal bytes).
  size_t device_mem_high_water = 0;
  size_t pinned_mem_high_water = 0;
  /// Task-layer variant policy the device ran under ("scalar"|"parallel"),
  /// its thread budget, and how many Execute calls dispatched a parallel
  /// variant fn — so benchmark output is self-describing. An empty
  /// kernel_variant marks a device the run did not touch.
  std::string kernel_variant;
  int kernel_threads = 0;
  size_t parallel_launches = 0;
  /// Execute calls that ran a FUSED composite kernel on this device, and
  /// the share of kernel_body_us spent inside them.
  size_t fused_launches = 0;
  double fused_body_us = 0;
};

/// One operator's share of one run on one partition device. Single-device
/// models record exactly one slice per operator; the device-parallel model
/// merges one slice per partition device.
struct OperatorDeviceSlice {
  int device = 0;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  size_t launches = 0;
  double kernel_ms = 0;
};

/// EXPLAIN ANALYZE: one lowered-plan node's predicted vs measured runtime,
/// aligned node-for-node with the primitive graph (node_id/label/kind).
/// Collected by RunContext when ExecutionOptions::collect_operator_stats is
/// set; predictions are stamped from the graph annotations and the node
/// device's perf model at finalize time.
struct OperatorStats {
  int node_id = -1;
  int pipeline = -1;
  std::string label;
  std::string kind;
  /// Links this operator back to the logical construct it lowered from
  /// (e.g. "step:lower.filter(l_shipdate)"); empty when the operator
  /// carries no selectivity estimate. Consumed by the selectivity feedback
  /// cache (plan/feedback.h).
  std::string feedback_key;
  /// True for kinds whose NodeConfig::selectivity sizes output buffers
  /// (FILTER_POSITION / MATERIALIZE / HASH_PROBE / FUSED) — the operators
  /// a selectivity q-error is meaningful for.
  bool selective = false;

  // --- Predicted ---
  double predicted_selectivity = 1.0;
  double predicted_rows_in = 0;
  double predicted_rows_out = 0;
  /// Arithmetic per-node simulated cost (us), same model as
  /// EstimateSimCostUs: one launch per chunk at full chunk cardinality.
  double predicted_cost_us = 0;

  // --- Measured ---
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  /// Largest per-chunk rows_out/rows_in — what output buffers must actually
  /// absorb (the feedback cache applies this, not the run average).
  double max_chunk_selectivity = 0;
  size_t launches = 0;
  double kernel_ms = 0;  // wall time inside Execute, all variants
  double scalar_ms = 0;
  double parallel_ms = 0;
  double fused_ms = 0;
  uint64_t bytes_h2d = 0;
  uint64_t bytes_d2h = 0;
  size_t cache_hits = 0;
  std::vector<OperatorDeviceSlice> devices;

  double ActualSelectivity() const {
    return rows_in == 0 ? 0.0
                        : static_cast<double>(rows_out) /
                              static_cast<double>(rows_in);
  }
};

/// q-error (Leis et al., "How Good Are Query Optimizers, Really?"):
/// max(predicted/actual, actual/predicted), >= 1. Zero-sided estimates
/// clamp to a tiny floor so a missed empty/full prediction yields a large
/// finite error instead of inf.
double QError(double predicted, double actual);

/// The paper's Fig. 10/11-style phase breakdown for one query run: where
/// did the time go — queue wait, device transfer vs compute per pipeline,
/// host-side merges. Filled by the executor on every run; queue_wait_ms is
/// stamped by the service layer. All times are milliseconds.
struct QueryProfile {
  /// Why the run ended early, or empty for a completed run: "user",
  /// "deadline", or "watchdog" (CancelCauseToString of the tripped token).
  std::string cancelled_cause;
  double queue_wait_ms = 0;
  double run_ms = 0;
  double merge_host_ms = 0;
  std::vector<PipelineProfile> pipelines;
  /// EXPLAIN ANALYZE tree (node-id order), present when the run collected
  /// operator stats.
  std::vector<OperatorStats> operators;

  /// The profile as JSON; its "devices" array renders the run's per-device
  /// totals (QueryStats::devices), skipping devices the run did not touch.
  std::string ToJson(const std::vector<DeviceRunStats>& devices = {}) const;
};

/// Observes every operator's selectivity and cost q-error into the
/// `adamant_plan_qerror_selectivity` / `adamant_plan_qerror_cost`
/// histograms of `metrics` (labelled by query name). Cost q-errors compare
/// normalized cost *shares* (each side divided by its total), so the
/// comparison needs no sim-us-to-wall calibration.
void RecordPlanQErrors(MetricsRegistry* metrics, const std::string& query_name,
                       const std::vector<OperatorStats>& operators);

}  // namespace adamant::obs

#endif  // ADAMANT_OBS_PROFILE_H_
