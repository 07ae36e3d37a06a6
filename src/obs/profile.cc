#include "obs/profile.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/chrome_trace.h"
#include "obs/metrics.h"

namespace adamant::obs {

namespace {

std::string Ms(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  return buf;
}

// Floor for q-error operands: a prediction (or actual) of exactly zero
// against a nonzero counterpart becomes a large finite error, and 0-vs-0
// becomes a perfect 1.0.
constexpr double kQErrorFloor = 1e-9;

}  // namespace

double QError(double predicted, double actual) {
  const double p = std::max(predicted, kQErrorFloor);
  const double a = std::max(actual, kQErrorFloor);
  return std::max(p / a, a / p);
}

std::string QueryProfile::ToJson(
    const std::vector<DeviceRunStats>& devices) const {
  std::ostringstream out;
  out << "{\"queue_wait_ms\":" << Ms(queue_wait_ms);
  if (!cancelled_cause.empty()) {
    out << ",\"cancelled\":\"" << JsonEscape(cancelled_cause) << "\"";
  }
  out << ",\"run_ms\":" << Ms(run_ms)
      << ",\"merge_host_ms\":" << Ms(merge_host_ms) << ",\"pipelines\":[";
  for (size_t i = 0; i < pipelines.size(); ++i) {
    const PipelineProfile& pipeline = pipelines[i];
    if (i) out << ",";
    out << "{\"index\":" << pipeline.index
        << ",\"wall_ms\":" << Ms(pipeline.wall_ms)
        << ",\"chunks\":" << pipeline.chunks;
    if (pipeline.cancelled) out << ",\"cancelled\":true";
    out << ",\"devices\":[";
    for (size_t j = 0; j < pipeline.devices.size(); ++j) {
      const PipelineDeviceSlice& slice = pipeline.devices[j];
      if (j) out << ",";
      out << "{\"device\":" << slice.device
          << ",\"transfer_ms\":" << Ms(slice.transfer_ms)
          << ",\"d2h_ms\":" << Ms(slice.d2h_ms)
          << ",\"compute_ms\":" << Ms(slice.compute_ms) << "}";
    }
    out << "]}";
  }
  out << "],\"devices\":[";
  bool first = true;
  for (const DeviceRunStats& device : devices) {
    if (device.kernel_variant.empty()) continue;
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << JsonEscape(device.name)
        << "\",\"transfer_ms\":" << Ms(device.h2d_busy_us / 1000.0)
        << ",\"d2h_ms\":" << Ms(device.d2h_busy_us / 1000.0)
        << ",\"compute_ms\":" << Ms(device.compute_busy_us / 1000.0)
        << ",\"kernel_body_ms\":" << Ms(device.kernel_body_us / 1000.0)
        << ",\"kernel_launches\":" << device.execute_calls
        << ",\"fused_launches\":" << device.fused_launches
        << ",\"fused_body_ms\":" << Ms(device.fused_body_us / 1000.0) << "}";
  }
  out << "]";
  if (!operators.empty()) {
    out << ",\"operators\":[";
    for (size_t i = 0; i < operators.size(); ++i) {
      const OperatorStats& op = operators[i];
      if (i) out << ",";
      out << "{\"node\":" << op.node_id << ",\"pipeline\":" << op.pipeline
          << ",\"kind\":\"" << JsonEscape(op.kind) << "\",\"label\":\""
          << JsonEscape(op.label) << "\"";
      if (!op.feedback_key.empty()) {
        out << ",\"feedback_key\":\"" << JsonEscape(op.feedback_key) << "\"";
      }
      out << ",\"rows_in\":" << op.rows_in << ",\"rows_out\":" << op.rows_out
          << ",\"predicted_rows_out\":" << Ms(op.predicted_rows_out);
      if (op.selective) {
        out << ",\"predicted_selectivity\":" << Ms(op.predicted_selectivity)
            << ",\"actual_selectivity\":" << Ms(op.ActualSelectivity())
            << ",\"max_chunk_selectivity\":" << Ms(op.max_chunk_selectivity)
            << ",\"selectivity_qerror\":"
            << Ms(QError(op.predicted_selectivity, op.ActualSelectivity()));
      }
      out << ",\"predicted_cost_us\":" << Ms(op.predicted_cost_us)
          << ",\"kernel_ms\":" << Ms(op.kernel_ms)
          << ",\"scalar_ms\":" << Ms(op.scalar_ms)
          << ",\"parallel_ms\":" << Ms(op.parallel_ms)
          << ",\"fused_ms\":" << Ms(op.fused_ms)
          << ",\"launches\":" << op.launches
          << ",\"bytes_h2d\":" << op.bytes_h2d
          << ",\"bytes_d2h\":" << op.bytes_d2h
          << ",\"cache_hits\":" << op.cache_hits << ",\"devices\":[";
      for (size_t j = 0; j < op.devices.size(); ++j) {
        const OperatorDeviceSlice& slice = op.devices[j];
        if (j) out << ",";
        out << "{\"device\":" << slice.device
            << ",\"rows_in\":" << slice.rows_in
            << ",\"rows_out\":" << slice.rows_out
            << ",\"launches\":" << slice.launches
            << ",\"kernel_ms\":" << Ms(slice.kernel_ms) << "}";
      }
      out << "]}";
    }
    out << "]";
  }
  out << "}";
  return out.str();
}

void RecordPlanQErrors(MetricsRegistry* metrics, const std::string& query_name,
                       const std::vector<OperatorStats>& operators) {
  if (metrics == nullptr || operators.empty()) return;
  Histogram* sel_hist = metrics->GetHistogram("adamant_plan_qerror_selectivity",
                                              QErrorBuckets(), "query",
                                              query_name);
  Histogram* cost_hist = metrics->GetHistogram("adamant_plan_qerror_cost",
                                               QErrorBuckets(), "query",
                                               query_name);
  double pred_total = 0;
  double actual_total = 0;
  for (const OperatorStats& op : operators) {
    pred_total += op.predicted_cost_us;
    actual_total += op.kernel_ms;
  }
  for (const OperatorStats& op : operators) {
    if (op.selective && op.rows_in > 0) {
      sel_hist->Observe(QError(op.predicted_selectivity,
                               op.ActualSelectivity()));
    }
    // Cost q-error compares each operator's *share* of the total, so the
    // simulated-us prediction and wall-ms measurement need no common unit.
    if (pred_total > 0 && actual_total > 0 && op.launches > 0) {
      cost_hist->Observe(QError(op.predicted_cost_us / pred_total,
                                op.kernel_ms / actual_total));
    }
  }
}

}  // namespace adamant::obs
