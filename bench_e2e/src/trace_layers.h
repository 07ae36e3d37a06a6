#ifndef ADAMANT_BENCH_E2E_TRACE_LAYERS_H_
#define ADAMANT_BENCH_E2E_TRACE_LAYERS_H_

// Groups the spans the library already records (obs::TraceRecorder) into
// per-layer times. The benchmark adds no spans of its own inside the
// library; it only reads the exported Chrome trace.
//
//   query:*              runtime  QueryExecutor::Run on the host track
//   pipeline:*, chunk:*  runtime  driver loop on the device track
//   h2d*, d2h*           runtime  DataTransferHub copies
//   kernel:*, fused:*    task     one kernel launch (scalar, parallel, fused)
//   tile:*               task     one worker-pool tile of a parallel kernel

#include <cstdint>
#include <string>
#include <vector>

namespace adamant::bench_e2e {

struct Span {
  int track = 0;
  uint64_t ts = 0;   // microseconds since TraceRecorder::Enable
  uint64_t dur = 0;  // microseconds
  std::string name;

  uint64_t end() const { return ts + dur; }
};

/// The complete ("X") events of a Chrome trace exported by
/// obs::TraceRecorder, sorted by start time.
std::vector<Span> ParseCompleteSpans(const std::string& chrome_json);

/// Span-derived layer times over the spans that start inside one window.
struct SpanTotals {
  double query_ms = 0;     // Σ query:* spans
  double kernel_ms = 0;    // Σ kernel:* + fused:* spans
  double h2d_ms = 0;       // Σ h2d* spans
  double d2h_ms = 0;       // Σ d2h* spans
  /// Runtime self time: query spans minus the part their kernel and
  /// transfer spans cover — the host-side abstraction overhead.
  double runtime_self_ms = 0;
  double launches = 0;     // kernel:* + fused:* spans
  double tile_ms = 0;      // Σ tile:* spans
  /// Σ kernel spans during which at least one pool tile started.
  double parallel_kernel_ms = 0;
  double events = 0;       // complete spans in the window
};

/// Totals over the spans starting in [begin_us, end_us]. The window holds
/// one query at a time, so self time is the query span minus the union of
/// the leaf spans inside it.
SpanTotals AggregateSpans(const std::vector<Span>& spans, uint64_t begin_us,
                          uint64_t end_us);

}  // namespace adamant::bench_e2e

#endif  // ADAMANT_BENCH_E2E_TRACE_LAYERS_H_
