#include "trace_layers.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace adamant::bench_e2e {
namespace {

bool StartsWith(const std::string& s, const char* prefix) {
  return s.compare(0, std::strlen(prefix), prefix) == 0;
}

enum class Kind { kQuery, kKernel, kH2D, kD2H, kTile, kOther };

Kind Classify(const std::string& name) {
  if (StartsWith(name, "query:")) return Kind::kQuery;
  if (StartsWith(name, "kernel:") || StartsWith(name, "fused:")) {
    return Kind::kKernel;
  }
  if (StartsWith(name, "h2d")) return Kind::kH2D;
  if (StartsWith(name, "d2h")) return Kind::kD2H;
  if (StartsWith(name, "tile:")) return Kind::kTile;
  return Kind::kOther;
}

bool IsLeaf(Kind kind) {
  return kind == Kind::kKernel || kind == Kind::kH2D || kind == Kind::kD2H;
}

double Ms(uint64_t us) { return static_cast<double>(us) / 1000.0; }

// Reads the number after `"key":` at or after `pos`; advances `pos`.
bool ReadNumber(const std::string& json, const char* key, size_t* pos,
                double* out) {
  const size_t at = json.find(key, *pos);
  if (at == std::string::npos) return false;
  const char* begin = json.c_str() + at + std::strlen(key);
  char* end = nullptr;
  *out = std::strtod(begin, &end);
  if (end == begin) return false;
  *pos = static_cast<size_t>(end - json.c_str());
  return true;
}

bool ReadString(const std::string& json, const char* key, size_t* pos,
                std::string* out) {
  const size_t at = json.find(key, *pos);
  if (at == std::string::npos) return false;
  out->clear();
  size_t i = at + std::strlen(key);
  for (; i < json.size() && json[i] != '"'; ++i) {
    if (json[i] == '\\' && i + 1 < json.size()) ++i;
    out->push_back(json[i]);
  }
  *pos = i;
  return i < json.size();
}

}  // namespace

std::vector<Span> ParseCompleteSpans(const std::string& chrome_json) {
  // obs::ChromeTraceBuilder writes every event as
  // {"ph":"X","pid":0,"tid":T,"ts":N,"dur":N,"name":"...","args":{...}}.
  static const char kMarker[] = "{\"ph\":\"X\"";
  std::vector<Span> spans;
  size_t pos = 0;
  while ((pos = chrome_json.find(kMarker, pos)) != std::string::npos) {
    pos += sizeof(kMarker) - 1;
    double tid = 0, ts = 0, dur = 0;
    Span span;
    if (!ReadNumber(chrome_json, "\"tid\":", &pos, &tid) ||
        !ReadNumber(chrome_json, "\"ts\":", &pos, &ts) ||
        !ReadNumber(chrome_json, "\"dur\":", &pos, &dur) ||
        !ReadString(chrome_json, "\"name\":\"", &pos, &span.name)) {
      break;
    }
    span.track = static_cast<int>(tid);
    span.ts = static_cast<uint64_t>(ts);
    span.dur = static_cast<uint64_t>(dur);
    spans.push_back(std::move(span));
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) { return a.ts < b.ts; });
  return spans;
}

SpanTotals AggregateSpans(const std::vector<Span>& spans, uint64_t begin_us,
                          uint64_t end_us) {
  SpanTotals totals;
  auto first = std::lower_bound(
      spans.begin(), spans.end(), begin_us,
      [](const Span& s, uint64_t ts) { return s.ts < ts; });
  std::vector<const Span*> queries, leaves, kernels;
  std::vector<uint64_t> tile_starts;
  for (auto it = first; it != spans.end() && it->ts <= end_us; ++it) {
    totals.events += 1;
    const Kind kind = Classify(it->name);
    switch (kind) {
      case Kind::kQuery:
        totals.query_ms += Ms(it->dur);
        queries.push_back(&*it);
        break;
      case Kind::kKernel:
        totals.kernel_ms += Ms(it->dur);
        totals.launches += 1;
        kernels.push_back(&*it);
        break;
      case Kind::kH2D:
        totals.h2d_ms += Ms(it->dur);
        break;
      case Kind::kD2H:
        totals.d2h_ms += Ms(it->dur);
        break;
      case Kind::kTile:
        totals.tile_ms += Ms(it->dur);
        tile_starts.push_back(it->ts);
        break;
      case Kind::kOther:
        break;
    }
    if (IsLeaf(kind)) leaves.push_back(&*it);
  }

  for (const Span* query : queries) {
    // Leaves are in start order; merge the ones inside this query.
    uint64_t covered = 0, run_begin = 0, run_end = 0;
    bool open = false;
    for (const Span* leaf : leaves) {
      if (leaf->ts < query->ts) continue;
      if (leaf->ts >= query->end()) break;
      const uint64_t leaf_end = std::min(leaf->end(), query->end());
      if (open && leaf->ts <= run_end) {
        run_end = std::max(run_end, leaf_end);
        continue;
      }
      if (open) covered += run_end - run_begin;
      run_begin = leaf->ts;
      run_end = leaf_end;
      open = true;
    }
    if (open) covered += run_end - run_begin;
    totals.runtime_self_ms += Ms(query->dur - std::min(covered, query->dur));
  }

  for (const Span* kernel : kernels) {
    auto tile = std::lower_bound(tile_starts.begin(), tile_starts.end(),
                                 kernel->ts);
    if (tile != tile_starts.end() && *tile < kernel->end()) {
      totals.parallel_kernel_ms += Ms(kernel->dur);
    }
  }
  return totals;
}

}  // namespace adamant::bench_e2e
