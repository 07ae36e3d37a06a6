#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "bench.h"

namespace adamant::bench_e2e {
namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].first) + ": {\"value\": " +
           JsonNumber(metrics[i].second.value) +
           ", \"unit\": " + JsonString(metrics[i].second.unit) + "}";
  }
  return out + "}}";
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double LatencyPercentile(const std::vector<Sample>& samples, double q) {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const Sample& s : samples) values.push_back(s.latency_ms);
  return Percentile(std::move(values), q);
}

void CountOutcomes(const std::vector<Sample>& samples, Report* report) {
  std::map<std::string, std::vector<double>> ok_ms, failed_ms;
  for (const Sample& s : samples) {
    (s.ok() ? ok_ms : failed_ms)[s.query].push_back(s.latency_ms);
  }
  std::set<std::string> names;
  for (const Sample& s : samples) names.insert(s.query);
  for (const std::string& name : names) {
    std::fprintf(stderr,
                 "bench_e2e: %-16s ok %4zu p50 %9.3f ms | failed %4zu p50 "
                 "%9.3f ms\n",
                 name.c_str(), ok_ms[name].size(), Median(ok_ms[name]),
                 failed_ms[name].size(), Median(failed_ms[name]));
  }
  std::set<std::string> logged;
  for (const Sample& s : samples) {
    ++report->attempted;
    if (s.ok()) continue;
    ++report->failed;
    if (s.mismatch) report->correct = false;
    const std::string line =
        s.query + ": " + (s.mismatch ? "result mismatch: " : "") + s.error;
    if (logged.insert(line).second) {
      std::fprintf(stderr, "bench_e2e: request failed: %s\n", line.c_str());
    }
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace adamant::bench_e2e
