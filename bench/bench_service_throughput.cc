// Service-layer throughput: queries/sec and column-cache hit rate as the
// client count grows (1/2/4/8), on a two-GPU rig serving a seeded Q3/Q4/Q6
// mix. Each client count is one QueryService instance with that many
// workers; the admission queue, budgets, and cache are exercised exactly as
// in `run_tpch --serve`.
//
// Kernels run for real on the scaled-down catalog, so wall time measures
// scheduler + cache + execution overheads; simulated device time is
// reported alongside. Results land in BENCH_service.json so later changes
// have a serving-perf trajectory to compare against.

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace adamant::bench {
namespace {

constexpr int kQueries = 200;
constexpr unsigned kSeed = 7;

struct Sample {
  size_t clients = 0;
  double qps = 0;
  double cache_hit_rate = 0;
  double bytes_saved_mib = 0;
  double queue_wait_p95_ms = 0;  // simulated-run percentile, real queue wait
};

QuerySpec MakeSpec(const sql::PreparedQuery& prepared) {
  QuerySpec spec;
  spec.name = prepared.label;
  spec.make_graph = prepared.GraphFactory();
  return spec;
}

Sample RunWorkload(const Catalog& catalog, size_t clients) {
  DeviceManager manager;
  for (int i = 0; i < 2; ++i) {
    auto device = manager.AddDriver(sim::DriverKind::kCudaGpu,
                                    "cuda_gpu." + std::to_string(i));
    ADAMANT_CHECK(device.ok()) << device.status().ToString();
    ADAMANT_CHECK(BindStandardKernels(manager.device(*device)).ok());
  }

  ServiceConfig config;
  config.workers = clients;
  QueryService service(&manager, config);
  std::vector<sql::PreparedQuery> mix;
  for (int query : {3, 4, 6}) {
    mix.push_back(PrepareQuery(query, catalog, &manager, 0));
  }

  std::mt19937 rng(kSeed);
  std::uniform_int_distribution<int> pick(0, 2);
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  tickets.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    auto ticket = service.Submit(
        MakeSpec(mix[static_cast<size_t>(pick(rng))]));
    ADAMANT_CHECK(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(*ticket);
  }
  for (const auto& ticket : tickets) {
    ADAMANT_CHECK(ticket->Wait().ok()) << ticket->Wait().status().ToString();
  }
  service.Drain();

  ServiceStats stats = service.GetStats();
  Sample sample;
  sample.clients = clients;
  sample.qps = stats.wall_seconds > 0
                   ? static_cast<double>(stats.completed) / stats.wall_seconds
                   : 0;
  // Same denominator as ServiceStats::ToJson (hits + misses + bypasses),
  // so the bench and the serve JSON report identical hit rates.
  const size_t lookups =
      stats.cache.hits + stats.cache.misses + stats.cache.bypasses;
  sample.cache_hit_rate =
      lookups > 0 ? static_cast<double>(stats.cache.hits) / lookups : 0;
  sample.bytes_saved_mib =
      static_cast<double>(stats.cache.bytes_saved) / (1024.0 * 1024.0);
  sample.queue_wait_p95_ms = stats.queue_wait_p95_ms;
  service.Stop();
  return sample;
}

void WriteJson(const std::vector<Sample>& samples, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  ADAMANT_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\n  \"bench\": \"service_throughput\",\n");
  std::fprintf(f, "  \"queries\": %d,\n  \"seed\": %u,\n", kQueries, kSeed);
  std::fprintf(f, "  \"samples\": [\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(f,
                 "    {\"clients\": %zu, \"qps\": %.2f, "
                 "\"cache_hit_rate\": %.4f, \"bytes_saved_mib\": %.2f, "
                 "\"queue_wait_p95_ms\": %.3f}%s\n",
                 s.clients, s.qps, s.cache_hit_rate, s.bytes_saved_mib,
                 s.queue_wait_p95_ms, i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace adamant::bench

int main() {
  using adamant::bench::RunWorkload;
  using adamant::bench::Sample;
  const adamant::Catalog& catalog = adamant::bench::SharedCatalog();

  std::printf("=== Service throughput: %d seeded Q3/Q4/Q6 queries ===\n",
              adamant::bench::kQueries);
  std::printf("%-8s %10s %14s %16s %18s\n", "clients", "qps", "hit_rate",
              "saved(MiB)", "queue_p95(ms)");
  std::vector<Sample> samples;
  for (size_t clients : {1, 2, 4, 8}) {
    Sample s = RunWorkload(catalog, clients);
    samples.push_back(s);
    std::printf("%-8zu %10.1f %14.3f %16.2f %18.3f\n", s.clients, s.qps,
                s.cache_hit_rate, s.bytes_saved_mib, s.queue_wait_p95_ms);
  }
  adamant::bench::WriteJson(samples, "BENCH_service.json");
  std::printf("\nwrote BENCH_service.json\n");
  return 0;
}
