// Deadline load-shedding benchmark: admitted-query p99 latency and shed
// rate under overload, with and without SLO shedding. A single worker
// serves Q6 on a device whose Execute calls carry a real 5 ms wall-clock
// stall, so query duration — and therefore load — lives in wall time, the
// same clock the deadline machinery uses.
//
// Three phases:
//   1. unloaded: sequential queries, the p99 every other phase is judged
//      against;
//   2. overload/no-shed: an open loop offers ~2x the service's capacity
//      with the SLO policy disabled — the queue builds and p99 collapses;
//   3. overload/shed: the same offered load with deadlines + shedding on —
//      doomed queries are rejected at admission and the admitted ones keep
//      near-unloaded latency.
//
// Gates (exit 1 on failure, so CI can hold the line):
//   - no-shed p99 >= 2x unloaded p99   (overload really overloads)
//   - shed p99    <= 1.5x unloaded p99 (shedding protects admitted queries)
//   - shed phase actually sheds queries
//
// Results land in BENCH_deadline.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

namespace adamant::bench {
namespace {

constexpr double kStallMs = 5.0;     // per Execute call, wall clock
constexpr int kUnloadedQueries = 20;
constexpr int kWarmupQueries = 5;    // calibrates the cost predictor
constexpr int kLoadedQueries = 40;

QuerySpec Q6Spec(const sql::PreparedQuery& q6) {
  QuerySpec spec;
  spec.name = "Q6";
  spec.make_graph = q6.GraphFactory();
  return spec;
}

std::unique_ptr<DeviceManager> MakeStallRig() {
  auto manager = std::make_unique<DeviceManager>();
  auto device =
      manager->AddDriver(sim::DriverKind::kCudaGpu, "gpu.0",
                         FaultPlan::StickyStall(InterfaceCall::kExecute,
                                                kStallMs));
  ADAMANT_CHECK(device.ok()) << device.status().ToString();
  ADAMANT_CHECK(BindStandardKernels(manager->device(*device)).ok());
  return manager;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

struct PhaseResult {
  size_t offered = 0;
  size_t completed = 0;
  size_t shed = 0;    // rejected at admission (DeadlineExceeded from Submit)
  size_t missed = 0;  // admitted but cancelled / evicted
  double mean_ms = 0;
  double p99_ms = 0;
};

/// End-to-end latency of a completed ticket: queue wait + run.
double LatencyMs(const QueryTicket& ticket) {
  return ticket.queue_wait_ms() + ticket.run_ms();
}

PhaseResult RunUnloaded(const Catalog& catalog) {
  auto manager = MakeStallRig();
  ServiceConfig config;
  config.workers = 1;
  QueryService service(manager.get(), config);
  const sql::PreparedQuery q6 = PrepareQuery(6, catalog, manager.get(), 0);

  PhaseResult result;
  std::vector<double> latencies;
  for (int i = 0; i < kUnloadedQueries; ++i) {
    auto ticket = service.Submit(Q6Spec(q6));
    ADAMANT_CHECK(ticket.ok()) << ticket.status().ToString();
    ADAMANT_CHECK((*ticket)->Wait().ok())
        << (*ticket)->Wait().status().ToString();
    latencies.push_back(LatencyMs(**ticket));
  }
  service.Drain();

  result.offered = result.completed = kUnloadedQueries;
  double sum = 0;
  for (double v : latencies) sum += v;
  result.mean_ms = sum / static_cast<double>(latencies.size());
  result.p99_ms = Percentile(latencies, 0.99);
  return result;
}

/// Offers kLoadedQueries at `interval_ms` spacing (an open loop: submission
/// does not wait for completions). With `shed` the SLO policy is on and
/// every query carries `deadline_ms`; without it the policy is off and
/// queries are deadline-free — the queue simply builds.
PhaseResult RunLoaded(const Catalog& catalog, double interval_ms,
                      double deadline_ms, bool shed) {
  auto manager = MakeStallRig();
  ServiceConfig config;
  config.workers = 1;
  config.slo.shed_on_admission = shed;
  config.slo.evict_lapsed = shed;
  QueryService service(manager.get(), config);
  const sql::PreparedQuery q6 = PrepareQuery(6, catalog, manager.get(), 0);

  // Calibrate the cost predictor the same way a live service would: by
  // serving. Warmup completions are excluded from the phase counters.
  for (int i = 0; i < kWarmupQueries; ++i) {
    auto ticket = service.Submit(Q6Spec(q6));
    ADAMANT_CHECK(ticket.ok()) << ticket.status().ToString();
    ADAMANT_CHECK((*ticket)->Wait().ok());
  }

  PhaseResult result;
  result.offered = kLoadedQueries;
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kLoadedQueries; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        interval_ms * static_cast<double>(i))));
    QuerySpec spec = Q6Spec(q6);
    spec.deadline_ms = shed ? deadline_ms : 0;
    auto ticket = service.Submit(std::move(spec));
    if (!ticket.ok()) {
      ADAMANT_CHECK(ticket.status().IsDeadlineExceeded())
          << ticket.status().ToString();
      ++result.shed;
      continue;
    }
    tickets.push_back(*ticket);
  }

  std::vector<double> latencies;
  for (const auto& ticket : tickets) {
    if (ticket->Wait().ok()) {
      ++result.completed;
      latencies.push_back(LatencyMs(*ticket));
    } else {
      ++result.missed;
    }
  }
  service.Drain();

  if (!latencies.empty()) {
    double sum = 0;
    for (double v : latencies) sum += v;
    result.mean_ms = sum / static_cast<double>(latencies.size());
    result.p99_ms = Percentile(latencies, 0.99);
  }
  return result;
}

void PrintPhase(const char* name, const PhaseResult& r) {
  std::printf("%-18s offered=%-4zu completed=%-4zu shed=%-4zu missed=%-4zu "
              "mean=%8.2f ms  p99=%8.2f ms\n",
              name, r.offered, r.completed, r.shed, r.missed, r.mean_ms,
              r.p99_ms);
}

void WriteJson(const PhaseResult& unloaded, const PhaseResult& noshed,
               const PhaseResult& shed, double interval_ms,
               double deadline_ms, bool gate_noshed, bool gate_shed,
               const char* path) {
  std::FILE* f = std::fopen(path, "w");
  ADAMANT_CHECK(f != nullptr) << "cannot open " << path;
  auto phase = [f](const char* name, const PhaseResult& r, const char* tail) {
    std::fprintf(f,
                 "    \"%s\": {\"offered\": %zu, \"completed\": %zu, "
                 "\"shed\": %zu, \"missed\": %zu, \"mean_ms\": %.3f, "
                 "\"p99_ms\": %.3f, \"shed_rate\": %.4f}%s\n",
                 name, r.offered, r.completed, r.shed, r.missed, r.mean_ms,
                 r.p99_ms,
                 r.offered > 0
                     ? static_cast<double>(r.shed) /
                           static_cast<double>(r.offered)
                     : 0,
                 tail);
  };
  std::fprintf(f, "{\n  \"bench\": \"deadline\",\n");
  std::fprintf(f, "  \"stall_ms\": %.1f,\n  \"interval_ms\": %.3f,\n",
               kStallMs, interval_ms);
  std::fprintf(f, "  \"deadline_ms\": %.3f,\n", deadline_ms);
  std::fprintf(f, "  \"phases\": {\n");
  phase("unloaded", unloaded, ",");
  phase("overload_no_shed", noshed, ",");
  phase("overload_shed", shed, "");
  std::fprintf(f, "  },\n");
  std::fprintf(f,
               "  \"gates\": {\"no_shed_degrades\": %s, "
               "\"shed_protects_p99\": %s}\n}\n",
               gate_noshed ? "true" : "false", gate_shed ? "true" : "false");
  std::fclose(f);
}

}  // namespace
}  // namespace adamant::bench

int main() {
  using adamant::bench::PhaseResult;
  const adamant::Catalog& catalog = adamant::bench::SharedCatalog();

  std::printf("=== Deadline shedding: Q6 on a %.0f ms/Execute stall rig ===\n",
              adamant::bench::kStallMs);
  const PhaseResult unloaded = adamant::bench::RunUnloaded(catalog);
  adamant::bench::PrintPhase("unloaded", unloaded);

  // ~2x overload: offer a query every half mean service time. Admitted
  // queries in the shed phase must finish within 1.25x the unloaded p99 —
  // under the 1.5x gate, so the prediction slack has headroom.
  const double interval_ms = unloaded.mean_ms / 2.0;
  const double deadline_ms = unloaded.p99_ms * 1.25;
  const PhaseResult noshed =
      adamant::bench::RunLoaded(catalog, interval_ms, deadline_ms, false);
  adamant::bench::PrintPhase("overload_no_shed", noshed);
  const PhaseResult shed =
      adamant::bench::RunLoaded(catalog, interval_ms, deadline_ms, true);
  adamant::bench::PrintPhase("overload_shed", shed);

  const bool gate_noshed = noshed.p99_ms >= 2.0 * unloaded.p99_ms;
  const bool gate_shed =
      shed.p99_ms <= 1.5 * unloaded.p99_ms && shed.shed > 0;
  adamant::bench::WriteJson(unloaded, noshed, shed, interval_ms, deadline_ms,
                            gate_noshed, gate_shed, "BENCH_deadline.json");
  std::printf("\nwrote BENCH_deadline.json\n");

  if (!gate_noshed) {
    std::printf("GATE FAILED: no-shed p99 %.2f ms < 2x unloaded p99 %.2f ms "
                "(overload did not overload)\n",
                noshed.p99_ms, unloaded.p99_ms);
    return 1;
  }
  if (!gate_shed) {
    std::printf("GATE FAILED: shed p99 %.2f ms vs unloaded %.2f ms "
                "(limit 1.5x), shed=%zu\n",
                shed.p99_ms, unloaded.p99_ms, shed.shed);
    return 1;
  }
  std::printf("gates passed: no-shed p99 %.1fx unloaded, shed p99 %.2fx "
              "unloaded, shed rate %.0f%%\n",
              noshed.p99_ms / unloaded.p99_ms, shed.p99_ms / unloaded.p99_ms,
              100.0 * static_cast<double>(shed.shed) /
                  static_cast<double>(shed.offered));
  return 0;
}
