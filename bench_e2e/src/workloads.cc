// The two workloads of bench_e2e (see bench_e2e/README.md for why each
// exists and which layer metric should move which end-to-end metric).
//
//   adhoc_sql  closed loop, one client, fresh SQL compile per request,
//              one simulated cuda_gpu, SF 0.02 emulating nominal SF 10.
//   served_sql closed loop, one client, SQL text submitted to a
//              QueryService over two simulated cuda_gpus, which compiles
//              and runs it; SF 0.02 emulating nominal SF 10.
//
// Every layer is timed from outside, around the calls into its public
// functions. The traced run additionally enables obs::TraceRecorder and
// groups the spans the library already records (trace_layers.h).

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "adamant/adamant.h"
#include "plan/selectivity.h"
#include "sql/binder.h"
#include "sql/parser.h"

#include "bench.h"
#include "trace_layers.h"

namespace adamant::bench_e2e {
namespace {

// The query set of every workload: all six SQL builtins.
const char* const kQueries[] = {"q1", "q3", "q4", "q6", "shipmode_rollup",
                                "priority_window"};

constexpr double kSf = 0.02;
constexpr double kNominalSf = 10;
// Full set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 5;

// The known program defect. When this builtin's oracle run fails with this
// error on a seed, the builtin is left out of that run's timed mix, logged,
// and counted in bench.known_defect_queries (README.md, "Known defect").
// Any other error, and this error from any other builtin, counts as failed.
constexpr char kKnownDefectQuery[] = "q3";
constexpr char kKnownDefectError[] = "aggregation hash table full";

std::vector<std::string> QueryNames() {
  return std::vector<std::string>(std::begin(kQueries), std::end(kQueries));
}

const std::string& SqlText(const std::string& name) {
  const sql::BuiltinQuery* builtin = sql::FindBuiltinQuery(name);
  ADAMANT_CHECK(builtin != nullptr) << "unknown builtin " << name;
  return builtin->sql;
}

// ---------------------------------------------------------------------------
// Per-layer metric set. Every workload prints the same names; a layer that
// does no work in a workload reports 0 there.
// ---------------------------------------------------------------------------

struct PerLayer {
  double generate_s = 0;
  // sql / plan frontend (per request).
  double parse_ms = 0, bind_ms = 0, plan_ms = 0, compile_ms = 0;
  double selectivity_ms = 0;
  double frontend_frac = 0;
  double lower_ms = 0, fuse_ms = 0, fused_groups = 0, chunk_tune_ms = 0;
  double extract_ms = 0;
  // runtime
  double run_ms = 0, self_ms = 0, h2d_ms = 0, d2h_ms = 0, chunks = 0;
  double h2d_mb = 0;
  // task
  double kernel_ms = 0, launches = 0, parallel_launches = 0;
  double fused_launches = 0, pool_busy_frac = 0;
  // sim
  double kernel_body_ms = 0, transfer_wire_ms = 0;
  // service
  double submit_ms = 0, queue_wait_p50_ms = 0, queue_wait_p99_ms = 0;
  double service_run_p50_ms = 0, cache_hit_frac = 0, h2d_saved_mb = 0;
  double device_busy_frac = 0, retries = 0, budget_deferrals = 0;
  // obs
  double trace_overhead_frac = 0, events_per_query = 0;
  // bench
  double request_ms = 0, layer_coverage_frac = 0;
  double known_defect_queries = 0;
  double failed_frac = 0, slo_miss_frac = 0;

  void AddTo(Report* r) const {
    r->Add("tpch.generate_s", generate_s, "s");
    r->Add("sql.parse_ms", parse_ms, "ms");
    r->Add("sql.bind_ms", bind_ms, "ms");
    r->Add("sql.plan_ms", plan_ms, "ms");
    r->Add("sql.compile_ms", compile_ms, "ms");
    r->Add("plan.selectivity_ms", selectivity_ms, "ms");
    r->Add("sql.frontend_frac", frontend_frac, "ratio");
    r->Add("plan.lower_ms", lower_ms, "ms");
    r->Add("plan.fuse_ms", fuse_ms, "ms");
    r->Add("plan.fused_groups", fused_groups, "count");
    r->Add("runtime.chunk_tune_ms", chunk_tune_ms, "ms");
    r->Add("sql.extract_ms", extract_ms, "ms");
    r->Add("runtime.run_ms", run_ms, "ms");
    r->Add("runtime.self_ms", self_ms, "ms");
    r->Add("runtime.h2d_ms", h2d_ms, "ms");
    r->Add("runtime.d2h_ms", d2h_ms, "ms");
    r->Add("runtime.chunks", chunks, "count");
    r->Add("runtime.h2d_mb", h2d_mb, "MiB");
    r->Add("task.kernel_ms", kernel_ms, "ms");
    r->Add("task.launches", launches, "count");
    r->Add("task.parallel_launches", parallel_launches, "count");
    r->Add("task.fused_launches", fused_launches, "count");
    r->Add("task.pool_busy_frac", pool_busy_frac, "ratio");
    r->Add("sim.kernel_body_ms", kernel_body_ms, "ms");
    r->Add("sim.transfer_wire_ms", transfer_wire_ms, "ms");
    r->Add("service.submit_ms", submit_ms, "ms");
    r->Add("service.queue_wait_p50_ms", queue_wait_p50_ms, "ms");
    r->Add("service.queue_wait_p99_ms", queue_wait_p99_ms, "ms");
    r->Add("service.run_p50_ms", service_run_p50_ms, "ms");
    r->Add("service.cache_hit_frac", cache_hit_frac, "ratio");
    r->Add("service.h2d_saved_mb", h2d_saved_mb, "MiB");
    r->Add("service.device_busy_frac", device_busy_frac, "ratio");
    r->Add("service.retries", retries, "count");
    r->Add("service.budget_deferrals", budget_deferrals, "count");
    r->Add("obs.trace_overhead_frac", trace_overhead_frac, "ratio");
    r->Add("obs.events_per_query", events_per_query, "count");
    r->Add("bench.request_ms", request_ms, "ms");
    r->Add("bench.layer_coverage_frac", layer_coverage_frac, "ratio");
    r->Add("bench.known_defect_queries", known_defect_queries, "count");
    r->Add("failed_frac", failed_frac, "ratio");
    r->Add("slo_miss_frac", slo_miss_frac, "ratio");
  }
};

constexpr double kMiB = 1024.0 * 1024.0;

// p50 over samples of one named public-call timing (absent = 0).
double LayerP50(const std::vector<Sample>& samples, const std::string& key) {
  std::vector<double> values;
  for (const Sample& s : samples) {
    auto it = s.layers.find(key);
    values.push_back(it == s.layers.end() ? 0 : it->second);
  }
  return Median(std::move(values));
}

// p50 over completed samples of a per-run quantity.
template <typename Fn>
double OkP50(const std::vector<Sample>& samples, Fn fn) {
  std::vector<double> values;
  for (const Sample& s : samples) {
    if (s.ok()) values.push_back(fn(s));
  }
  return Median(std::move(values));
}

double FailedFrac(const std::vector<Sample>& samples) {
  if (samples.empty()) return 0;
  size_t failed = 0;
  for (const Sample& s : samples) failed += s.ok() ? 0 : 1;
  return static_cast<double>(failed) / static_cast<double>(samples.size());
}

// sql.* frontend timings: p50 over the traced requests.
void FillFrontend(const std::vector<Sample>& samples, PerLayer* p) {
  p->parse_ms = LayerP50(samples, "sql.parse");
  p->bind_ms = LayerP50(samples, "sql.bind");
  p->plan_ms = LayerP50(samples, "sql.plan");
  p->compile_ms = LayerP50(samples, "sql.compile");
  p->selectivity_ms = LayerP50(samples, "plan.selectivity");
}

// Executor and simulated-clock counters: p50 over completed requests.
void FillRunCounters(const std::vector<Sample>& traced, PerLayer* p) {
  p->chunks = OkP50(traced, [](const Sample& s) { return s.chunks; });
  p->h2d_mb = OkP50(traced, [](const Sample& s) { return s.h2d_bytes / kMiB; });
  p->parallel_launches =
      OkP50(traced, [](const Sample& s) { return s.parallel_launches; });
  p->fused_launches =
      OkP50(traced, [](const Sample& s) { return s.fused_launches; });
  p->kernel_body_ms =
      OkP50(traced, [](const Sample& s) { return s.sim_kernel_body_us / 1000; });
  p->transfer_wire_ms = OkP50(
      traced, [](const Sample& s) { return s.sim_transfer_wire_us / 1000; });
}

// Span-derived layers, p50 over the traced requests' trace-clock windows
// (one request in flight at a time, so each window holds one query). Returns
// the p50 of the query:* span, the executor's run as the trace sees it.
double FillSpanLayers(const std::vector<Sample>& traced,
                      const std::vector<Span>& spans, double threads,
                      PerLayer* p) {
  std::vector<double> query, self, h2d, d2h, kernel, launches, events;
  double tile_ms = 0, parallel_kernel_ms = 0;
  for (const Sample& s : traced) {
    const SpanTotals t = AggregateSpans(spans, s.trace_begin_us, s.trace_end_us);
    query.push_back(t.query_ms);
    self.push_back(t.runtime_self_ms);
    h2d.push_back(t.h2d_ms);
    d2h.push_back(t.d2h_ms);
    kernel.push_back(t.kernel_ms);
    launches.push_back(t.launches);
    events.push_back(t.events);
    tile_ms += t.tile_ms;
    parallel_kernel_ms += t.parallel_kernel_ms;
  }
  p->self_ms = Median(self);
  p->h2d_ms = Median(h2d);
  p->d2h_ms = Median(d2h);
  p->kernel_ms = Median(kernel);
  p->launches = Median(launches);
  p->events_per_query = Median(events);
  if (parallel_kernel_ms > 0) {
    p->pool_busy_frac = tile_ms / (threads * parallel_kernel_ms);
  }
  return Median(query);
}

// Tracing overhead and failure shares over both halves of a traced run.
// Neither closed loop has a latency limit, so a request misses the SLO
// exactly when it fails.
void FillOutcomes(const std::vector<Sample>& untraced,
                  const std::vector<Sample>& traced, PerLayer* p) {
  const double untraced_p50 = LatencyPercentile(untraced, 0.5);
  if (untraced_p50 > 0) {
    p->trace_overhead_frac = LatencyPercentile(traced, 0.5) / untraced_p50 - 1;
  }
  std::vector<Sample> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  p->failed_frac = FailedFrac(all);
  p->slo_miss_frac = p->failed_frac;
  std::vector<double> request_ms;
  for (const Sample& s : traced) request_ms.push_back(s.latency_ms);
  p->request_ms = Median(std::move(request_ms));
}

// Stops the recorder, validates the export with obs::ValidateChromeTrace
// (a broken trace makes the run incorrect) and returns its spans.
std::vector<Span> FinishTrace(Report* report) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Disable();
  const std::string json = recorder.ExportChromeJson();
  const size_t dropped = recorder.dropped_events();
  recorder.Clear();
  const obs::TraceCheckResult check = obs::ValidateChromeTrace(json);
  if (!check.ok || dropped > 0) {
    std::fprintf(stderr, "bench_e2e: trace invalid (%zu dropped): %s\n",
                 dropped, check.Summary().c_str());
    report->correct = false;
  }
  return ParseCompleteSpans(json);
}

// End-to-end metrics shared by every workload.
struct EndToEnd {
  double setup_s = 0;
  double peak_rss_mb = 0;
  double latency_p50_ms = 0, latency_p95_ms = 0;
  double throughput_qps = 0;
  double sim_elapsed_ms = 0, sim_overhead_frac = 0;

  void AddTo(Report* r) const {
    r->Add("setup_s", setup_s, "s");
    r->Add("peak_rss_mb", peak_rss_mb, "MiB");
    r->Add("latency_p50_ms", latency_p50_ms, "ms");
    r->Add("latency_p95_ms", latency_p95_ms, "ms");
    r->Add("throughput_qps", throughput_qps, "1/s");
    r->Add("sim_elapsed_ms", sim_elapsed_ms, "ms");
    r->Add("sim_overhead_frac", sim_overhead_frac, "ratio");
  }
};

// Fills every end-to-end metric of a measured closed-loop phase that ran
// for `wall_s`. Peak RSS is read here, after the phase.
EndToEnd MeasuredEndToEnd(const std::vector<double>& setups,
                          const std::vector<Sample>& samples, double wall_s) {
  EndToEnd e;
  e.setup_s = Median(setups);
  e.peak_rss_mb = PeakRssMb();
  e.latency_p50_ms = LatencyPercentile(samples, 0.50);
  e.latency_p95_ms = LatencyPercentile(samples, 0.95);
  if (wall_s > 0) {
    e.throughput_qps = static_cast<double>(samples.size()) / wall_s;
  }
  double elapsed = 0, body = 0;
  size_t ok = 0;
  for (const Sample& s : samples) {
    if (!s.ok()) continue;
    ++ok;
    elapsed += s.sim_elapsed_us;
    body += s.sim_kernel_body_us;
  }
  if (ok > 0) e.sim_elapsed_ms = elapsed / 1000.0 / static_cast<double>(ok);
  if (elapsed > 0) e.sim_overhead_frac = (elapsed - body) / elapsed;
  return e;
}

void CopyRunStats(const QueryStats& stats, Sample* s) {
  s->sim_elapsed_us = static_cast<double>(stats.elapsed_us);
  s->sim_kernel_body_us = static_cast<double>(stats.kernel_body_us);
  s->sim_transfer_wire_us = static_cast<double>(stats.transfer_wire_us);
  s->chunks = static_cast<double>(stats.chunks);
  s->h2d_bytes = static_cast<double>(stats.bytes_h2d);
  s->h2d_saved_bytes = static_cast<double>(stats.bytes_h2d_saved);
  for (const DeviceRunStats& d : stats.devices) {
    s->parallel_launches += static_cast<double>(d.parallel_launches);
    s->fused_launches += static_cast<double>(d.fused_launches);
  }
}

// ---------------------------------------------------------------------------
// Oracle: each builtin's result set, verified once per seed against the
// independent host interpreter, outside every timed region.
// ---------------------------------------------------------------------------

struct Expected {
  bool verified = false;
  sql::SqlResultSet rows;
  /// Why there is no verified set: the oracle run failed (`wrong` false) or
  /// the executor disagreed with the interpreter (`wrong` true).
  std::string error;
  bool wrong = false;
};
using Oracle = std::map<std::string, Expected>;

Expected MakeExpected(const Result<sql::SqlResultSet>& results,
                      const Status& run_status, const Status& verify_status) {
  Expected e;
  if (!run_status.ok()) {
    e.error = "oracle run failed: " + run_status.ToString();
  } else if (!verify_status.ok()) {
    e.error = "interpreter mismatch: " + verify_status.ToString();
    e.wrong = true;
  } else if (!results.ok()) {
    e.error = "oracle extract failed: " + results.status().ToString();
  } else {
    e.verified = true;
    e.rows = *results;
  }
  return e;
}

// Logs the builtins without a verified set and applies the self-test hook:
// with `corrupt`, one value of the first non-empty expected set changes.
void FinishOracle(bool corrupt, Oracle* oracle) {
  for (const auto& [name, e] : *oracle) {
    if (!e.verified) {
      std::fprintf(stderr, "bench_e2e: oracle %s: %s\n", name.c_str(),
                   e.error.c_str());
    }
  }
  if (!corrupt) return;
  for (auto& [name, e] : *oracle) {
    if (e.verified && !e.rows.rows.empty() && !e.rows.rows[0].empty()) {
      sql::SqlValue& v = e.rows.rows[0][0];
      if (v.is_double) {
        v.d += 1;
      } else {
        v.i += 1;
      }
      std::fprintf(stderr, "bench_e2e: corrupted the expected set of %s\n",
                   name.c_str());
      return;
    }
  }
}

// The builtins the timed loops send: all six, minus the known defect's
// builtin when its oracle run failed with it on this seed (logged).
std::vector<std::string> TimedQueries(const Oracle& oracle) {
  std::vector<std::string> timed;
  for (const std::string& name : QueryNames()) {
    const Expected& e = oracle.at(name);
    if (!e.verified && !e.wrong && name == kKnownDefectQuery &&
        e.error.find(kKnownDefectError) != std::string::npos) {
      std::fprintf(stderr,
                   "bench_e2e: known defect: %s left out of the timed mix on "
                   "this seed: %s\n",
                   name.c_str(), e.error.c_str());
    } else {
      timed.push_back(name);
    }
  }
  return timed;
}

// Classifies a request that returned `results` against the oracle.
void Check(const Oracle& oracle, const sql::SqlResultSet& results, Sample* s) {
  s->completed = true;
  auto it = oracle.find(s->query);
  if (it == oracle.end() || !it->second.verified) {
    const std::string why =
        it == oracle.end() ? "no oracle entry" : it->second.error;
    if (it != oracle.end() && it->second.wrong) {
      s->mismatch = true;
      s->error = why;
    } else {
      s->completed = false;  // cannot be checked: counts as failed
      s->error = "unverifiable: " + why;
    }
    return;
  }
  if (results.column_names != it->second.rows.column_names ||
      results.rows != it->second.rows.rows) {
    s->mismatch = true;
    s->error = "differs from the verified result set (" +
               std::to_string(results.rows.size()) + " vs " +
               std::to_string(it->second.rows.rows.size()) + " rows)";
  }
}

// Frontend breakdown of one compile: Lex+Parse, Bind, PlanQuery, and a
// standalone plan::AnnotateSelectivities at the planner's stride.
void FrontendBreakdown(const std::string& text, const Catalog& catalog,
                       const sql::PlannerOptions& options, LayerTimes* out) {
  Clock::time_point t = Clock::now();
  auto stmt = sql::Parse(text);
  (*out)["sql.parse"] = MsSince(t);
  if (!stmt.ok()) return;
  t = Clock::now();
  auto bound = sql::Bind(**stmt, catalog);
  (*out)["sql.bind"] = MsSince(t);
  if (!bound.ok()) return;
  t = Clock::now();
  auto compiled = sql::PlanQuery(std::move(*bound), catalog, options);
  (*out)["sql.plan"] = MsSince(t);
  if (!compiled.ok()) return;
  t = Clock::now();
  auto annotated =
      plan::AnnotateSelectivities(*compiled->plan, catalog, options.sample_every);
  (*out)["plan.selectivity"] = MsSince(t);
}

// Shuffled rounds over the timed queries: every query equally often, order
// drawn from the seed.
class RoundRobin {
 public:
  RoundRobin(uint64_t seed, std::vector<std::string> queries)
      : rng_(seed * 0x9E3779B97F4A7C15ULL + 7), queries_(std::move(queries)) {
    ADAMANT_CHECK(!queries_.empty()) << "no query left to time";
  }
  size_t excluded() const { return QueryNames().size() - queries_.size(); }
  const std::string& Next() {
    if (pos_ == order_.size()) {
      order_ = queries_;
      std::shuffle(order_.begin(), order_.end(), rng_);
      pos_ = 0;
    }
    return order_[pos_++];
  }

 private:
  std::mt19937_64 rng_;
  std::vector<std::string> queries_;
  std::vector<std::string> order_;
  size_t pos_ = 0;
};

std::shared_ptr<Catalog> GenerateCatalog(uint64_t seed, double* seconds) {
  const Clock::time_point t = Clock::now();
  tpch::TpchConfig config;
  config.scale_factor = kSf;
  config.seed = seed;
  auto catalog = tpch::Generate(config);
  ADAMANT_CHECK(catalog.ok()) << catalog.status().ToString();
  *seconds = MsSince(t) / 1000.0;
  return *catalog;
}

std::unique_ptr<DeviceManager> MakeManager(int gpus) {
  auto manager = std::make_unique<DeviceManager>(sim::HardwareSetup::kSetup1);
  manager->SetDataScale(kNominalSf / kSf);
  for (int i = 0; i < gpus; ++i) {
    const std::string name =
        gpus == 1 ? "cuda_gpu" : "cuda_gpu" + std::to_string(i);
    auto device = manager->AddDriver(sim::DriverKind::kCudaGpu, name);
    ADAMANT_CHECK(device.ok()) << device.status().ToString();
    ADAMANT_CHECK(BindStandardKernels(manager->device(*device)).ok());
  }
  return manager;
}

// Runs `one_request` back to back for `seconds`. Each call fills the sample
// (query already set) and returns the request's results or error; its
// latency is taken around the call. The oracle check runs after the
// request. With `traced`, the request's trace-clock window is stamped and
// the frontend breakdown runs after it, outside the window.
template <typename Request>
std::vector<Sample> ClosedLoop(const Oracle& oracle, RoundRobin* order,
                               double seconds, bool traced,
                               const Catalog& catalog,
                               const sql::PlannerOptions& planner,
                               Request one_request, double* wall_s) {
  std::vector<Sample> samples;
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  const Clock::time_point begin = Clock::now();
  const Clock::time_point deadline =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point end = begin;
  while (Clock::now() < deadline) {
    Sample s;
    s.query = order->Next();
    if (traced) s.trace_begin_us = recorder.NowUs();
    const Clock::time_point t = Clock::now();
    const Result<sql::SqlResultSet> results = one_request(&s);
    end = Clock::now();
    s.latency_ms = MsBetween(t, end);
    if (results.ok()) {
      Check(oracle, *results, &s);
    } else {
      s.error = results.status().ToString();
    }
    if (traced) {
      s.trace_end_us = recorder.NowUs();
      FrontendBreakdown(SqlText(s.query), catalog, planner, &s.layers);
    }
    samples.push_back(std::move(s));
  }
  *wall_s = MsBetween(begin, end) / 1000.0;
  return samples;
}

// ===========================================================================
// adhoc_sql: fresh compile per request on one simulated GPU.
// ===========================================================================

struct AdhocEngine {
  std::shared_ptr<Catalog> catalog;
  std::unique_ptr<DeviceManager> manager;
  DeviceId device = 0;
  ExecutionOptions options;
  sql::PlannerOptions planner;
  double generate_s = 0;
};

// Everything one request produced, kept for the oracle run.
struct RequestState {
  std::optional<sql::CompiledQuery> compiled;
  plan::PlanBundle bundle;
  std::optional<QueryExecution> exec;
  Result<sql::SqlResultSet> results = Status::Internal("not run");
};

// The request path: sql::Compile -> plan::LowerPlan -> plan::ApplyFusion
// -> SuggestChunkElems -> QueryExecutor::Run -> sql::ExtractResults.
Status RunRequest(AdhocEngine& e, const std::string& name, Sample* s,
                  RequestState* st) {
  LayerTimes& layers = s->layers;
  Clock::time_point t = Clock::now();
  auto compiled = sql::Compile(SqlText(name), *e.catalog, e.planner);
  layers["sql.compile"] = MsSince(t);
  ADAMANT_RETURN_NOT_OK(compiled.status());
  st->compiled = std::move(*compiled);

  t = Clock::now();
  auto bundle = plan::LowerPlan(*st->compiled->plan, *e.catalog, e.device);
  layers["plan.lower"] = MsSince(t);
  ADAMANT_RETURN_NOT_OK(bundle.status());
  st->bundle = std::move(*bundle);

  ExecutionOptions options = e.options;
  t = Clock::now();
  auto fusion = plan::ApplyFusion(&st->bundle, options, e.manager.get());
  layers["plan.fuse"] = MsSince(t);
  ADAMANT_RETURN_NOT_OK(fusion.status());
  s->fused_groups = fusion->groups;

  t = Clock::now();
  auto chunk =
      SuggestChunkElems(*e.manager->device(e.device), *st->bundle.graph);
  layers["runtime.chunk_tune"] = MsSince(t);
  ADAMANT_RETURN_NOT_OK(chunk.status());
  options.chunk_elems = *chunk;

  QueryExecutor executor(e.manager.get());
  t = Clock::now();
  auto exec = executor.Run(st->bundle.graph.get(), options);
  layers["runtime.run"] = MsSince(t);
  ADAMANT_RETURN_NOT_OK(exec.status());
  st->exec = std::move(*exec);
  CopyRunStats(st->exec->stats, s);

  t = Clock::now();
  st->results = sql::ExtractResults(*st->compiled, st->bundle, *st->exec);
  layers["sql.extract"] = MsSince(t);
  return st->results.status();
}

std::unique_ptr<AdhocEngine> SetupAdhoc(const Args& args) {
  auto e = std::make_unique<AdhocEngine>();
  e->catalog = GenerateCatalog(args.seed, &e->generate_s);
  e->manager = MakeManager(/*gpus=*/1);
  e->options.model = ExecutionModelKind::kChunked;
  e->options.fusion = FusionMode::kAuto;
  e->planner.manager = e->manager.get();
  e->planner.cost_device = e->device;
  // Warm-up: one request per query (errors are the measured phase's to
  // report).
  for (const std::string& name : QueryNames()) {
    Sample s;
    RequestState st;
    (void)RunRequest(*e, name, &s, &st);
  }
  return e;
}

Oracle BuildAdhocOracle(AdhocEngine& e, bool corrupt) {
  Oracle oracle;
  for (const std::string& name : QueryNames()) {
    Sample s;
    RequestState st;
    const Status run = RunRequest(e, name, &s, &st);
    Status verify = Status::OK();
    if (run.ok()) {
      verify = sql::VerifyAgainstInterpreter(*st.compiled, st.bundle, *st.exec,
                                             *e.catalog);
    }
    oracle[name] = MakeExpected(st.results, run, verify);
  }
  FinishOracle(corrupt, &oracle);
  return oracle;
}

std::vector<Sample> AdhocLoop(AdhocEngine& e, const Oracle& oracle,
                              RoundRobin* order, double seconds, bool traced,
                              double* wall_s) {
  return ClosedLoop(
      oracle, order, seconds, traced, *e.catalog, e.planner,
      [&](Sample* s) -> Result<sql::SqlResultSet> {
        RequestState st;
        const Status status = RunRequest(e, s->query, s, &st);
        if (!status.ok()) return status;
        return std::move(st.results);
      },
      wall_s);
}

const char* const kRequestLayers[] = {"sql.compile", "plan.lower",
                                      "plan.fuse",   "runtime.chunk_tune",
                                      "runtime.run", "sql.extract"};

void RunAdhoc(const Args& args, Report* report) {
  if (!args.trace) {
    std::vector<double> setups;
    std::unique_ptr<AdhocEngine> engine;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      engine.reset();
      const Clock::time_point t = Clock::now();
      engine = SetupAdhoc(args);
      setups.push_back(MsSince(t) / 1000.0);
    }
    const Oracle oracle = BuildAdhocOracle(*engine, args.corrupt_oracle);
    RoundRobin order(args.seed, TimedQueries(oracle));
    double wall_s = 0;
    const std::vector<Sample> samples =
        AdhocLoop(*engine, oracle, &order, args.seconds, false, &wall_s);
    CountOutcomes(samples, report);
    MeasuredEndToEnd(setups, samples, wall_s).AddTo(report);
    return;
  }

  // Traced run: half the time untraced (the overhead baseline), half traced.
  std::unique_ptr<AdhocEngine> engine = SetupAdhoc(args);
  const Oracle oracle = BuildAdhocOracle(*engine, args.corrupt_oracle);
  RoundRobin order(args.seed, TimedQueries(oracle));
  double wall_s = 0;
  const std::vector<Sample> untraced =
      AdhocLoop(*engine, oracle, &order, args.seconds / 2, false, &wall_s);
  obs::TraceRecorder::Global().Enable();
  const std::vector<Sample> traced =
      AdhocLoop(*engine, oracle, &order, args.seconds / 2, true, &wall_s);
  const std::vector<Span> spans = FinishTrace(report);

  CountOutcomes(untraced, report);
  CountOutcomes(traced, report);

  PerLayer p;
  p.generate_s = engine->generate_s;
  p.known_defect_queries = static_cast<double>(order.excluded());
  FillFrontend(traced, &p);
  p.lower_ms = LayerP50(traced, "plan.lower");
  p.fuse_ms = LayerP50(traced, "plan.fuse");
  p.chunk_tune_ms = LayerP50(traced, "runtime.chunk_tune");
  p.run_ms = LayerP50(traced, "runtime.run");
  p.extract_ms = LayerP50(traced, "sql.extract");
  p.fused_groups = OkP50(traced, [](const Sample& s) { return s.fused_groups; });
  FillRunCounters(traced, &p);
  FillSpanLayers(traced, spans,
                 engine->manager->device(engine->device)->kernel_threads(), &p);

  double covered = 0, frontend = 0, total = 0;
  for (const Sample& s : traced) {
    total += s.latency_ms;
    for (const char* key : kRequestLayers) {
      auto it = s.layers.find(key);
      if (it != s.layers.end()) covered += it->second;
    }
    auto it = s.layers.find("sql.compile");
    if (it != s.layers.end()) frontend += it->second;
  }
  if (total > 0) {
    p.layer_coverage_frac = covered / total;
    p.frontend_frac = frontend / total;
  }
  FillOutcomes(untraced, traced, &p);
  p.AddTo(report);
}

// ===========================================================================
// served_sql: SQL text into a QueryService over two simulated GPUs.
// ===========================================================================

struct ServedEngine {
  std::shared_ptr<Catalog> catalog;
  std::unique_ptr<DeviceManager> manager;
  sql::PlannerOptions planner;
  /// Each builtin compiled and lowered once at set-up, with the planner
  /// options the service's SQL path uses: the deterministic lowering's named
  /// sinks extract every serviced execution of that query.
  std::map<std::string, sql::CompiledQuery> compiled;
  std::map<std::string, plan::PlanBundle> reference;
  double generate_s = 0;
  /// Declared last so it stops before everything above is destroyed.
  std::unique_ptr<QueryService> service;
};

QuerySpec SqlSpec(const ServedEngine& e, const std::string& name) {
  QuerySpec spec;
  spec.name = name;
  spec.sql = SqlText(name);
  spec.sql_catalog = e.catalog.get();
  return spec;
}

// Operator stats and the selectivity feedback they feed are off, so every
// service-side compile yields the plan the reference bundle was lowered
// from, and results extract by the same node names.
std::unique_ptr<ServedEngine> SetupServed(const Args& args) {
  auto e = std::make_unique<ServedEngine>();
  e->catalog = GenerateCatalog(args.seed, &e->generate_s);
  e->manager = MakeManager(/*gpus=*/2);
  e->planner.manager = e->manager.get();
  ServiceConfig config;
  config.workers = 2;
  config.slots_per_device = 1;
  config.enable_cache = true;
  config.collect_operator_stats = false;
  e->service = std::make_unique<QueryService>(e->manager.get(), config);

  for (const std::string& name : QueryNames()) {
    auto compiled = sql::Compile(SqlText(name), *e->catalog, e->planner);
    ADAMANT_CHECK(compiled.ok()) << name << ": " << compiled.status().ToString();
    auto bundle = plan::LowerPlan(*compiled->plan, *e->catalog, 0);
    ADAMANT_CHECK(bundle.ok()) << name << ": " << bundle.status().ToString();
    e->reference.emplace(name, std::move(*bundle));
    e->compiled.emplace(name, std::move(*compiled));
  }
  // Warm-up: every query on every device, from the stored plans, so each
  // device's column cache holds what the mix scans.
  for (int round = 0; round < 2; ++round) {
    for (DeviceId device = 0;
         device < static_cast<DeviceId>(e->manager->num_devices()); ++device) {
      for (const std::string& name : QueryNames()) {
        QuerySpec spec;
        spec.name = name;
        spec.eligible_devices = {device};
        spec.make_graph = [plan = e->compiled.at(name).plan,
                           cat = e->catalog.get()](DeviceId d)
            -> Result<std::unique_ptr<PrimitiveGraph>> {
          ADAMANT_ASSIGN_OR_RETURN(plan::PlanBundle bundle,
                                   plan::LowerPlan(*plan, *cat, d));
          return std::move(bundle.graph);
        };
        auto ticket = e->service->Submit(std::move(spec));
        if (ticket.ok()) (void)(*ticket)->Wait();
      }
    }
  }
  return e;
}

// One served request: Submit the SQL text, wait for the ticket, extract.
// Returns the extracted results (or the error); `ticket_out` receives the
// ticket when Submit accepted the request.
Result<sql::SqlResultSet> ServeRequest(
    ServedEngine& e, Sample* s, std::shared_ptr<QueryTicket>* ticket_out) {
  Clock::time_point t = Clock::now();
  auto ticket = e.service->Submit(SqlSpec(e, s->query));
  s->submit_ms = MsSince(t);
  if (!ticket.ok()) {
    return Status(ticket.status().code(),
                  "refused: " + ticket.status().message());
  }
  *ticket_out = *ticket;
  const Result<QueryExecution>& exec = (*ticket)->Wait();
  s->queue_wait_ms = (*ticket)->queue_wait_ms();
  s->run_ms = (*ticket)->run_ms();
  ADAMANT_RETURN_NOT_OK(exec.status());
  CopyRunStats(exec->stats, s);
  t = Clock::now();
  auto results = sql::ExtractResults(e.compiled.at(s->query),
                                     e.reference.at(s->query), *exec);
  s->layers["sql.extract"] = MsSince(t);
  return results;
}

Oracle BuildServedOracle(ServedEngine& e, bool corrupt) {
  Oracle oracle;
  for (const std::string& name : QueryNames()) {
    Sample s;
    s.query = name;
    std::shared_ptr<QueryTicket> ticket;
    const Result<sql::SqlResultSet> results = ServeRequest(e, &s, &ticket);
    Status run = results.status(), verify = Status::OK();
    if (ticket != nullptr && ticket->Wait().ok()) {
      run = Status::OK();
      verify = sql::VerifyAgainstInterpreter(e.compiled.at(name),
                                             e.reference.at(name),
                                             *ticket->Wait(), *e.catalog);
    }
    oracle[name] = MakeExpected(results, run, verify);
  }
  FinishOracle(corrupt, &oracle);
  return oracle;
}

std::vector<Sample> ServedLoop(ServedEngine& e, const Oracle& oracle,
                               RoundRobin* order, double seconds, bool traced,
                               double* wall_s) {
  return ClosedLoop(
      oracle, order, seconds, traced, *e.catalog, e.planner,
      [&](Sample* s) {
        std::shared_ptr<QueryTicket> ticket;
        return ServeRequest(e, s, &ticket);
      },
      wall_s);
}

void RunServed(const Args& args, Report* report) {
  double wall_s = 0;
  if (!args.trace) {
    std::vector<double> setups;
    std::unique_ptr<ServedEngine> engine;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      engine.reset();
      const Clock::time_point t = Clock::now();
      engine = SetupServed(args);
      setups.push_back(MsSince(t) / 1000.0);
    }
    const Oracle oracle = BuildServedOracle(*engine, args.corrupt_oracle);
    RoundRobin order(args.seed, TimedQueries(oracle));
    const std::vector<Sample> samples =
        ServedLoop(*engine, oracle, &order, args.seconds, false, &wall_s);
    CountOutcomes(samples, report);
    MeasuredEndToEnd(setups, samples, wall_s).AddTo(report);
    engine->service->Stop();
    return;
  }

  std::unique_ptr<ServedEngine> engine = SetupServed(args);
  const Oracle oracle = BuildServedOracle(*engine, args.corrupt_oracle);
  RoundRobin order(args.seed, TimedQueries(oracle));
  const std::vector<Sample> untraced =
      ServedLoop(*engine, oracle, &order, args.seconds / 2, false, &wall_s);
  const ServiceStats before = engine->service->GetStats();
  obs::TraceRecorder::Global().Enable();
  const std::vector<Sample> traced =
      ServedLoop(*engine, oracle, &order, args.seconds / 2, true, &wall_s);
  const ServiceStats after = engine->service->GetStats();
  engine->service->Stop();
  const std::vector<Span> spans = FinishTrace(report);

  CountOutcomes(untraced, report);
  CountOutcomes(traced, report);

  PerLayer p;
  p.generate_s = engine->generate_s;
  p.known_defect_queries = static_cast<double>(order.excluded());
  // The service compiles inside Submit, out of the benchmark's reach, so
  // sql.compile is the sum of the breakdown's parts, and plan.lower (inside
  // the service's SQL path) stays 0.
  std::vector<Sample> frontend = traced;
  for (Sample& s : frontend) {
    s.layers["sql.compile"] =
        s.layers["sql.parse"] + s.layers["sql.bind"] + s.layers["sql.plan"];
  }
  FillFrontend(frontend, &p);
  p.extract_ms = LayerP50(traced, "sql.extract");
  FillRunCounters(traced, &p);
  p.run_ms = FillSpanLayers(traced, spans,
                            engine->manager->device(0)->kernel_threads(), &p);

  std::vector<double> submit, wait, run;
  double covered = 0, total = 0, busy = 0, saved = 0, compile = 0;
  for (size_t i = 0; i < traced.size(); ++i) {
    const Sample& s = traced[i];
    submit.push_back(s.submit_ms);
    wait.push_back(s.queue_wait_ms);
    run.push_back(s.run_ms);
    auto extract = s.layers.find("sql.extract");
    covered += s.submit_ms + s.queue_wait_ms + s.run_ms +
               (extract == s.layers.end() ? 0 : extract->second);
    total += s.latency_ms;
    busy += s.run_ms;
    saved += s.h2d_saved_bytes;
    compile += frontend[i].layers["sql.compile"];
  }
  p.submit_ms = Median(submit);
  p.queue_wait_p50_ms = Percentile(wait, 0.50);
  p.queue_wait_p99_ms = Percentile(wait, 0.99);
  p.service_run_p50_ms = Median(run);
  if (total > 0) {
    p.layer_coverage_frac = covered / total;
    p.frontend_frac = compile / total;
  }
  const double n = std::max<double>(1.0, static_cast<double>(traced.size()));
  p.h2d_saved_mb = saved / kMiB / n;
  const double devices = static_cast<double>(engine->manager->num_devices());
  if (wall_s > 0) p.device_busy_frac = busy / (devices * wall_s * 1000.0);
  const double hits =
      static_cast<double>(after.cache.hits - before.cache.hits);
  const double lookups =
      hits + static_cast<double>(after.cache.misses - before.cache.misses) +
      static_cast<double>(after.cache.bypasses - before.cache.bypasses);
  if (lookups > 0) p.cache_hit_frac = hits / lookups;
  p.retries = static_cast<double>(after.retries - before.retries);
  p.budget_deferrals =
      static_cast<double>(after.budget_deferrals - before.budget_deferrals);
  FillOutcomes(untraced, traced, &p);
  p.AddTo(report);
}

}  // namespace

void RunWorkload(const Args& args, Report* report) {
  if (args.workload == "adhoc_sql") {
    RunAdhoc(args, report);
  } else {
    RunServed(args, report);
  }
}

}  // namespace adamant::bench_e2e
