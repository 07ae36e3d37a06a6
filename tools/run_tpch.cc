// run_tpch — command-line front end for the whole stack: generate or load
// TPC-H data, pick a driver/setup/execution model, run queries, verify
// against the scalar references, and optionally dump a chrome trace.
//
//   run_tpch --query=6 --sf=0.02 --nominal-sf=30 --driver=cuda_gpu
//            --model=4phase --chunk=auto --verify --trace=/tmp/q6.json
//
// Flags:
//   --query=N         a query-registry name (sql/prepare.h): 1, 3, 4, 5, 6,
//                     10, 12, 14, or "all" (default: all). 1/4/6 compile
//                     their SQL builtins; the others run hand-built plans
//   --sf=F            generated scale factor (default 0.01)
//   --nominal-sf=F    emulated scale factor for the cost model (default: sf)
//   --tbl-dir=PATH    load dbgen .tbl files instead of generating
//   --driver=NAME     cuda_gpu | opencl_gpu | opencl_cpu | openmp_cpu
//   --setup=1|2       hardware setup (Table II)
//   --model=NAME      oaat | chunked | pipelined | 4phase | 4phase-pipelined
//                     | device-parallel
//   --chunk=N|auto    chunk size in nominal elements (default 2^25); auto
//                     = SuggestChunkElems on the prepared graph
//   --kernel-variant=auto|scalar|parallel
//                     Task-layer kernel variant: auto = per-device policy
//                     (CPU drivers run the worker-pool parallel variants
//                     natively, GPU drivers scalar); scalar/parallel force
//                     one variant. The chosen variant + thread count per
//                     device is reported as a JSON line.
//   --kernel-threads=N
//                     thread budget for parallel variants (default: the
//                     device policy count, 4 on CPU drivers)
//   --fusion=off|on|auto
//                     plan-level kernel fusion (src/plan/fusion.h): rewrite
//                     fusable MAP/FILTER/MATERIALIZE/AGG chains into single
//                     FUSED composites before execution. off = never, on =
//                     every eligible group, auto (default) = only when the
//                     device cost model predicts a win. Fused group count
//                     and per-device fused launches appear on the JSON
//                     report line; --explain shows the fused plan.
//   --verify          compare results against the scalar reference
//   --trace=PATH      write a chrome://tracing JSON of the real run: the
//                     query is routed through a one-off QueryService so the
//                     trace carries service admission/placement events plus
//                     per-device pipeline/chunk/kernel/transfer spans
//                     (docs/observability.md; validate with check_trace)
//   --sim-trace=PATH  write the simulated-hardware timeline trace instead
//                     (device clock, not wall clock)
//   --profile         print the per-query phase profile as a JSON line
//                     (time in transfer/compute/merge per device/pipeline)
//   --metrics=PATH    after the run, dump the metrics registries to PATH as
//                     Prometheus text (or JSON when PATH ends in .json)
//   --explain         print the prepared (fused) primitive graph — after the
//                     compiled plan for SQL — and exit
//   --explain-analyze run the query with per-operator stats collection and
//                     print the measured OperatorStats tree next to the
//                     planner's predictions: rows / selectivity / cost share
//                     per primitive with q-error columns (Leis et al.), plus
//                     kernel wall ms split by variant. Results stay
//                     bit-identical to a plain run (--verify still checks).
//                     Observed q-errors are recorded into the
//                     adamant_plan_qerror_{selectivity,cost} histograms
//                     (visible via --metrics). docs/observability.md.
//
// SQL frontend (src/sql/, docs/sql.md):
//
//   run_tpch --sql=q6 --verify          # run a built-in by name
//   run_tpch --sql="SELECT ..." --explain
//   run_tpch --sql-file=query.sql
//
//   --sql=TEXT        run a SQL query: TEXT is a built-in name from
//                     --list-queries, or literal SQL; a --query name is
//                     rejected (exit 2). With --explain,
//                     prints the bound/annotated plan, pushed-down
//                     predicates, costed join orders and the chosen device
//                     placement instead of running. With --verify, the
//                     result is cross-checked against the host interpreter.
//   --sql-file=PATH   like --sql, reading the query text from PATH
//   --list-queries    print every built-in query name + SQL text and exit
//   --devices=LIST    (single-query mode) comma-separated device ids, e.g.
//                     --devices=0,1: plugs that many instances of --driver
//                     and runs the query device-parallel across them,
//                     reporting the per-device chunk split and host merge
//                     time as a JSON line. A bare count N means 0..N-1.
//                     Driver names build a mixed-class set instead:
//                     --devices=cuda_gpu,openmp_cpu plugs one device per
//                     named class and splits the chunk range across the
//                     heterogeneous pair by cost ratio.
//   --split=LIST      (single-query mode, device-parallel) explicit split
//                     shares, one per --devices entry (any positive scale,
//                     e.g. --split=3,1); overrides the cost-model ratios.
//   --no-rebalance    disable runtime chunk stealing between partitions
//                     (the static split ratio is final)
//
// Serve mode (the service layer of src/service/): replays a seeded mixed
// workload of registry queries 3/4/6 through the QueryService scheduler
// (4 and 6 as QuerySpec::sql text, 3 through make_graph), verifies every
// result against a serial unfused run, and prints aggregate ServiceStats as
// JSON:
//
//   run_tpch --serve --clients=4 --queries=50 --seed=7 --devices=2
//
//   --serve           enable serve mode
//   --clients=N       concurrent worker threads (default 4)
//   --queries=N       workload size (default 50)
//   --seed=N          workload RNG seed (default 7)
//   --devices=N       instances of --driver to plug (default 2)
//   --no-cache        disable the cross-query device column cache
//   --history=PATH    after the workload drains, dump the service's bounded
//                     query-history ring (slow queries keep their full
//                     EXPLAIN ANALYZE operator tree) plus the selectivity
//                     feedback cache as JSON to PATH (docs/serving.md)
//
// Fault injection (serve mode; see docs/serving.md "Fault handling"):
//
//   run_tpch --serve --queries=200 --fault-rate=0.007 --fault-seed=13
//
//   --fault-rate=P    per-call transient fault probability on each serving
//                     device's data-path interface calls (default 0 = off)
//   --fault-seed=N    fault RNG seed; device i uses N + i (default 13)
//   --sticky-device=I device I dies on its first Execute and stays dead
//   --stall-ms=F      with --sticky-device: the device stalls every Execute
//                     for F wall-clock ms instead of failing (a chronic
//                     straggler — pair with --watchdog-factor)
//
// Deadlines and load shedding (serve mode; see docs/serving.md):
//
//   run_tpch --serve --queries=100 --deadline-ms=200 --watchdog-factor=3
//
//   --deadline-ms=F       per-query deadline; unmeetable queries are shed at
//                         admission, lapsed ones evicted or cancelled
//   --priority=normal|high  admission priority class of the workload
//   --watchdog-factor=F   cancel runs exceeding F x predicted cost and
//                         quarantine the device (0 = off)
//
// Exit codes: 0 success; 1 hard failure; 2 bad arguments; 3 = some served
// queries were shed / cancelled / failed — details on the machine-readable
// "serve_errors:" JSON line.
//                     until quarantined (default -1 = none)
//   --sequential      submit one query at a time (wait for each before the
//                     next): fixes the device call order so two same-seed
//                     runs report identical failure counters

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "adamant/adamant.h"
#include "tpch/tbl_schemas.h"

namespace adamant {
namespace {

struct Options {
  std::string query = "all";
  double sf = 0.01;
  double nominal_sf = -1;
  std::string tbl_dir;
  std::string driver = "cuda_gpu";
  int setup = 1;
  std::string model = "chunked";
  /// Chunk size in nominal elements; 0 = auto (resolved by sql::Prepare).
  size_t chunk_elems = size_t{1} << 25;
  /// Task-layer kernel variant: auto (per-device policy) | scalar | parallel.
  std::string kernel_variant = "auto";
  /// Thread budget for parallel variants; 0 = per-device policy count.
  int kernel_threads = 0;
  /// Plan-level kernel fusion: off | on | auto (cost-gated).
  std::string fusion = "auto";
  bool verify = false;
  std::string trace_path;
  std::string sim_trace_path;
  bool profile = false;
  std::string metrics_path;
  bool explain = false;
  /// EXPLAIN ANALYZE: collect per-operator stats and print the predicted
  /// vs measured tree with q-error columns after the run.
  bool explain_analyze = false;
  /// Serve mode: dump the service query-history ring + feedback cache here.
  std::string history_path;
  /// SQL frontend: --sql (builtin name or literal text), --sql-file.
  std::string sql;
  std::string sql_file;
  bool list_queries = false;
  bool serve = false;
  size_t clients = 4;
  size_t serve_queries = 50;
  unsigned seed = 7;
  size_t devices = 2;
  /// Single-query mode: parsed --devices list (kDeviceParallel partition
  /// set). Empty = the flag was absent or serve mode owns it.
  std::vector<DeviceId> device_set;
  /// Single-query mode: driver-class names from a non-numeric --devices
  /// list (mixed heterogeneous set); parallel to device_set when non-empty.
  std::vector<std::string> device_classes;
  /// --split: explicit per-device shares, parallel to device_set.
  std::vector<double> device_split;
  /// --no-rebalance: freeze the static split (no chunk stealing).
  bool no_rebalance = false;
  bool no_cache = false;
  double fault_rate = 0;
  uint64_t fault_seed = 13;
  int sticky_device = -1;
  bool sequential = false;
  /// Serve-mode SLO knobs (docs/serving.md "Deadlines, cancellation, and
  /// load shedding"): per-query deadline (0 = none), priority class, and
  /// watchdog factor (0 = watchdog off).
  double deadline_ms = 0;
  QueryPriority priority = QueryPriority::kNormal;
  double watchdog_factor = 0;
  /// With --sticky-device: the device *stalls* each Execute for this many
  /// wall-clock ms instead of failing — a chronic straggler for the
  /// watchdog, rather than a crasher for the retry path.
  double stall_ms = 0;
};

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

// Parses all of `value` as a number; anything else is an argument error,
// so a typo exits 2 instead of aborting.
template <typename T>
Status ParseNumber(const std::string& arg, const std::string& value, T* out) {
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, *out);
  if (value.empty() || ec != std::errc() || ptr != end) {
    return Status::InvalidArgument("bad number in '" + arg + "'");
  }
  return Status::OK();
}

// Splits a comma-separated list, dropping empty tokens.
std::vector<std::string> SplitList(const std::string& value) {
  std::vector<std::string> tokens;
  size_t pos = 0;
  while (pos <= value.size()) {
    const size_t comma = value.find(',', pos);
    const std::string tok =
        value.substr(pos, comma == std::string::npos ? std::string::npos
                                                     : comma - pos);
    if (!tok.empty()) tokens.push_back(tok);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return tokens;
}

Result<Options> ParseArgs(int argc, char** argv) {
  Options options;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (ParseFlag(arg, "query", &value)) {
      if (value != "all" && sql::FindRegisteredQuery(value) == nullptr) {
        return Status::InvalidArgument("unknown query '" + value + "'");
      }
      options.query = value;
    } else if (ParseFlag(arg, "sf", &value)) {
      ADAMANT_RETURN_NOT_OK(ParseNumber(arg, value, &options.sf));
    } else if (ParseFlag(arg, "nominal-sf", &value)) {
      ADAMANT_RETURN_NOT_OK(ParseNumber(arg, value, &options.nominal_sf));
    } else if (ParseFlag(arg, "tbl-dir", &value)) {
      options.tbl_dir = value;
    } else if (ParseFlag(arg, "driver", &value)) {
      options.driver = value;
    } else if (ParseFlag(arg, "setup", &value)) {
      ADAMANT_RETURN_NOT_OK(ParseNumber(arg, value, &options.setup));
    } else if (ParseFlag(arg, "model", &value)) {
      // Knob strings are validated here, through the same parsers the
      // runtime's ValidateExecutionOptions uses, so a typo exits 2 with the
      // parser's message instead of failing mid-run.
      ADAMANT_RETURN_NOT_OK(ParseExecutionModel(value).status());
      options.model = value;
    } else if (ParseFlag(arg, "chunk", &value)) {
      options.chunk_elems = 0;
      if (value != "auto") {
        ADAMANT_RETURN_NOT_OK(ParseNumber(arg, value, &options.chunk_elems));
        if (options.chunk_elems == 0) {
          return Status::InvalidArgument("--chunk must be positive or auto");
        }
      }
    } else if (ParseFlag(arg, "kernel-variant", &value)) {
      ADAMANT_RETURN_NOT_OK(ParseKernelVariant(value).status());
      options.kernel_variant = value;
    } else if (ParseFlag(arg, "kernel-threads", &value)) {
      ADAMANT_RETURN_NOT_OK(ParseNumber(arg, value, &options.kernel_threads));
    } else if (ParseFlag(arg, "fusion", &value)) {
      ADAMANT_RETURN_NOT_OK(ParseFusionMode(value).status());
      options.fusion = value;
    } else if (ParseFlag(arg, "trace", &value)) {
      options.trace_path = value;
    } else if (ParseFlag(arg, "sim-trace", &value)) {
      options.sim_trace_path = value;
    } else if (ParseFlag(arg, "metrics", &value)) {
      options.metrics_path = value;
    } else if (arg == "--profile") {
      options.profile = true;
    } else if (ParseFlag(arg, "clients", &value)) {
      ADAMANT_RETURN_NOT_OK(ParseNumber(arg, value, &options.clients));
    } else if (ParseFlag(arg, "queries", &value)) {
      ADAMANT_RETURN_NOT_OK(ParseNumber(arg, value, &options.serve_queries));
    } else if (ParseFlag(arg, "seed", &value)) {
      ADAMANT_RETURN_NOT_OK(ParseNumber(arg, value, &options.seed));
    } else if (ParseFlag(arg, "devices", &value)) {
      // Comma-separated ids select a device-parallel partition set; a bare
      // count keeps the serve-mode meaning (N instances) and, in
      // single-query mode, expands to ids 0..N-1. Driver-class names
      // (--devices=cuda_gpu,openmp_cpu) plug a mixed heterogeneous set.
      if (value.find(',') != std::string::npos ||
          (!value.empty() && !std::isdigit(static_cast<unsigned char>(
                                 value.front())))) {
        const std::vector<std::string> tokens = SplitList(value);
        const bool named =
            !tokens.empty() &&
            !std::isdigit(static_cast<unsigned char>(tokens.front().front()));
        for (size_t t = 0; t < tokens.size(); ++t) {
          DeviceId id = static_cast<DeviceId>(t);
          if (named) {
            options.device_classes.push_back(tokens[t]);
          } else {
            ADAMANT_RETURN_NOT_OK(ParseNumber(arg, tokens[t], &id));
          }
          options.device_set.push_back(id);
        }
        options.devices = options.device_set.size();
      } else {
        ADAMANT_RETURN_NOT_OK(ParseNumber(arg, value, &options.devices));
        for (size_t d = 0; d < options.devices; ++d) {
          options.device_set.push_back(static_cast<DeviceId>(d));
        }
      }
    } else if (ParseFlag(arg, "split", &value)) {
      for (const std::string& tok : SplitList(value)) {
        double share = 0;
        ADAMANT_RETURN_NOT_OK(ParseNumber(arg, tok, &share));
        options.device_split.push_back(share);
      }
    } else if (arg == "--no-rebalance") {
      options.no_rebalance = true;
    } else if (ParseFlag(arg, "fault-rate", &value)) {
      ADAMANT_RETURN_NOT_OK(ParseNumber(arg, value, &options.fault_rate));
    } else if (ParseFlag(arg, "fault-seed", &value)) {
      ADAMANT_RETURN_NOT_OK(ParseNumber(arg, value, &options.fault_seed));
    } else if (ParseFlag(arg, "sticky-device", &value)) {
      ADAMANT_RETURN_NOT_OK(ParseNumber(arg, value, &options.sticky_device));
    } else if (ParseFlag(arg, "deadline-ms", &value)) {
      ADAMANT_RETURN_NOT_OK(ParseNumber(arg, value, &options.deadline_ms));
    } else if (ParseFlag(arg, "priority", &value)) {
      if (value == "high") {
        options.priority = QueryPriority::kHigh;
      } else if (value == "normal") {
        options.priority = QueryPriority::kNormal;
      } else {
        return Status::InvalidArgument("--priority must be normal|high");
      }
    } else if (ParseFlag(arg, "watchdog-factor", &value)) {
      ADAMANT_RETURN_NOT_OK(ParseNumber(arg, value, &options.watchdog_factor));
    } else if (ParseFlag(arg, "stall-ms", &value)) {
      ADAMANT_RETURN_NOT_OK(ParseNumber(arg, value, &options.stall_ms));
    } else if (arg == "--sequential") {
      options.sequential = true;
    } else if (ParseFlag(arg, "sql", &value)) {
      if (sql::FindRegisteredQuery(value) != nullptr) {
        return Status::InvalidArgument("--sql takes SQL text or a builtin "
                                       "name; use --query=" + value);
      }
      options.sql = value;
    } else if (ParseFlag(arg, "sql-file", &value)) {
      options.sql_file = value;
    } else if (arg == "--list-queries") {
      options.list_queries = true;
    } else if (arg == "--serve") {
      options.serve = true;
    } else if (arg == "--no-cache") {
      options.no_cache = true;
    } else if (arg == "--verify") {
      options.verify = true;
    } else if (arg == "--explain") {
      options.explain = true;
    } else if (arg == "--explain-analyze") {
      options.explain_analyze = true;
    } else if (ParseFlag(arg, "history", &value)) {
      options.history_path = value;
    } else if (arg == "--help") {
      return Status::InvalidArgument("help requested");
    } else {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    }
  }
  if (options.nominal_sf <= 0) options.nominal_sf = options.sf;
  return options;
}

Result<sim::DriverKind> DriverFromName(const std::string& name) {
  const std::map<std::string, sim::DriverKind> kDrivers = {
      {"cuda_gpu", sim::DriverKind::kCudaGpu},
      {"opencl_gpu", sim::DriverKind::kOpenClGpu},
      {"opencl_cpu", sim::DriverKind::kOpenClCpu},
      {"openmp_cpu", sim::DriverKind::kOpenMpCpu},
  };
  auto it = kDrivers.find(name);
  if (it == kDrivers.end()) {
    return Status::InvalidArgument("unknown driver '" + name + "'");
  }
  return it->second;
}

// Options → ExecutionOptions for the execution knobs that run_tpch forwards
// verbatim. The strings were validated at ParseArgs time (exit 2 on typos),
// so the Parse* calls here cannot fail.
ExecutionOptions MakeExecOptions(const Options& options) {
  ExecutionOptions exec_options;
  exec_options.model = *ParseExecutionModel(options.model);
  exec_options.chunk_elems = options.chunk_elems;
  if (!options.device_set.empty()) {
    exec_options.model = ExecutionModelKind::kDeviceParallel;
    exec_options.device_set = options.device_set;
    exec_options.device_split = options.device_split;
  }
  exec_options.split_rebalance = !options.no_rebalance;
  exec_options.collect_operator_stats = options.explain_analyze;
  exec_options.kernel_variant = *ParseKernelVariant(options.kernel_variant);
  exec_options.kernel_threads = options.kernel_threads;
  exec_options.fusion = *ParseFusionMode(options.fusion);
  return exec_options;
}

// --explain-analyze: the measured OperatorStats tree next to the planner's
// predictions, one row per lowered primitive in node-id order. Selectivity
// columns apply only to the buffer-sizing kinds (FILTER_POSITION /
// MATERIALIZE / HASH_PROBE / FUSED); cost q-errors compare share-of-total
// (predicted sim-us vs measured kernel wall ms), so no unit calibration is
// needed. The summary line is what tests and the docs walkthrough grep.
void PrintExplainAnalyze(const std::string& title,
                         const std::vector<obs::OperatorStats>& operators) {
  if (operators.empty()) {
    std::printf("%s explain analyze: no operator stats collected\n",
                title.c_str());
    return;
  }
  double pred_total = 0;
  double actual_total = 0;
  for (const obs::OperatorStats& op : operators) {
    pred_total += op.predicted_cost_us;
    actual_total += op.kernel_ms;
  }
  std::printf("%s explain analyze (rows/selectivity predicted->actual, "
              "cost%% = share of total, q = max(p/a, a/p)):\n",
              title.c_str());
  std::printf("  %4s %3s %-20s %-30s %22s %15s %7s %13s %7s %6s %9s\n",
              "pipe", "id", "kind", "label", "rows p->a", "sel p->a",
              "q_sel", "cost% p->a", "q_cost", "launch", "kernel_ms");
  double sel_q_sum = 0, sel_q_max = 0;
  size_t sel_n = 0;
  double cost_q_sum = 0, cost_q_max = 0;
  size_t cost_n = 0;
  for (const obs::OperatorStats& op : operators) {
    char rows[64];
    std::snprintf(rows, sizeof(rows), "%.0f->%llu", op.predicted_rows_out,
                  static_cast<unsigned long long>(op.rows_out));
    char sel[48] = "-";
    char q_sel[32] = "-";
    if (op.selective && op.rows_in > 0) {
      const double q = obs::QError(op.predicted_selectivity,
                                   op.ActualSelectivity());
      std::snprintf(sel, sizeof(sel), "%.4f->%.4f", op.predicted_selectivity,
                    op.ActualSelectivity());
      std::snprintf(q_sel, sizeof(q_sel), "%.2f", q);
      sel_q_sum += q;
      sel_q_max = std::max(sel_q_max, q);
      ++sel_n;
    }
    char cost[48] = "-";
    char q_cost[32] = "-";
    if (pred_total > 0 && actual_total > 0 && op.launches > 0) {
      const double pred_share = op.predicted_cost_us / pred_total;
      const double actual_share = op.kernel_ms / actual_total;
      const double q = obs::QError(pred_share, actual_share);
      std::snprintf(cost, sizeof(cost), "%4.1f->%4.1f", pred_share * 100,
                    actual_share * 100);
      std::snprintf(q_cost, sizeof(q_cost), "%.2f", q);
      cost_q_sum += q;
      cost_q_max = std::max(cost_q_max, q);
      ++cost_n;
    }
    std::printf("  %4d %3d %-20s %-30s %22s %15s %7s %13s %7s %6zu %9.3f\n",
                op.pipeline, op.node_id, op.kind.c_str(), op.label.c_str(),
                rows, sel, q_sel, cost, q_cost, op.launches, op.kernel_ms);
  }
  std::printf("  qerror: selectivity mean %.2f max %.2f (%zu ops), "
              "cost-share mean %.2f max %.2f (%zu ops)\n",
              sel_n > 0 ? sel_q_sum / static_cast<double>(sel_n) : 1.0,
              sel_q_max, sel_n,
              cost_n > 0 ? cost_q_sum / static_cast<double>(cost_n) : 1.0,
              cost_q_max, cost_n);
}

// --explain (device-parallel): the chosen device set with per-device split
// ratios and the predicted per-partition cost (share x the graph priced on
// that device), next to the primitive-graph / placement output.
void PrintSplitExplain(DeviceManager* manager, const PrimitiveGraph& graph,
                       const ExecutionOptions& exec_options) {
  if (exec_options.model != ExecutionModelKind::kDeviceParallel ||
      exec_options.device_set.size() < 2) {
    return;
  }
  auto estimates = exec::EstimateDeviceCosts(
      graph, manager, exec_options.device_set, exec_options);
  if (!estimates.ok()) return;
  const std::vector<double> weights =
      exec_options.device_split.empty()
          ? exec::ThroughputWeights(*estimates)
          : exec::NormalizeSplit(exec_options.device_split,
                                 exec_options.device_set.size());
  std::printf("split:");
  for (size_t i = 0; i < exec_options.device_set.size(); ++i) {
    std::printf(" %s=%.3f (predicted %.3f ms/partition)",
                manager->device(exec_options.device_set[i])->name().c_str(),
                weights[i],
                sim::MsFromUs((*estimates)[i].total_cost_us * weights[i]));
  }
  std::printf(" rebalance=%s\n", exec_options.split_rebalance ? "on" : "off");
}

void PrintStats(const QueryExecution& exec, DeviceId device) {
  const QueryStats& stats = exec.stats;
  std::printf("    elapsed %.3f ms | kernels %.3f ms | wire %.3f ms | "
              "%zu chunks | H2D %zu B | D2H %zu B\n",
              sim::MsFromUs(stats.elapsed_us),
              sim::MsFromUs(stats.kernel_body_us),
              sim::MsFromUs(stats.transfer_wire_us), stats.chunks,
              stats.bytes_h2d, stats.bytes_d2h);
  const DeviceRunStats& dev = stats.devices[static_cast<size_t>(device)];
  std::printf("    per kernel:");
  for (const auto& [name, us] : dev.kernel_body_by_name) {
    std::printf(" %s=%.2fms", name.c_str(), sim::MsFromUs(us));
  }
  std::printf("\n");
}

// Dumps the process-wide registry (transfer/cache/kernel/fault counters)
// plus, when a service ran, its per-service registry. Prometheus text
// exposition by default; a .json suffix selects JSON.
Status DumpMetrics(const std::string& path, const QueryService* service) {
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  std::string text;
  if (json) {
    text = "{\"global\":" + obs::GlobalMetrics().ToJson();
    if (service != nullptr) {
      text += ",\"service\":" + service->metrics().ToJson();
    }
    text += "}";
  } else {
    text = obs::GlobalMetrics().ToPrometheusText();
    if (service != nullptr) text += service->metrics().ToPrometheusText();
  }
  std::ofstream out(path);
  out << text;
  if (!out.good()) {
    return Status::IOError("cannot write metrics to " + path);
  }
  std::printf("metrics written to %s (%s)\n", path.c_str(),
              json ? "JSON" : "Prometheus text");
  return Status::OK();
}

// --explain (SQL): the placement search over every device candidate.
Status PrintPlacement(const sql::PreparedQuery& prepared) {
  ADAMANT_ASSIGN_OR_RETURN(
      plan::PlacementSearchResult placement,
      plan::SearchPlacements(*prepared.compiled->plan, *prepared.catalog,
                             prepared.manager, prepared.options));
  std::printf("placement: %s (simulated %.3f ms, %zu candidates)\n",
              placement.best_name.c_str(),
              sim::MsFromUs(placement.best_elapsed_us),
              placement.evaluated.size());
  if (placement.best_device_set.empty()) return Status::OK();
  // The winner is a device-parallel split: the chosen set with each
  // device's split ratio and predicted per-partition cost.
  std::printf("split:");
  for (size_t i = 0; i < placement.best_device_set.size(); ++i) {
    std::printf(
        " %s=%.3f",
        prepared.manager->device(placement.best_device_set[i])->name().c_str(),
        placement.best_split[i]);
    if (i < placement.best_partition_cost_us.size()) {
      std::printf(" (predicted %.3f ms/partition)",
                  sim::MsFromUs(placement.best_partition_cost_us[i]));
    }
  }
  std::printf("\n");
  return Status::OK();
}

// Prepares `source` (a registry name, a SQL builtin name or SQL text) and
// explains it, or runs it and prints stats, results and the optional
// verdict. A non-empty `label` replaces the prepared display name.
Status RunQuery(const std::string& source, const std::string& label,
                const Catalog& catalog, DeviceManager* manager,
                DeviceId device, const Options& options,
                QueryService* service) {
  ADAMANT_ASSIGN_OR_RETURN(
      sql::PreparedQuery prepared,
      sql::Prepare(source, catalog, manager, device, MakeExecOptions(options)));
  if (!label.empty()) prepared.label = label;
  const std::string& name = prepared.label;
  const ExecutionOptions& exec_options = prepared.options;

  if (options.explain) {
    std::printf("%s", prepared.Explain().c_str());
    if (prepared.compiled) ADAMANT_RETURN_NOT_OK(PrintPlacement(prepared));
    PrintSplitExplain(manager, *prepared.bundle.graph, exec_options);
    return Status::OK();
  }

  // With a service attached (--trace), the query goes through Submit so the
  // trace carries the admission/placement instants alongside the runtime
  // spans. The factory's graphs keep the prepared bundle's node ids, so the
  // local bundle still extracts the serviced execution's results.
  Result<QueryExecution> direct = Status::Internal("query did not run");
  std::shared_ptr<QueryTicket> ticket;
  if (service != nullptr) {
    QuerySpec spec;
    spec.name = name;
    spec.options = exec_options;
    if (exec_options.model == ExecutionModelKind::kDeviceParallel) {
      spec.parallel_devices = exec_options.device_set.size();
    }
    spec.make_graph = prepared.GraphFactory();
    ADAMANT_ASSIGN_OR_RETURN(ticket, service->Submit(std::move(spec)));
    ADAMANT_RETURN_NOT_OK(ticket->Wait().status());
  } else {
    QueryExecutor executor(manager);
    direct = executor.Run(prepared.bundle.graph.get(), exec_options);
    ADAMANT_RETURN_NOT_OK(direct.status());
  }
  const QueryExecution& exec = service != nullptr ? *ticket->Wait() : *direct;
  const DeviceId report_device =
      service != nullptr ? ticket->placed_device() : device;

  std::printf("%s on %s (%s, chunk %zu):\n", name.c_str(),
              manager->device(report_device)->name().c_str(),
              ExecutionModelName(exec_options.model), exec_options.chunk_elems);
  PrintStats(exec, report_device);
  {
    // Self-describing benchmark output: which Task-layer kernel variant each
    // used device resolved, its thread budget, and how many launches
    // actually dispatched a parallel or fused fn.
    std::string variants_json;
    for (const DeviceRunStats& ds : exec.stats.devices) {
      if (ds.execute_calls == 0 || ds.kernel_variant.empty()) continue;
      if (!variants_json.empty()) variants_json += ",";
      variants_json += "\"" + ds.name + "\":{\"variant\":\"" +
                       ds.kernel_variant +
                       "\",\"threads\":" + std::to_string(ds.kernel_threads) +
                       ",\"parallel_launches\":" +
                       std::to_string(ds.parallel_launches) +
                       ",\"fused_launches\":" +
                       std::to_string(ds.fused_launches) + "}";
    }
    if (!variants_json.empty()) {
      std::printf("    {\"query\":\"%s\",\"fused_groups\":%d,"
                  "\"kernel_variants\":{%s}}\n",
                  name.c_str(), prepared.fusion.groups, variants_json.c_str());
    }
  }
  if (options.profile) {
    std::printf("    profile: %s\n",
                exec.stats.profile.ToJson(exec.stats.devices).c_str());
  }
  if (options.explain_analyze) {
    PrintExplainAnalyze(name, exec.stats.profile.operators);
    obs::RecordPlanQErrors(&obs::GlobalMetrics(), name,
                           exec.stats.profile.operators);
  }
  if (exec_options.model == ExecutionModelKind::kDeviceParallel) {
    // Machine-readable split report: which device ran how many chunks, the
    // planned split ratio per device, how many chunks each partition stole
    // at runtime, and the host time spent merging breaker containers.
    std::string chunks_json;
    for (const auto& [dev_id, count] : exec.stats.chunks_by_device) {
      if (!chunks_json.empty()) chunks_json += ",";
      chunks_json += "\"" + std::to_string(dev_id) +
                     "\":" + std::to_string(count);
    }
    std::string split_json;
    for (const auto& [dev_id, ratio] : exec.stats.split_ratio_by_device) {
      if (!split_json.empty()) split_json += ",";
      char buf[48];
      std::snprintf(buf, sizeof(buf), "\"%d\":%.4f", dev_id, ratio);
      split_json += buf;
    }
    std::string stolen_json;
    for (const auto& [dev_id, count] : exec.stats.chunks_stolen_by_device) {
      if (!stolen_json.empty()) stolen_json += ",";
      stolen_json += "\"" + std::to_string(dev_id) +
                     "\":" + std::to_string(count);
    }
    std::printf("    {\"query\":\"%s\",\"model\":\"device-parallel\","
                "\"devices\":%zu,\"chunks_by_device\":{%s},"
                "\"split_ratio\":{%s},\"chunks_stolen\":{%s},"
                "\"rebalance\":%s,"
                "\"merge_host_ms\":%.4f,\"elapsed_ms\":%.3f}\n",
                name.c_str(), options.device_set.size(),
                chunks_json.c_str(), split_json.c_str(), stolen_json.c_str(),
                exec_options.split_rebalance ? "true" : "false",
                exec.stats.merge_host_ms,
                sim::MsFromUs(exec.stats.elapsed_us));
  }

  ADAMANT_ASSIGN_OR_RETURN(sql::SqlResultSet results, prepared.Results(exec));
  std::printf("%s", prepared.Format(results).c_str());
  if (!options.verify) return Status::OK();
  // A registry query is checked against its tpch reference, other SQL
  // against the host interpreter.
  const Status verdict = prepared.Verify(exec);
  std::printf("    verification: %s\n", verdict.ok() ? "MATCH" : "MISMATCH");
  return verdict;
}

/// One served query that did not produce a usable result, for the
/// machine-readable `serve_errors:` record (exit code 3).
struct ServeErrorRecord {
  size_t index;
  std::string query;
  const char* outcome;  // "shed" | "rejected" | "cancelled" | "failed"
  Status status;
};

std::string ServeErrorsJson(const std::vector<ServeErrorRecord>& errors) {
  std::string json =
      "{\"count\":" + std::to_string(errors.size()) + ",\"errors\":[";
  for (size_t i = 0; i < errors.size(); ++i) {
    const ServeErrorRecord& e = errors[i];
    if (i > 0) json += ",";
    json += "{\"index\":" + std::to_string(e.index) + ",\"query\":\"" +
            obs::JsonEscape(e.query) + "\",\"outcome\":\"" + e.outcome +
            "\",\"status\":\"" + obs::JsonEscape(e.status.ToString()) + "\"}";
  }
  return json + "]}";
}

Status Serve(const Options& options, const std::shared_ptr<Catalog>& catalog,
             int* exit_code) {
  ADAMANT_ASSIGN_OR_RETURN(sim::DriverKind kind,
                           DriverFromName(options.driver));
  const sim::HardwareSetup setup = options.setup == 2
                                       ? sim::HardwareSetup::kSetup2
                                       : sim::HardwareSetup::kSetup1;
  const bool faults = options.fault_rate > 0 || options.sticky_device >= 0;
  DeviceManager manager(setup);
  manager.SetDataScale(options.nominal_sf / options.sf);
  const size_t num_devices = std::max<size_t>(options.devices, 1);
  for (size_t i = 0; i < num_devices; ++i) {
    const std::string name = options.driver + "." + std::to_string(i);
    DeviceId device;
    if (faults) {
      FaultPlan plan = FaultPlan::TransientRate(
          options.fault_rate, options.fault_seed + i);
      if (static_cast<int>(i) == options.sticky_device) {
        // --stall-ms turns the sticky device into a chronic straggler
        // (every Execute sleeps but succeeds) instead of a crasher; only a
        // deadline or the watchdog ends runs placed on it.
        FaultPlan sticky =
            options.stall_ms > 0
                ? FaultPlan::StickyStall(InterfaceCall::kExecute,
                                         options.stall_ms)
                : FaultPlan::Sticky(InterfaceCall::kExecute);
        plan.specs.insert(plan.specs.end(), sticky.specs.begin(),
                          sticky.specs.end());
      }
      ADAMANT_ASSIGN_OR_RETURN(device,
                               manager.AddDriver(kind, name, std::move(plan)));
    } else {
      ADAMANT_ASSIGN_OR_RETURN(device, manager.AddDriver(kind, name));
    }
    ADAMANT_RETURN_NOT_OK(BindStandardKernels(manager.device(device)));
  }

  // Served graphs run unfused, like the service's own SQL path.
  ExecutionOptions exec_options;
  exec_options.model = *ParseExecutionModel(options.model);
  exec_options.chunk_elems = options.chunk_elems;
  exec_options.fusion = FusionMode::kOff;

  std::printf("serve: %zu devices (%s), %zu clients, %zu queries, seed %u, "
              "cache %s\n",
              num_devices, options.driver.c_str(), options.clients,
              options.serve_queries, options.seed,
              options.no_cache ? "off" : "on");
  if (faults) {
    std::printf("serve: fault rate %g (seed %llu), sticky device %d, %s "
                "submission\n",
                options.fault_rate,
                static_cast<unsigned long long>(options.fault_seed),
                options.sticky_device,
                options.sequential ? "sequential" : "concurrent");
  }

  // Serial references first: the service's results must match these
  // bit-for-bit. With faults enabled the references come from a separate
  // clean manager — the baseline must be what a fault-free run produces.
  std::unique_ptr<DeviceManager> clean;
  DeviceManager* ref_manager = &manager;
  if (faults) {
    clean = std::make_unique<DeviceManager>(setup);
    clean->SetDataScale(options.nominal_sf / options.sf);
    ADAMANT_ASSIGN_OR_RETURN(DeviceId device, clean->AddDriver(kind));
    ADAMANT_RETURN_NOT_OK(BindStandardKernels(clean->device(device)));
    ref_manager = clean.get();
  }
  // The workload mixes registry queries 3, 4 and 6. Each is prepared once;
  // its bundle reads both the serial reference and every served execution
  // (unfused, so the factory never consults the reference manager).
  const char* kServeMix[3] = {"3", "4", "6"};
  std::vector<sql::PreparedQuery> prepared;
  std::vector<sql::SqlResultSet> refs;
  QueryExecutor ref_executor(ref_manager);
  for (const char* name : kServeMix) {
    ADAMANT_ASSIGN_OR_RETURN(
        sql::PreparedQuery query,
        sql::Prepare(name, *catalog, ref_manager, 0, exec_options));
    ADAMANT_ASSIGN_OR_RETURN(
        QueryExecution exec,
        ref_executor.Run(query.bundle.graph.get(), query.options));
    ADAMANT_ASSIGN_OR_RETURN(sql::SqlResultSet rows, query.Results(exec));
    prepared.push_back(std::move(query));
    refs.push_back(std::move(rows));
  }

  ServiceConfig config;
  config.workers = std::max<size_t>(options.clients, 1);
  config.enable_cache = !options.no_cache;
  config.slo.watchdog_factor = options.watchdog_factor;
  if (options.deadline_ms > 0 || options.watchdog_factor > 0) {
    std::printf("serve: deadline %g ms, priority %s, watchdog factor %g\n",
                options.deadline_ms,
                options.priority == QueryPriority::kHigh ? "high" : "normal",
                options.watchdog_factor);
  }
  if (faults) {
    // ~10% per-attempt fault rate wants more headroom than the default 3
    // attempts before a ticket is allowed to fail.
    config.retry.max_attempts = 8;
  }
  if (!options.trace_path.empty()) {
    // Enabled before the service exists so worker threads never observe a
    // half-initialized recorder; the reference runs above stay untraced.
    obs::TraceRecorder::Global().Enable();
    for (size_t i = 0; i < manager.num_devices(); ++i) {
      obs::TraceRecorder::Global().SetTrackName(
          static_cast<int>(i),
          manager.device(static_cast<DeviceId>(i))->name());
    }
  }
  QueryService service(&manager, config);

  // Seeded workload: an even mix; SQL queries go in as QuerySpec::sql so
  // the service compiles them, hand-built ones through make_graph.
  std::mt19937 rng(options.seed);
  std::uniform_int_distribution<int> pick(0, 2);
  std::vector<int> kinds;
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  std::vector<ServeErrorRecord> errors;
  kinds.reserve(options.serve_queries);
  tickets.reserve(options.serve_queries);
  for (size_t i = 0; i < options.serve_queries; ++i) {
    const int kind_ix = pick(rng);
    const sql::PreparedQuery& query = prepared[static_cast<size_t>(kind_ix)];
    QuerySpec spec;
    spec.name = query.label;
    spec.options = query.options;
    spec.deadline_ms = options.deadline_ms;
    spec.priority = options.priority;
    if (query.compiled) {
      spec.sql = query.text;
      spec.sql_catalog = catalog.get();
    } else {
      spec.make_graph = query.GraphFactory();
    }
    const std::string query_name = spec.name;
    Result<std::shared_ptr<QueryTicket>> submit =
        service.Submit(std::move(spec));
    if (!submit.ok()) {
      // Shed (deadline unmeetable) and capacity rejections are recorded
      // outcomes of the experiment, not reasons to abort it; anything else
      // (a plan bug) still aborts.
      const Status& st = submit.status();
      if (st.IsDeadlineExceeded()) {
        errors.push_back({i, query_name, "shed", st});
      } else if (st.IsOutOfMemory() || st.IsUnavailable()) {
        errors.push_back({i, query_name, "rejected", st});
      } else {
        return st.WithContext("submitting query " + std::to_string(i));
      }
      kinds.push_back(kind_ix);
      tickets.push_back(nullptr);
      continue;
    }
    std::shared_ptr<QueryTicket> ticket = std::move(*submit);
    // Sequential mode serializes the device call order: every attempt of
    // query i happens before any call of query i+1, which makes the fault
    // injectors' seeded decisions — and hence the failure counters —
    // reproducible across runs.
    if (options.sequential) ticket->Wait();
    kinds.push_back(kind_ix);
    tickets.push_back(std::move(ticket));
  }

  size_t mismatches = 0;
  size_t fault_failures = 0;
  for (size_t i = 0; i < tickets.size(); ++i) {
    if (tickets[i] == nullptr) continue;  // shed / rejected at submit
    const Result<QueryExecution>& result = tickets[i]->Wait();
    if (!result.ok()) {
      const Status& st = result.status();
      if (st.IsCancelled() || st.IsDeadlineExceeded()) {
        // SLO outcomes (deadline lapse, user cancel, unretried watchdog
        // trip) are recorded even under fault injection — they are what a
        // deadline experiment measures.
        errors.push_back(
            {i, tickets[i]->name(), "cancelled", st});
        continue;
      }
      // With fault injection on, a ticket that exhausted its retries is an
      // expected outcome to report, not a reason to abort the workload.
      if (faults) {
        ++fault_failures;
        continue;
      }
      errors.push_back({i, tickets[i]->name(), "failed", st});
      continue;
    }
    const size_t k = static_cast<size_t>(kinds[i]);
    ADAMANT_ASSIGN_OR_RETURN(sql::SqlResultSet rows,
                             prepared[k].Results(*result));
    const bool match = rows.rows == refs[k].rows;
    if (!match) ++mismatches;
  }
  service.Drain();

  ServiceStats stats = service.GetStats();
  std::printf("serve: %zu/%zu results match serial runs\n",
              tickets.size() - mismatches - fault_failures - errors.size(),
              tickets.size());
  if (!errors.empty()) {
    // Machine-readable record of every shed / rejected / cancelled / failed
    // served query, on one greppable line; paired with exit code 3 so
    // harnesses distinguish "the SLO shed work" from "the binary broke".
    std::printf("serve_errors: %s\n", ServeErrorsJson(errors).c_str());
    *exit_code = 3;
  }
  if (faults) {
    std::printf("serve: %zu queries failed after retries; %zu fault unwinds, "
                "%zu retries, %zu quarantines\n",
                fault_failures, stats.fault_unwinds, stats.retries,
                stats.quarantines);
  }
  std::printf("%s\n", stats.ToJson().c_str());
  if (!options.trace_path.empty()) {
    std::ofstream out(options.trace_path);
    out << obs::TraceRecorder::Global().ExportChromeJson();
    if (!out.good()) {
      return Status::IOError("cannot write trace to " + options.trace_path);
    }
    std::printf("trace written to %s (open in chrome://tracing or Perfetto)\n",
                options.trace_path.c_str());
  }
  if (!options.metrics_path.empty()) {
    ADAMANT_RETURN_NOT_OK(DumpMetrics(options.metrics_path, &service));
  }
  if (!options.history_path.empty()) {
    std::ofstream out(options.history_path);
    out << service.HistoryJson();
    if (!out.good()) {
      return Status::IOError("cannot write history to " +
                             options.history_path);
    }
    std::printf("query history written to %s\n", options.history_path.c_str());
  }
  service.Stop();
  if (!options.trace_path.empty()) obs::TraceRecorder::Global().Disable();
  if (mismatches > 0) {
    return Status::ExecutionError(std::to_string(mismatches) +
                                  " served queries diverged from the serial "
                                  "reference");
  }
  return Status::OK();
}

Status Run(const Options& options, int* exit_code) {
  if (options.list_queries) {
    for (const sql::BuiltinQuery& query : sql::BuiltinQueries()) {
      std::printf("%s — %s\n%s\n\n", query.name.c_str(), query.title.c_str(),
                  query.sql.c_str());
    }
    return Status::OK();
  }

  // Data.
  std::shared_ptr<Catalog> catalog;
  if (!options.tbl_dir.empty()) {
    ADAMANT_ASSIGN_OR_RETURN(catalog, tpch::LoadTblDirectory(options.tbl_dir));
    std::printf("loaded .tbl data from %s\n", options.tbl_dir.c_str());
  } else {
    tpch::TpchConfig config;
    config.scale_factor = options.sf;
    ADAMANT_ASSIGN_OR_RETURN(catalog, tpch::Generate(config));
    std::printf("generated TPC-H at SF %g (emulating SF %g)\n", options.sf,
                options.nominal_sf);
  }

  if (options.serve) return Serve(options, catalog, exit_code);

  // Device.
  ADAMANT_ASSIGN_OR_RETURN(sim::DriverKind kind,
                           DriverFromName(options.driver));
  DeviceManager manager(options.setup == 2 ? sim::HardwareSetup::kSetup2
                                           : sim::HardwareSetup::kSetup1);
  manager.SetDataScale(options.nominal_sf / options.sf);
  DeviceId device = 0;
  if (!options.device_classes.empty()) {
    // Heterogeneous device-parallel run: one device per named driver class,
    // in --devices order; the chunk range splits across the mixed set by
    // cost ratio.
    for (size_t i = 0; i < options.device_classes.size(); ++i) {
      ADAMANT_ASSIGN_OR_RETURN(sim::DriverKind class_kind,
                               DriverFromName(options.device_classes[i]));
      ADAMANT_ASSIGN_OR_RETURN(
          DeviceId added,
          manager.AddDriver(class_kind, options.device_classes[i] + "." +
                                            std::to_string(i)));
      ADAMANT_RETURN_NOT_OK(BindStandardKernels(manager.device(added)));
    }
  } else {
    ADAMANT_ASSIGN_OR_RETURN(device, manager.AddDriver(kind));
    ADAMANT_RETURN_NOT_OK(BindStandardKernels(manager.device(device)));
    if (!options.device_set.empty()) {
      // Device-parallel run: plug enough instances of the chosen driver to
      // cover every id in --devices (device 0 is already plugged above).
      const DeviceId max_id = *std::max_element(options.device_set.begin(),
                                                options.device_set.end());
      for (DeviceId id = 1; id <= max_id; ++id) {
        ADAMANT_ASSIGN_OR_RETURN(
            DeviceId added, manager.AddDriver(kind, options.driver + "." +
                                                        std::to_string(id)));
        ADAMANT_RETURN_NOT_OK(BindStandardKernels(manager.device(added)));
      }
    }
  }
  if (!options.sim_trace_path.empty()) {
    manager.device(device)->transfer_timeline().set_tracing(true);
    manager.device(device)->d2h_timeline().set_tracing(true);
    manager.device(device)->compute_timeline().set_tracing(true);
  }

  // Wall-clock tracing routes the queries through a one-off single-worker
  // QueryService: the exported trace then carries the service admission and
  // placement instants in addition to the runtime's spans, which is what a
  // trace of a served query would show.
  std::unique_ptr<QueryService> service;
  if (!options.trace_path.empty()) {
    obs::TraceRecorder::Global().Enable();
    for (size_t i = 0; i < manager.num_devices(); ++i) {
      obs::TraceRecorder::Global().SetTrackName(
          static_cast<int>(i),
          manager.device(static_cast<DeviceId>(i))->name());
    }
    ServiceConfig config;
    config.workers = 1;
    service = std::make_unique<QueryService>(&manager, config);
  }

  // Queries: --sql / --sql-file text, else the registry.
  if (!options.sql_file.empty()) {
    std::ifstream in(options.sql_file);
    if (!in.good()) {
      return Status::IOError("cannot read --sql-file=" + options.sql_file);
    }
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    if (sql::FindRegisteredQuery(text) != nullptr) {
      return Status::InvalidArgument("--sql-file holds a --query name");
    }
    ADAMANT_RETURN_NOT_OK(RunQuery(text, options.sql_file, *catalog, &manager,
                                   device, options, service.get()));
  } else if (!options.sql.empty()) {
    ADAMANT_RETURN_NOT_OK(RunQuery(options.sql, "", *catalog, &manager,
                                   device, options, service.get()));
  } else {
    for (const sql::RegisteredQuery& query : sql::RegisteredQueries()) {
      if (options.query != "all" && options.query != query.name) continue;
      if (!query.needs_table.empty() &&
          !catalog->GetTable(query.needs_table).ok()) {
        std::printf("Q%s skipped (no %s table)\n", query.name.c_str(),
                    query.needs_table.c_str());
        continue;
      }
      ADAMANT_RETURN_NOT_OK(RunQuery(query.name, "", *catalog, &manager,
                                     device, options, service.get()));
    }
  }

  if (service != nullptr) {
    service->Drain();
    std::ofstream out(options.trace_path);
    out << obs::TraceRecorder::Global().ExportChromeJson();
    if (!out.good()) {
      return Status::IOError("cannot write trace to " + options.trace_path);
    }
    std::printf("trace written to %s (open in chrome://tracing or Perfetto)\n",
                options.trace_path.c_str());
  }
  if (!options.metrics_path.empty()) {
    ADAMANT_RETURN_NOT_OK(DumpMetrics(options.metrics_path, service.get()));
  }
  if (service != nullptr) {
    service->Stop();
    obs::TraceRecorder::Global().Disable();
  }

  if (!options.sim_trace_path.empty()) {
    SimulatedDevice* dev = manager.device(device);
    std::string json = sim::ToChromeTrace({&dev->transfer_timeline(),
                                           &dev->d2h_timeline(),
                                           &dev->compute_timeline()});
    std::ofstream out(options.sim_trace_path);
    out << json;
    if (!out.good()) {
      return Status::IOError("cannot write trace to " +
                             options.sim_trace_path);
    }
    std::printf("simulated-timeline trace written to %s\n",
                options.sim_trace_path.c_str());
  }
  return Status::OK();
}

}  // namespace
}  // namespace adamant

int main(int argc, char** argv) {
  auto options = adamant::ParseArgs(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n\nSee the header of tools/run_tpch.cc for "
                         "usage.\n",
                 options.status().ToString().c_str());
    return 2;
  }
  // Exit codes: 0 success, 1 hard failure, 2 bad arguments, 3 served
  // queries were shed/cancelled/failed (see the serve_errors: JSON line).
  int exit_code = 0;
  adamant::Status st = adamant::Run(*options, &exit_code);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  return exit_code;
}
