#ifndef ADAMANT_SERVICE_QUERY_SERVICE_H_
#define ADAMANT_SERVICE_QUERY_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <map>

#include "common/cancel.h"
#include "common/result.h"
#include "device/device_manager.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "plan/feedback.h"
#include "service/column_cache.h"
#include "service/cost_predictor.h"
#include "service/device_health.h"
#include "service/memory_budget.h"
#include "service/scheduler.h"

namespace adamant {

/// Retry policy for transient query failures (Status::IsTransient(), i.e.
/// a device interface call failed but the query may succeed elsewhere or
/// later). A failed attempt is requeued with the failing device excluded
/// and an exponential-backoff deadline; exclusions are cleared when they
/// would cover every eligible device, so a retry can return to a recovered
/// device rather than starve.
struct RetryPolicy {
  /// Total attempts including the first; 1 disables retry.
  size_t max_attempts = 3;
  double backoff_base_ms = 1.0;
  double backoff_multiplier = 2.0;
  double backoff_max_ms = 100.0;
  /// Backoff is multiplied by a factor drawn uniformly from
  /// [1 - jitter_fraction, 1 + jitter_fraction] with a seeded RNG, so
  /// same-seed runs back off identically.
  double jitter_fraction = 0.5;
  uint64_t jitter_seed = 42;
  /// Retry only transient failures (permanent plan/validation errors fail
  /// the ticket immediately). Turning this off retries everything.
  bool transient_only = true;
};

/// Deadline / SLO policy (docs/serving.md "Deadlines, cancellation, and
/// load shedding"). Predictions come from the service's CostCalibration:
/// the perf-model sim-cost estimate rescaled by observed completions, with
/// `min_predicted_ms` as the floor so a cold (uncalibrated) service is
/// permissive rather than trigger-happy.
struct SloPolicy {
  /// Shed at Submit when predicted run time plus predicted queue wait
  /// cannot meet the query's deadline. Shedding fails fast with
  /// DeadlineExceeded instead of enqueueing doomed work.
  bool shed_on_admission = true;
  /// Evict queued queries whose deadline (or client CancelToken) has
  /// already tripped; checked by dispatching workers and by the watchdog
  /// thread, so eviction does not depend on a worker going idle.
  bool evict_lapsed = true;
  /// Watchdog: cancel an in-flight run once its wall time exceeds
  /// watchdog_factor × predicted run time. The cancellation is tagged with
  /// the run's primary device, so DeviceHealth treats a chronic straggler
  /// exactly like a crasher (quarantine + probe) and the retry lands
  /// elsewhere. 0 disables the watchdog.
  double watchdog_factor = 0;
  /// Floor on every run-time prediction (ms).
  double min_predicted_ms = 5.0;
  /// Floor on the watchdog budget (ms), over and above the factor — absorbs
  /// scheduler noise on very short queries.
  double min_watchdog_ms = 50.0;
  /// Watchdog poll cadence (ms).
  double watchdog_poll_ms = 5.0;
};

struct ServiceConfig {
  /// Worker threads draining the admission queue.
  size_t workers = 4;
  /// Concurrent queries per device. 1 (default) leases each device
  /// exclusively. >1 interleaves queries on the shared simulated device:
  /// results and each run's ledger (kernel body, wire time, bytes, calls)
  /// stay exact; elapsed time is measured on the shared device clock.
  size_t slots_per_device = 1;
  /// Admission queue bound; Submit rejects beyond it.
  size_t max_queue = 256;
  /// Per-device admission budget in nominal bytes; 0 = the device arena's
  /// capacity minus the column-cache budget, so cache residency and query
  /// working sets cannot jointly overcommit the arena.
  size_t query_budget_bytes = 0;
  /// Per-device column-cache budget in nominal bytes; 0 = a quarter of the
  /// smallest device arena.
  size_t cache_budget_bytes = 0;
  bool enable_cache = true;
  /// Transient-failure retry (see RetryPolicy).
  RetryPolicy retry;
  /// Device quarantine thresholds (see DeviceHealthConfig).
  DeviceHealthConfig health;
  /// Deadline shedding / eviction / watchdog policy (see SloPolicy).
  SloPolicy slo;
  /// EXPLAIN ANALYZE in serving: collect the per-operator stats tree on
  /// every run (bit-identical results, a few extra clock reads and count
  /// retrievals per chunk). Feeds the adamant_plan_qerror_* histograms, the
  /// selectivity feedback cache consulted on the next compile of the same
  /// query name, and the slow-query history.
  bool collect_operator_stats = true;
  /// Bounded completed-query history ring (0 disables history entirely).
  size_t history_capacity = 64;
  /// Slow-query threshold: a finished query is logged slow — full profile
  /// and operator tree retained — when its run time exceeds this fraction
  /// of its deadline, or, for deadline-less queries, the fleet run-time p95
  /// (once enough runs have been observed to make a p95 meaningful).
  double slow_query_fraction = 0.75;
};

/// One finished (completed or failed) query in the bounded history ring.
struct QueryHistoryEntry {
  uint64_t id = 0;  // monotonic completion sequence number
  std::string name;
  bool ok = false;
  std::string error;  // failure Status::ToString(), empty when ok
  DeviceId device = -1;
  size_t attempts = 0;
  double queue_wait_ms = 0;
  double run_ms = 0;
  /// Calibrated run-time prediction at completion time (PredictRunMs).
  double predicted_ms = 0;
  double deadline_ms = 0;  // 0 = none
  bool slow = false;
  /// Slow queries retain the full profile including the EXPLAIN ANALYZE
  /// operator tree; fast ones keep only the phase summary (operators
  /// dropped), bounding the ring's memory.
  obs::QueryProfile profile;
  /// The run's per-device totals, rendered into the profile's JSON.
  std::vector<DeviceRunStats> devices;

  std::string ToJson() const;
};

/// Aggregate service counters, exported as JSON by run_tpch --serve.
struct ServiceStats {
  size_t submitted = 0;
  size_t admitted = 0;
  size_t completed = 0;
  size_t failed = 0;
  size_t rejected = 0;  // queue full or estimate beyond every budget
  /// Times a query with a free device slot had to stay queued because no
  /// eligible device's memory budget could cover its footprint estimate
  /// yet. Counted at most once per query per release epoch (a completion
  /// freeing budget starts a new epoch), so the counter tracks distinct
  /// deferral events rather than queue-scan frequency.
  size_t budget_deferrals = 0;
  /// Fault-handling counters (docs/serving.md "Fault handling").
  size_t retries = 0;       // dispatches beyond a query's first attempt
  size_t requeues = 0;      // transient failures put back on the queue
  size_t quarantines = 0;   // devices quarantined (incl. failed probes)
  size_t fault_unwinds = 0; // device-attributed failures unwound by the
                            // executor (transient or not)
  size_t probes = 0;        // placements onto a quarantined device
  /// Deadline / SLO counters (docs/serving.md "Deadlines, cancellation,
  /// and load shedding").
  size_t shed = 0;               // rejected at admission: deadline unmeetable
  size_t deadline_evictions = 0; // evicted from the queue after lapsing
  size_t watchdog_fires = 0;     // in-flight runs cancelled by the watchdog
  size_t cancelled = 0;          // run attempts that ended cancelled /
                                 // deadline-exceeded (any cause)
  /// Completed queries the history ring flagged slow (EXPLAIN ANALYZE
  /// profile retained; see ServiceConfig::slow_query_fraction).
  size_t slow_queries = 0;
  size_t queued = 0;  // snapshot
  size_t active = 0;  // snapshot
  double wall_seconds = 0;
  double queue_wait_p50_ms = 0;
  double queue_wait_p95_ms = 0;
  double run_p50_ms = 0;
  double run_p95_ms = 0;

  struct DeviceEntry {
    std::string name;
    size_t completed = 0;
    /// Fraction of the service's wall time this device was running a query
    /// (can exceed 1 when slots_per_device > 1).
    double busy_fraction = 0;
    size_t budget_capacity = 0;
    size_t budget_reserved = 0;
    size_t live_high_water = 0;
    bool quarantined = false;
    size_t consecutive_failures = 0;
  };
  std::vector<DeviceEntry> devices;

  DeviceColumnCache::Stats cache;

  std::string ToJson() const;
};

/// The service layer above the runtime (ROADMAP: "production-scale
/// serving"): owns the DeviceManager's serving policy — a bounded two-level
/// admission queue, worker threads leasing devices through a per-device
/// slot table with least-loaded placement, per-device memory budgets that
/// make over-committed queries wait instead of OOM-failing, and a
/// cross-query device column cache that lets repeated scans skip their H2D
/// transfers.
///
/// The manager must come fully provisioned (drivers added, kernels bound);
/// the service adds no devices of its own.
class QueryService {
 public:
  QueryService(DeviceManager* manager, ServiceConfig config);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Enqueues a query. Fails with OutOfMemory when the queue is full or the
  /// query's footprint estimate exceeds every eligible device's budget, and
  /// with Unavailable once Stop() has begun.
  Result<std::shared_ptr<QueryTicket>> Submit(QuerySpec spec);

  /// Blocks until the queue is empty and no query is running.
  void Drain();

  /// Drains, then stops the workers. Idempotent; the destructor calls it.
  void Stop();

  /// Snapshot of the service counters. Every value is derived from the
  /// service's MetricsRegistry (the single source of truth also exposed by
  /// metrics()); the p50/p95 fields are histogram quantile estimates.
  ServiceStats GetStats() const;

  /// The service's metric registry: counters/histograms behind GetStats,
  /// exposable as Prometheus text (metrics().ToPrometheusText()) or JSON.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Selectivity feedback cache fed by completed analyzed runs. The SQL
  /// compile path (Submit) and graph lowering (RunOne) consult it, so
  /// resubmitting a query name tightens its estimates run over run.
  const plan::SelectivityFeedback& feedback() const { return feedback_; }

  /// Per-device split calibration fed by completed device-parallel runs:
  /// the observed/predicted per-chunk cost ratio per device name. RunOne
  /// rescales the cost-model split of the next multi-device lease with it,
  /// so heterogeneous splits converge on observed throughput.
  const plan::SplitCalibration& split_calibration() const {
    return split_calibration_;
  }

  /// JSON dump of the query-history ring (most recent first; slow entries
  /// carry their full EXPLAIN ANALYZE profile) plus the feedback cache.
  /// Served by run_tpch --serve --history=PATH.
  std::string HistoryJson() const;

  DeviceColumnCache* cache() { return cache_.get(); }
  MemoryLedger& ledger() { return *ledger_; }

 private:
  /// One dispatched attempt currently running, visible to the watchdog.
  /// `token` stays valid while the entry exists: the dispatching worker
  /// owns the token and erases the entry before releasing it.
  struct ActiveRun {
    CancelToken* token = nullptr;
    std::chrono::steady_clock::time_point start;
    /// Watchdog budget (ms); <= 0 = not watched.
    double budget_ms = 0;
    DeviceId device = -1;  // primary device, blamed on watchdog fire
    std::string name;
    bool fired = false;  // the watchdog cancels each run at most once
  };

  void WorkerLoop();
  void WatchdogLoop();
  /// Evicts every queued query whose deadline lapsed or whose client
  /// CancelToken tripped, completing their tickets. Caller holds mu_
  /// (ticket completion takes only the ticket's own lock; clients in
  /// Wait() never hold mu_, so there is no inversion).
  void EvictLapsedLocked(std::chrono::steady_clock::time_point now);
  /// Predicted wall time (ms) of one run of `query`, floored by the
  /// policy. Caller holds mu_ (reads the calibration).
  double PredictRunMs(const QueuedQuery& query) const;
  /// Runs one attempt on the leased device set (a single element for
  /// classic leases; the device-parallel split set otherwise), with
  /// `token` armed as the attempt's cancellation carrier.
  /// `stats_sink` receives the attempt's QueryStats (profile + operator
  /// tree) on every exit path, including cancels and errors.
  Result<QueryExecution> RunOne(const QueuedQuery& query,
                                const std::vector<DeviceId>& devices,
                                CancelToken* token, QueryStats* stats_sink);
  /// Backoff delay before retry attempt `attempt` (1-based count of
  /// failures so far), with seeded jitter. Caller holds mu_.
  double BackoffMs(size_t attempt);

  DeviceManager* manager_;
  ServiceConfig config_;
  std::unique_ptr<MemoryLedger> ledger_;
  std::unique_ptr<DeviceColumnCache> cache_;
  std::chrono::steady_clock::time_point start_time_;

  mutable std::mutex mu_;
  std::condition_variable dispatch_cv_;  // queue or capacity changed
  std::condition_variable idle_cv_;      // a query finished
  AdmissionQueue queue_;
  DeviceSlotTable slots_;
  DeviceHealth health_;
  std::mt19937_64 jitter_rng_;
  bool stopping_ = false;
  size_t active_ = 0;
  /// Sim-cost → wall-time rescaling, fed by completed runs (guarded by mu_).
  CostCalibration calibration_;
  /// Observed-selectivity cache (internally synchronized; locked after mu_
  /// when both are held).
  plan::SelectivityFeedback feedback_;
  /// Observed/predicted chunk-cost ratios per device name (internally
  /// synchronized; locked after mu_ when both are held).
  plan::SplitCalibration split_calibration_;
  /// Bounded completed-query ring, newest at the back (guarded by mu_).
  std::deque<QueryHistoryEntry> history_;
  uint64_t history_seq_ = 0;
  /// In-flight attempts, keyed by a monotonic run id (guarded by mu_).
  std::map<uint64_t, ActiveRun> active_runs_;
  uint64_t next_run_id_ = 1;
  std::condition_variable watchdog_cv_;  // wakes WatchdogLoop (stop)
  /// Bumped (under mu_) whenever a completion releases slot + budget;
  /// budget deferrals count at most once per query per epoch.
  uint64_t release_epoch_ = 1;

  // Service metrics: one registry per service instance so concurrent
  // services in one process stay independent. The instrument pointers are
  // stable (registry-owned); counters are still incremented under mu_, so
  // every count stays exactly what the old size_t members recorded —
  // GetStats and the Prometheus/JSON expositions read one source of truth.
  obs::MetricsRegistry metrics_;
  obs::Counter* submitted_;
  obs::Counter* admitted_;
  obs::Counter* completed_;
  obs::Counter* failed_;
  obs::Counter* rejected_;
  obs::Counter* budget_deferrals_;
  obs::Counter* retries_;
  obs::Counter* requeues_;
  obs::Counter* quarantines_;
  obs::Counter* fault_unwinds_;
  obs::Counter* probes_;
  obs::Counter* shed_;
  obs::Counter* deadline_evictions_;
  obs::Counter* watchdog_fires_;
  obs::Counter* cancelled_;
  obs::Counter* slow_queries_;
  obs::Histogram* queue_wait_hist_;
  obs::Histogram* run_hist_;
  /// Deadline minus completion time, clamped at 0, for every finished
  /// query that carried a deadline — the margin the SLO ran with.
  obs::Histogram* deadline_slack_hist_;
  std::vector<obs::Counter*> completed_by_device_;
  std::vector<obs::Counter*> busy_ms_by_device_;

  std::vector<std::thread> workers_;
  std::thread watchdog_;
};

}  // namespace adamant

#endif  // ADAMANT_SERVICE_QUERY_SERVICE_H_
