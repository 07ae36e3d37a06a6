#ifndef ADAMANT_SERVICE_SCHEDULER_H_
#define ADAMANT_SERVICE_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "device/device_manager.h"
#include "runtime/executor.h"

namespace adamant {

class Catalog;

/// Two-level admission priority: high-priority queries dispatch before any
/// normal-priority query; FIFO within a level.
enum class QueryPriority { kNormal = 0, kHigh = 1 };

/// A query submitted to the service. The graph is built lazily by
/// `make_graph` once the scheduler has picked a device, so one spec can run
/// anywhere in `eligible_devices` (empty = any plugged device).
///
/// Instead of providing `make_graph`, a spec may carry SQL text: set `sql`
/// (and `sql_catalog`) and Submit prepares the query once through
/// sql::Prepare (sql/prepare.h), unfused, and takes `make_graph` from
/// PreparedQuery::GraphFactory. Compile errors surface as the Submit error,
/// with the usual line:col diagnostics.
struct QuerySpec {
  std::string name;
  std::function<Result<std::unique_ptr<PrimitiveGraph>>(DeviceId)> make_graph;
  /// SQL alternative to make_graph (exclusive with it). Requires
  /// sql_catalog, which must outlive the query: its graphs are lowered
  /// from it at run time.
  std::string sql;
  const Catalog* sql_catalog = nullptr;
  ExecutionOptions options;
  QueryPriority priority = QueryPriority::kNormal;
  /// Soft SLO deadline, milliseconds from Submit; 0 = none. With a deadline
  /// the service (a) sheds the query at admission when predicted cost plus
  /// queue wait cannot meet it, (b) evicts it from the queue once it lapses,
  /// and (c) arms the run's CancelToken so in-flight work unwinds when the
  /// deadline passes mid-run.
  double deadline_ms = 0;
  std::vector<DeviceId> eligible_devices;
  /// Devices to lease together for one run. 1 (default) is the classic
  /// single-device lease. >1 requires options.model == kDeviceParallel: the
  /// scheduler atomically leases that many devices (a slot AND the query's
  /// footprint estimate reserved on each — the estimate is a per-device
  /// bound under the chunk split) and the run splits its chunk range across
  /// them. The query stays queued until that many devices qualify at once.
  size_t parallel_devices = 1;
};

/// Handle returned by QueryService::Submit. Wait() blocks until the query
/// has run (or failed) and returns its result; timing fields are valid
/// afterwards.
class QueryTicket {
 public:
  /// Blocks until completion.
  const Result<QueryExecution>& Wait();
  bool done() const;

  const std::string& name() const { return name_; }
  /// Device the scheduler placed the query on (-1 if it never dispatched).
  /// After retries, the device of the final attempt. For a multi-device
  /// lease (QuerySpec::parallel_devices > 1) this is the primary device;
  /// placed_devices() has the full set.
  DeviceId placed_device() const { return placed_device_; }
  /// Every device leased for the final attempt (empty if it never
  /// dispatched; a single element for classic single-device leases).
  const std::vector<DeviceId>& placed_devices() const {
    return placed_devices_;
  }
  double queue_wait_ms() const { return queue_wait_ms_; }
  double run_ms() const { return run_ms_; }
  /// Dispatch attempts this query took (1 = no retry). Valid after Wait().
  size_t attempts() const { return attempts_; }

 private:
  friend class QueryService;
  void Complete(Result<QueryExecution> result);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::optional<Result<QueryExecution>> result_;
  std::string name_;
  DeviceId placed_device_ = -1;
  std::vector<DeviceId> placed_devices_;
  double queue_wait_ms_ = 0;
  double run_ms_ = 0;
  size_t attempts_ = 0;
};

/// A queued query: spec + ticket + the admission-control footprint estimate.
struct QueuedQuery {
  QuerySpec spec;
  std::shared_ptr<QueryTicket> ticket;
  size_t estimate_bytes = 0;  // nominal, from EstimateDeviceMemoryBytes
  std::chrono::steady_clock::time_point submit_time;
  /// Release epoch (see QueryService) at which this query last counted a
  /// budget deferral, so a deferred query counts once per state change —
  /// not once per queue scan.
  uint64_t deferral_epoch = 0;
  /// Retry bookkeeping (see QueryService's RetryPolicy). `attempt` counts
  /// dispatches so far; after a transient failure the query is requeued
  /// with the failing device appended to `excluded_devices` and a backoff
  /// deadline in `not_before`.
  size_t attempt = 0;
  std::vector<DeviceId> excluded_devices;
  std::chrono::steady_clock::time_point not_before{};
  /// Absolute deadline (valid iff has_deadline), from spec.deadline_ms.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  /// Predicted simulated run cost (us) on the probe device, from
  /// EstimateSimCostUs; 0 when the estimate failed. Feeds admission
  /// shedding and the watchdog budget via CostCalibration.
  double predicted_sim_us = 0;
};

/// Bounded two-level FIFO of pending queries. Not internally synchronized —
/// QueryService guards it (together with the slot table, so "pick a query
/// AND a device" is one atomic decision) under its own mutex.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(size_t max_size) : max_size_(max_size) {}

  size_t size() const { return high_.size() + normal_.size(); }
  bool empty() const { return size() == 0; }
  bool full() const { return size() >= max_size_; }

  /// Caller must check full() first.
  void Push(std::shared_ptr<QueuedQuery> query);

  /// Removes and returns the first query (priority order, FIFO within a
  /// level) for which `admit` returns true; nullptr when none qualifies.
  /// Skipped queries keep their position (`admit` may update their
  /// bookkeeping fields, e.g. deferral_epoch).
  std::shared_ptr<QueuedQuery> PopFirst(
      const std::function<bool(QueuedQuery&)>& admit);

  /// Removes and returns every query for which `evict` returns true, in
  /// queue order. Used for deadline eviction: the caller completes the
  /// evicted tickets (outside its lock if it prefers) — eviction must not
  /// depend on a worker happening to dispatch.
  std::vector<std::shared_ptr<QueuedQuery>> EvictIf(
      const std::function<bool(const QueuedQuery&)>& evict);

 private:
  size_t max_size_;
  std::deque<std::shared_ptr<QueuedQuery>> high_;
  std::deque<std::shared_ptr<QueuedQuery>> normal_;
};

/// Per-device lease slots: a device runs at most `slots_per_device`
/// concurrent queries (1 = exclusive, the default — timing stays exact; >1
/// shares the simulated device, results stay exact but per-query timing is
/// approximate). Not internally synchronized (see AdmissionQueue).
class DeviceSlotTable {
 public:
  DeviceSlotTable(size_t num_devices, size_t slots_per_device)
      : slots_per_device_(slots_per_device), active_(num_devices, 0) {}

  size_t num_devices() const { return active_.size(); }
  size_t active(DeviceId device) const {
    return active_[static_cast<size_t>(device)];
  }
  bool HasFree(DeviceId device) const {
    return active(device) < slots_per_device_;
  }
  void Acquire(DeviceId device) { ++active_[static_cast<size_t>(device)]; }
  void Release(DeviceId device) { --active_[static_cast<size_t>(device)]; }

  /// Least-loaded device with a free slot among `eligible` (empty = all);
  /// ties break to the lowest id. Returns -1 when every candidate is full.
  DeviceId PickLeastLoaded(const std::vector<DeviceId>& eligible) const;

  /// Like PickLeastLoaded, but candidates with a free slot are tried in
  /// ascending-load order (ties keep eligible-list order; ascending id when
  /// empty) and the first for which `fits` returns true wins — so e.g.
  /// budget headroom, not just slot counts, decides placement. Returns -1
  /// when no candidate passes; `had_free_slot` (optional) reports whether
  /// at least one device had a free slot, distinguishing "all slots busy"
  /// from "slots free but every candidate rejected".
  DeviceId PickLeastLoaded(const std::vector<DeviceId>& eligible,
                           const std::function<bool(DeviceId)>& fits,
                           bool* had_free_slot = nullptr) const;

  /// Multi-device variant for device-parallel leases: free-slot candidates
  /// are tried in ascending-load order and each one `fits` accepts joins
  /// the set, stopping at `count`. Returns the accepted devices sorted by
  /// id — possibly fewer than `count`, in which case the caller must undo
  /// whatever reservations its `fits` callback made for the partial set.
  std::vector<DeviceId> PickLeastLoadedSet(
      const std::vector<DeviceId>& eligible, size_t count,
      const std::function<bool(DeviceId)>& fits,
      bool* had_free_slot = nullptr) const;

 private:
  size_t slots_per_device_;
  std::vector<size_t> active_;
};

}  // namespace adamant

#endif  // ADAMANT_SERVICE_SCHEDULER_H_
