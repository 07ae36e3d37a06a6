#include "service/query_service.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "obs/chrome_trace.h"
#include "sql/prepare.h"
#include "obs/trace.h"
#include "runtime/exec/hetero_split.h"
#include "runtime/executor.h"

namespace adamant {

namespace {

double ElapsedMs(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

QueryService::QueryService(DeviceManager* manager, ServiceConfig config)
    : manager_(manager),
      config_(config),
      start_time_(std::chrono::steady_clock::now()),
      queue_(config.max_queue),
      slots_(manager->num_devices(), std::max<size_t>(config.slots_per_device, 1)),
      health_(manager->num_devices(), config.health),
      jitter_rng_(config.retry.jitter_seed) {
  // All counters live in the per-service registry; the pointers below are
  // stable for the service's lifetime and are incremented under mu_, so the
  // exact-count semantics of the old plain members are preserved.
  submitted_ = metrics_.GetCounter("adamant_service_submitted_total");
  admitted_ = metrics_.GetCounter("adamant_service_admitted_total");
  completed_ = metrics_.GetCounter("adamant_service_completed_total");
  failed_ = metrics_.GetCounter("adamant_service_failed_total");
  rejected_ = metrics_.GetCounter("adamant_service_rejected_total");
  budget_deferrals_ =
      metrics_.GetCounter("adamant_service_budget_deferrals_total");
  retries_ = metrics_.GetCounter("adamant_service_retries_total");
  requeues_ = metrics_.GetCounter("adamant_service_requeues_total");
  quarantines_ = metrics_.GetCounter("adamant_service_quarantines_total");
  fault_unwinds_ = metrics_.GetCounter("adamant_service_fault_unwinds_total");
  probes_ = metrics_.GetCounter("adamant_service_probes_total");
  shed_ = metrics_.GetCounter("adamant_service_shed_total");
  deadline_evictions_ =
      metrics_.GetCounter("adamant_service_deadline_evictions_total");
  watchdog_fires_ = metrics_.GetCounter("adamant_service_watchdog_fires_total");
  cancelled_ = metrics_.GetCounter("adamant_service_cancelled_total");
  slow_queries_ = metrics_.GetCounter("adamant_service_slow_queries_total");
  queue_wait_hist_ = metrics_.GetHistogram("adamant_service_queue_wait_ms",
                                           obs::LatencyBucketsMs());
  run_hist_ =
      metrics_.GetHistogram("adamant_service_run_ms", obs::LatencyBucketsMs());
  deadline_slack_hist_ = metrics_.GetHistogram(
      "adamant_service_deadline_slack_ms", obs::LatencyBucketsMs());
  for (size_t i = 0; i < manager->num_devices(); ++i) {
    const std::string& name = manager->device(static_cast<DeviceId>(i))->name();
    completed_by_device_.push_back(metrics_.GetCounter(
        "adamant_service_device_completed_total", "device", name));
    busy_ms_by_device_.push_back(
        metrics_.GetCounter("adamant_service_device_busy_ms_total", "device",
                            name));
  }
  size_t cache_budget = 0;
  if (config_.enable_cache) {
    cache_budget = config_.cache_budget_bytes;
    if (cache_budget == 0) {
      size_t min_capacity = std::numeric_limits<size_t>::max();
      for (size_t i = 0; i < manager->num_devices(); ++i) {
        min_capacity = std::min(
            min_capacity,
            manager->device(static_cast<DeviceId>(i))->device_arena().capacity());
      }
      cache_budget = min_capacity / 4;
    }
  }
  // The cache and query working sets compete for the same arenas, so the
  // default per-device admission budget leaves the cache its share:
  // capacity minus the cache budget (an explicit query_budget_bytes
  // overrides). Otherwise an admitted query could still OOM mid-run against
  // cache-resident bytes — the failure mode budgets exist to prevent.
  ledger_ = std::make_unique<MemoryLedger>(manager, config_.query_budget_bytes,
                                           cache_budget);
  if (config_.enable_cache) {
    cache_ = std::make_unique<DeviceColumnCache>(manager, cache_budget);
  }
  const size_t n = std::max<size_t>(config_.workers, 1);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  // The watchdog doubles as the deadline evictor, so it runs whenever
  // either duty is on. It only takes mu_ briefly per poll; with neither
  // deadlines nor watched runs present each poll is a no-op scan.
  if (config_.slo.watchdog_factor > 0 || config_.slo.evict_lapsed) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

QueryService::~QueryService() { Stop(); }

Result<std::shared_ptr<QueryTicket>> QueryService::Submit(QuerySpec spec) {
  if (!spec.sql.empty()) {
    if (spec.make_graph) {
      return Status::InvalidArgument(
          "QuerySpec.sql and QuerySpec.make_graph are exclusive");
    }
    if (spec.sql_catalog == nullptr) {
      return Status::InvalidArgument(
          "QuerySpec.sql requires QuerySpec.sql_catalog");
    }
    if (spec.name.empty()) spec.name = "sql";
  } else if (!spec.make_graph) {
    return Status::InvalidArgument("QuerySpec.make_graph is not set");
  }
  for (DeviceId device : spec.eligible_devices) {
    if (device < 0 ||
        static_cast<size_t>(device) >= manager_->num_devices()) {
      return Status::InvalidArgument("eligible device " +
                                     std::to_string(device) +
                                     " is not plugged");
    }
  }
  const size_t want = std::max<size_t>(spec.parallel_devices, 1);
  if (want > 1) {
    if (spec.options.model != ExecutionModelKind::kDeviceParallel) {
      return Status::InvalidArgument(
          spec.name + ": parallel_devices > 1 requires the device-parallel "
          "execution model");
    }
    const size_t pool = spec.eligible_devices.empty()
                            ? manager_->num_devices()
                            : spec.eligible_devices.size();
    if (want > pool) {
      return Status::InvalidArgument(
          spec.name + ": parallel_devices (" + std::to_string(want) +
          ") exceeds the eligible device pool (" + std::to_string(pool) +
          ")");
    }
  }

  // Footprint estimate for admission control: the plan's shape (and hence
  // its memory footprint) is device-independent, so estimate on the first
  // eligible device.
  const DeviceId probe_device =
      spec.eligible_devices.empty() ? 0 : spec.eligible_devices.front();
  std::unique_ptr<PrimitiveGraph> probe;
  if (!spec.sql.empty()) {
    sql::PlannerOptions planner_options;
    planner_options.manager = manager_;
    if (config_.collect_operator_stats) {
      // Recompiles of a served query name consult the selectivities its
      // earlier analyzed runs measured.
      planner_options.feedback = &feedback_;
      planner_options.feedback_name = spec.name;
    }
    // Served SQL runs unfused: clients read results through an unfused
    // lowering of the same text, and per-request fusion would shift the
    // service's kernel-body share of elapsed time.
    ExecutionOptions unfused = spec.options;
    unfused.fusion = FusionMode::kOff;
    ADAMANT_ASSIGN_OR_RETURN(
        sql::PreparedQuery prepared,
        sql::Prepare(spec.sql, *spec.sql_catalog, manager_, probe_device,
                     unfused, planner_options));
    spec.make_graph = prepared.GraphFactory();
    probe = std::move(prepared.bundle.graph);
  } else {
    ADAMANT_ASSIGN_OR_RETURN(probe, spec.make_graph(probe_device));
  }
  if (probe == nullptr) {
    return Status::InvalidArgument(spec.name + ": make_graph returned null");
  }
  ADAMANT_ASSIGN_OR_RETURN(
      size_t estimate,
      EstimateDeviceMemoryBytes(*probe, spec.options, manager_->data_scale()));
  // Sim-cost estimate on the same probe device, for deadline admission and
  // the watchdog budget. Best-effort: a failed estimate (0) just means the
  // calibration falls back to per-name history / the policy floor.
  double predicted_sim_us = 0;
  if (Result<double> cost = EstimateSimCostUs(
          *probe, spec.options, manager_->device(probe_device)->perf_model(),
          manager_->data_scale());
      cost.ok()) {
    predicted_sim_us = *cost;
  }

  // A query whose estimate exceeds every eligible budget would wait
  // forever — reject it up front. One that merely exceeds what is free
  // *right now* queues below.
  size_t max_budget = 0;
  auto consider = [&](DeviceId device) {
    max_budget = std::max(max_budget, ledger_->budget(device).capacity());
  };
  if (spec.eligible_devices.empty()) {
    for (size_t i = 0; i < manager_->num_devices(); ++i) {
      consider(static_cast<DeviceId>(i));
    }
  } else {
    for (DeviceId device : spec.eligible_devices) consider(device);
  }

  auto query = std::make_shared<QueuedQuery>();
  query->spec = std::move(spec);
  query->ticket = std::make_shared<QueryTicket>();
  query->ticket->name_ = query->spec.name;
  query->estimate_bytes = estimate;
  query->submit_time = std::chrono::steady_clock::now();
  query->predicted_sim_us = predicted_sim_us;
  if (query->spec.deadline_ms > 0) {
    query->has_deadline = true;
    query->deadline =
        query->submit_time +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(query->spec.deadline_ms));
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    submitted_->Increment();
    auto reject_event = [&](const char* reason) {
      rejected_->Increment();
      if (obs::TracingEnabled()) {
        obs::TraceInstant(obs::kServiceTrack, "reject",
                          "{\"query\":\"" + obs::JsonEscape(query->spec.name) +
                              "\",\"reason\":\"" + reason + "\"}");
      }
    };
    if (estimate > max_budget) {
      reject_event("estimate_over_budget");
      return Status::OutOfMemory(
          query->spec.name + ": footprint estimate (" +
          std::to_string(estimate) + " B) exceeds every eligible device's " +
          "memory budget (" + std::to_string(max_budget) + " B)");
    }
    if (stopping_) {
      reject_event("stopping");
      // Typed and transient: a client in front of several service replicas
      // can tell "try another replica" from a permanent plan error.
      return Status::Unavailable("service is stopping; submission rejected");
    }
    if (queue_.full()) {
      reject_event("queue_full");
      return Status::OutOfMemory("admission queue is full (" +
                                 std::to_string(config_.max_queue) + ")");
    }
    if (query->has_deadline && config_.slo.shed_on_admission) {
      // Shed, don't enqueue: when predicted run time plus predicted queue
      // wait already overshoots the deadline, enqueueing only burns a
      // device slot on work whose result nobody can use. Queue wait is
      // approximated as the backlog (queued + running) served at the
      // calibrated average run time across the worker pool.
      const double run_ms = PredictRunMs(*query);
      const double wait_ms =
          calibration_.avg_run_ms() *
          static_cast<double>(queue_.size() + active_) /
          static_cast<double>(std::max<size_t>(config_.workers, 1));
      if (run_ms + wait_ms > query->spec.deadline_ms) {
        shed_->Increment();
        if (obs::TracingEnabled()) {
          obs::TraceInstant(
              obs::kServiceTrack, "shed",
              "{\"query\":\"" + obs::JsonEscape(query->spec.name) +
                  "\",\"predicted_run_ms\":" + std::to_string(run_ms) +
                  ",\"predicted_wait_ms\":" + std::to_string(wait_ms) +
                  ",\"deadline_ms\":" +
                  std::to_string(query->spec.deadline_ms) + "}");
        }
        return Status::DeadlineExceeded(
            query->spec.name + ": shed at admission: predicted run " +
            std::to_string(run_ms) + " ms + queue wait " +
            std::to_string(wait_ms) + " ms exceeds the " +
            std::to_string(query->spec.deadline_ms) + " ms deadline");
      }
    }
    admitted_->Increment();
    if (obs::TracingEnabled()) {
      obs::TraceInstant(obs::kServiceTrack, "admit",
                        "{\"query\":\"" + obs::JsonEscape(query->spec.name) +
                            "\",\"estimate_bytes\":" +
                            std::to_string(estimate) + "}");
    }
    std::shared_ptr<QueryTicket> ticket = query->ticket;
    queue_.Push(std::move(query));
    dispatch_cv_.notify_one();
    return ticket;
  }
}

double QueryService::BackoffMs(size_t attempt) {
  const RetryPolicy& retry = config_.retry;
  double delay = retry.backoff_base_ms;
  for (size_t i = 1; i < attempt; ++i) delay *= retry.backoff_multiplier;
  delay = std::min(delay, retry.backoff_max_ms);
  if (retry.jitter_fraction > 0) {
    std::uniform_real_distribution<double> factor(
        1.0 - retry.jitter_fraction, 1.0 + retry.jitter_fraction);
    delay *= factor(jitter_rng_);
  }
  return delay;
}

void QueryService::WorkerLoop() {
  std::vector<DeviceId> candidates;
  for (;;) {
    std::shared_ptr<QueuedQuery> query;
    std::vector<DeviceId> placed;
    // The attempt's cancellation carrier. Minted fresh per attempt so a
    // watchdog cancellation of attempt N cannot leak into attempt N+1; a
    // client-supplied token (spec.options.cancel_token) is used as-is
    // instead, so external Cancel() reaches the run — at the price of
    // single-shot semantics (a watchdog trip then fails the query rather
    // than retrying, since the trip is sticky on the client's token).
    std::shared_ptr<CancelToken> minted;
    CancelToken* token = nullptr;
    uint64_t run_id = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        if (stopping_ && queue_.empty()) return;
        const auto now = std::chrono::steady_clock::now();
        // Deadline housekeeping first: work whose deadline (or client
        // token) already tripped must not consume the slot this worker is
        // about to lease.
        EvictLapsedLocked(now);
        if (stopping_ && queue_.empty()) return;
        // Earliest deadline at which a currently-skipped query (backoff) or
        // a quarantined device (probe cooldown) becomes dispatchable; when
        // nothing is dispatchable now, the wait below wakes at it instead
        // of sleeping forever with work pending.
        auto wake = std::chrono::steady_clock::time_point::max();
        // Pick-query-and-device atomically: first admissible query in
        // priority/FIFO order, placed on its least-loaded eligible device,
        // with the device budget reserved. A query blocked only by budget
        // stays queued (budget_deferrals) until a completion frees bytes.
        query = queue_.PopFirst([&](QueuedQuery& candidate) {
          if (candidate.not_before > now) {  // retry still backing off
            wake = std::min(wake, candidate.not_before);
            return false;
          }
          // Candidate devices: eligible ∩ placeable (health) ∖ excluded
          // (prior failed attempts). When the exclusions would cover every
          // placeable device they are dropped — a retry that has tried
          // everyone must be allowed back rather than starve.
          candidates.clear();
          auto placeable = [&](DeviceId d) {
            if (!health_.Placeable(d, now)) return false;
            candidates.push_back(d);
            return true;
          };
          if (candidate.spec.eligible_devices.empty()) {
            for (size_t i = 0; i < slots_.num_devices(); ++i) {
              placeable(static_cast<DeviceId>(i));
            }
          } else {
            for (DeviceId d : candidate.spec.eligible_devices) placeable(d);
          }
          if (candidates.empty()) return false;  // all quarantined: wait
          std::vector<DeviceId> allowed;
          for (DeviceId d : candidates) {
            if (std::find(candidate.excluded_devices.begin(),
                          candidate.excluded_devices.end(),
                          d) == candidate.excluded_devices.end()) {
              allowed.push_back(d);
            }
          }
          const size_t want =
              std::max<size_t>(candidate.spec.parallel_devices, 1);
          // Exclusions that leave fewer devices than the lease needs are
          // dropped (for want == 1 that is the empty case): a retry that
          // has tried everyone must be allowed back rather than starve.
          if (allowed.size() < want) allowed = candidates;
          auto fits = [&](DeviceId d) {
            return ledger_->budget(d).TryReserve(candidate.estimate_bytes);
          };
          auto defer = [&](bool had_free_slot) {
            // Blocked by budget (not slots): count the deferral once per
            // release epoch, not once per queue scan.
            if (had_free_slot && candidate.deferral_epoch != release_epoch_) {
              candidate.deferral_epoch = release_epoch_;
              budget_deferrals_->Increment();
            }
            return false;
          };
          bool had_free_slot = false;
          if (want == 1) {
            // Try free-slot devices in least-loaded order and take the
            // first whose budget also covers the estimate: a query that
            // fits only the larger of two budgets must not be pinned
            // forever to the smaller device by a slot-count tie-break.
            const DeviceId best =
                slots_.PickLeastLoaded(allowed, fits, &had_free_slot);
            if (best < 0) return defer(had_free_slot);
            placed.assign(1, best);
            return true;
          }
          // Multi-device lease: slot + per-device budget on `want` devices
          // at once, or nothing — a partial lease releases its
          // reservations and the query stays queued. The estimate is a
          // per-device bound (each partition holds every persist plus its
          // own transients), so the full amount is reserved on each.
          std::vector<DeviceId> set =
              slots_.PickLeastLoadedSet(allowed, want, fits, &had_free_slot);
          if (set.size() < want) {
            for (DeviceId d : set) {
              ledger_->budget(d).Release(candidate.estimate_bytes);
            }
            return defer(had_free_slot);
          }
          placed = std::move(set);
          return true;
        });
        if (query != nullptr) break;
        wake = std::min(wake, health_.NextProbeTime());
        if (wake == std::chrono::steady_clock::time_point::max()) {
          dispatch_cv_.wait(lock);
        } else {
          dispatch_cv_.wait_until(lock, wake);
        }
      }
      for (DeviceId d : placed) {
        slots_.Acquire(d);
        if (health_.OnPlaced(d)) {
          probes_->Increment();
          if (obs::TracingEnabled()) {
            obs::TraceInstant(obs::kServiceTrack, "probe",
                              "{\"device\":" + std::to_string(d) + "}");
          }
        }
        if (obs::TracingEnabled()) {
          obs::TraceInstant(
              obs::kServiceTrack, "place",
              "{\"query\":\"" + obs::JsonEscape(query->spec.name) +
                  "\",\"device\":" + std::to_string(d) +
                  ",\"attempt\":" + std::to_string(query->attempt + 1) + "}");
        }
      }
      ++query->attempt;
      if (query->attempt > 1) retries_->Increment();
      ++active_;

      token = query->spec.options.cancel_token;
      if (token == nullptr) {
        minted = std::make_shared<CancelToken>();
        token = minted.get();
      }
      if (query->has_deadline) token->SetDeadline(query->deadline);
      ActiveRun run;
      run.token = token;
      run.start = std::chrono::steady_clock::now();
      if (config_.slo.watchdog_factor > 0) {
        run.budget_ms = std::max(
            config_.slo.watchdog_factor * PredictRunMs(*query),
            config_.slo.min_watchdog_ms);
      }
      run.device = placed.front();
      run.name = query->spec.name;
      run_id = next_run_id_++;
      active_runs_.emplace(run_id, std::move(run));
    }

    const DeviceId primary = placed.front();
    const auto start = std::chrono::steady_clock::now();
    QueryStats run_stats;  // filled on every exit path, cancels included
    Result<QueryExecution> result = RunOne(*query, placed, token, &run_stats);
    const auto end = std::chrono::steady_clock::now();
    const bool ok = result.ok();
    const bool device_fault = !ok && result.status().device_id() >= 0;
    // Blame the device the status names when it is part of this lease (a
    // multi-device run fails with the faulting partition's id); otherwise
    // the primary.
    const DeviceId fault_device =
        device_fault && std::find(placed.begin(), placed.end(),
                                  result.status().device_id()) != placed.end()
            ? result.status().device_id()
            : primary;
    const double attempt_ms = ElapsedMs(start, end);
    bool requeued = false;

    const bool was_cancelled =
        !ok && (result.status().IsCancelled() ||
                result.status().IsDeadlineExceeded());

    {
      std::lock_guard<std::mutex> lock(mu_);
      active_runs_.erase(run_id);
      for (DeviceId d : placed) {
        slots_.Release(d);
        ledger_->budget(d).Release(query->estimate_bytes);
        busy_ms_by_device_[static_cast<size_t>(d)]->Add(attempt_ms);
      }
      ++release_epoch_;  // budget state changed: deferrals may count again
      --active_;
      if (was_cancelled) {
        cancelled_->Increment();
        if (obs::TracingEnabled()) {
          obs::TraceInstant(
              obs::kServiceTrack, "cancel",
              "{\"query\":\"" + obs::JsonEscape(query->spec.name) +
                  "\",\"cause\":\"" + CancelCauseToString(token->cause()) +
                  "\",\"attempt\":" + std::to_string(query->attempt) + "}");
        }
      }
      if (ok) {
        // Only clean completions calibrate: a cancelled run's wall time
        // says nothing about how long the query *would* have taken.
        calibration_.Observe(query->spec.name, query->predicted_sim_us,
                             attempt_ms);
      }
      if (ok) {
        for (DeviceId d : placed) {
          health_.OnSuccess(d);  // probe passed ⇒ device re-admitted
        }
      } else if (device_fault) {
        // The executor unwound a device-attributed failure; the device's
        // health record takes the blame, not the query's ticket (yet).
        fault_unwinds_->Increment();
        if (health_.OnFailure(fault_device, end)) {
          quarantines_->Increment();
          if (obs::TracingEnabled()) {
            obs::TraceInstant(obs::kServiceTrack, "quarantine",
                              "{\"device\":" + std::to_string(fault_device) +
                                  "}");
          }
        }
      }
      // A watchdog cancellation is retryable by design even though
      // kCancelled is not transient: the *run* was judged hung on that
      // device, not doomed — the straggler is excluded (device_fault path
      // above) and the retry lands elsewhere. Only service-minted tokens
      // qualify: a client token keeps its sticky cancelled state, so a
      // retry through it would die instantly.
      const bool watchdog_retry = minted != nullptr && was_cancelled &&
                                  token->cause() == CancelCause::kWatchdog;
      // User cancels and lapsed deadlines are final: retrying cannot
      // un-cancel or un-miss them.
      const bool final_cancel = was_cancelled && !watchdog_retry;
      const bool retryable =
          !ok && !final_cancel &&
          (result.status().IsTransient() || watchdog_retry ||
           !config_.retry.transient_only);
      if (retryable && query->attempt < config_.retry.max_attempts) {
        // Requeue with the failing device excluded and a backoff deadline.
        // The admission bound does not apply: a requeue re-enters work that
        // was already admitted, it does not add any.
        requeues_->Increment();
        if (obs::TracingEnabled()) {
          obs::TraceInstant(obs::kServiceTrack, "requeue",
                            "{\"query\":\"" +
                                obs::JsonEscape(query->spec.name) +
                                "\",\"attempt\":" +
                                std::to_string(query->attempt) + "}");
        }
        if (device_fault) query->excluded_devices.push_back(fault_device);
        query->not_before =
            end + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          BackoffMs(query->attempt)));
        query->deferral_epoch = 0;
        queue_.Push(query);
        requeued = true;
      } else {
        if (ok) {
          completed_->Increment();
          completed_by_device_[static_cast<size_t>(primary)]->Increment();
        } else {
          failed_->Increment();
        }
        query->ticket->placed_device_ = primary;
        query->ticket->placed_devices_ = placed;
        query->ticket->queue_wait_ms_ = ElapsedMs(query->submit_time, start);
        query->ticket->run_ms_ = attempt_ms;
        query->ticket->attempts_ = query->attempt;
        queue_wait_hist_->Observe(query->ticket->queue_wait_ms_);
        run_hist_->Observe(query->ticket->run_ms_);
        if (query->has_deadline) {
          // Slack = deadline minus completion, clamped at 0 — a miss lands
          // in the lowest bucket rather than going unrecorded.
          deadline_slack_hist_->Observe(
              std::max(0.0, ElapsedMs(end, query->deadline)));
        }
        if (ok) {
          // The runtime filled the rest of the profile; the queue wait is
          // only knowable here, at the service layer.
          (*result).stats.profile.queue_wait_ms =
              query->ticket->queue_wait_ms_;
        }
        if (ok && config_.collect_operator_stats) {
          // Close the loop: observed selectivities feed the next compile of
          // this query name, and every operator's predicted-vs-actual gap
          // lands in the adamant_plan_qerror_* histograms.
          feedback_.Observe(query->spec.name, run_stats.profile.operators);
          obs::RecordPlanQErrors(&metrics_, query->spec.name,
                                 run_stats.profile.operators);
        }
        if (ok) {
          // Split feedback: per-device predicted vs observed chunk cost
          // from a device-parallel run refines the next lease's split
          // ratios (device name, not id — the ratio transfers across
          // lease compositions).
          for (const auto& [dev, predicted] :
               run_stats.split_predicted_chunk_us) {
            auto it = run_stats.split_observed_chunk_us.find(dev);
            if (it == run_stats.split_observed_chunk_us.end()) continue;
            split_calibration_.Observe(
                manager_->device(static_cast<DeviceId>(dev))->name(),
                predicted, it->second);
          }
        }
        if (config_.history_capacity > 0) {
          QueryHistoryEntry entry;
          entry.id = ++history_seq_;
          entry.name = query->spec.name;
          entry.ok = ok;
          if (!ok) entry.error = result.status().ToString();
          entry.device = primary;
          entry.attempts = query->attempt;
          entry.queue_wait_ms = query->ticket->queue_wait_ms_;
          entry.run_ms = attempt_ms;
          entry.predicted_ms = PredictRunMs(*query);
          entry.deadline_ms = query->spec.deadline_ms;
          // Slow: over the deadline-fraction budget, or — deadline-less —
          // over the fleet p95 once enough runs make a p95 meaningful.
          if (query->has_deadline) {
            entry.slow = attempt_ms > config_.slow_query_fraction *
                                          query->spec.deadline_ms;
          } else {
            entry.slow = run_hist_->Count() >= 8 &&
                         attempt_ms > run_hist_->Quantile(0.95);
          }
          entry.profile = run_stats.profile;
          entry.profile.queue_wait_ms = query->ticket->queue_wait_ms_;
          if (entry.slow) {
            slow_queries_->Increment();
          } else {
            entry.profile.operators.clear();
          }
          history_.push_back(std::move(entry));
          while (history_.size() > config_.history_capacity) {
            history_.pop_front();
          }
          if (obs::TracingEnabled()) {
            // Both series are monotonic by construction (counter values),
            // which tools/check_trace verifies for every "C" event.
            obs::TraceCounter(
                obs::kServiceTrack, "service.queries",
                "{\"finished\":" + std::to_string(history_seq_) +
                    ",\"slow\":" +
                    std::to_string(
                        static_cast<uint64_t>(slow_queries_->Value())) +
                    "}");
          }
        }
      }
    }
    // A finished attempt freed a slot and budget bytes: every waiting
    // worker re-evaluates the queue (a deferred query may fit now).
    dispatch_cv_.notify_all();
    if (requeued) continue;
    idle_cv_.notify_all();
    query->ticket->Complete(std::move(result));
  }
}

double QueryService::PredictRunMs(const QueuedQuery& query) const {
  return calibration_.PredictWallMs(query.spec.name, query.predicted_sim_us,
                                    config_.slo.min_predicted_ms);
}

void QueryService::EvictLapsedLocked(
    std::chrono::steady_clock::time_point now) {
  if (!config_.slo.evict_lapsed) return;
  std::vector<std::shared_ptr<QueuedQuery>> lapsed =
      queue_.EvictIf([&](const QueuedQuery& q) {
        if (q.has_deadline && q.deadline <= now) return true;
        const CancelToken* t = q.spec.options.cancel_token;
        return t != nullptr && !t->Check().ok();
      });
  if (lapsed.empty()) return;
  for (const std::shared_ptr<QueuedQuery>& q : lapsed) {
    deadline_evictions_->Increment();
    failed_->Increment();
    q->ticket->queue_wait_ms_ = ElapsedMs(q->submit_time, now);
    q->ticket->attempts_ = q->attempt;
    if (obs::TracingEnabled()) {
      obs::TraceInstant(obs::kServiceTrack, "shed:evict",
                        "{\"query\":\"" + obs::JsonEscape(q->spec.name) +
                            "\",\"queued_ms\":" +
                            std::to_string(q->ticket->queue_wait_ms_) + "}");
    }
    Status cause;
    if (q->has_deadline && q->deadline <= now) {
      deadline_slack_hist_->Observe(0.0);
      cause = Status::DeadlineExceeded(
          q->spec.name + ": deadline lapsed after " +
          std::to_string(q->ticket->queue_wait_ms_) + " ms in queue");
    } else {
      cause = q->spec.options.cancel_token->Check();
    }
    q->ticket->Complete(std::move(cause));
  }
  idle_cv_.notify_all();
}

void QueryService::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    const auto now = std::chrono::steady_clock::now();
    // Lapsed queued work is evicted here too, so eviction keeps its
    // cadence even when every worker is pinned down by long runs.
    EvictLapsedLocked(now);
    for (auto& [id, run] : active_runs_) {
      if (run.budget_ms <= 0 || run.fired) continue;
      const double elapsed = ElapsedMs(run.start, now);
      if (elapsed <= run.budget_ms) continue;
      // Cancel once per run; the worker handles the unwound result
      // (DeviceHealth blame + retry elsewhere) when the run returns.
      run.fired = true;
      watchdog_fires_->Increment();
      if (obs::TracingEnabled()) {
        obs::TraceInstant(
            obs::kServiceTrack, "watchdog_fire",
            "{\"query\":\"" + obs::JsonEscape(run.name) +
                "\",\"device\":" + std::to_string(run.device) +
                ",\"elapsed_ms\":" + std::to_string(elapsed) +
                ",\"budget_ms\":" + std::to_string(run.budget_ms) + "}");
      }
      run.token->Cancel(CancelCause::kWatchdog,
                        run.name + ": " + std::to_string(elapsed) +
                            " ms elapsed against a " +
                            std::to_string(run.budget_ms) + " ms budget",
                        run.device);
    }
    watchdog_cv_.wait_for(lock, std::chrono::duration<double, std::milli>(
                                    config_.slo.watchdog_poll_ms));
  }
}

Result<QueryExecution> QueryService::RunOne(
    const QueuedQuery& query, const std::vector<DeviceId>& devices,
    CancelToken* token, QueryStats* stats_sink) {
  ADAMANT_ASSIGN_OR_RETURN(std::unique_ptr<PrimitiveGraph> graph,
                           query.spec.make_graph(devices.front()));
  if (graph == nullptr) {
    return Status::InvalidArgument(query.spec.name +
                                   ": make_graph returned null");
  }
  if (config_.collect_operator_stats) {
    // Feedback also lands on the physical plan: buffer-sizing selectivities
    // are replaced with peaks observed by earlier runs of this query name
    // (covers hand-built make_graph plans, which never pass the planner).
    feedback_.ApplyToGraph(query.spec.name, graph.get());
  }
  ExecutionOptions options = query.spec.options;
  options.cancel_token = token;
  options.scan_cache = cache_.get();
  options.memory_listener = ledger_.get();
  if (options.model == ExecutionModelKind::kDeviceParallel) {
    // The scheduler, not the submitter, decides which devices the chunk
    // range splits across — whatever device_set the spec carried is
    // replaced by the leased set.
    options.device_set = devices;
    std::vector<double> explicit_split = std::move(options.device_split);
    options.device_split.clear();
    if (devices.size() > 1 && explicit_split.size() == devices.size()) {
      // An explicit submitter split (run_tpch --split, forced-imbalance
      // experiments) overrides the cost model, but only when it lines up
      // with the leased set one-to-one — a split sized for a different
      // device_set than the scheduler granted is meaningless.
      options.device_split =
          exec::NormalizeSplit(std::move(explicit_split), devices.size());
    } else if (devices.size() > 1) {
      // Cost-ratio split over the leased set — heterogeneous leases (mixed
      // device classes) get throughput-proportional shares instead of the
      // driver's raw model estimate, rescaled by what earlier runs actually
      // observed per device (split_calibration_). A device whose calibrated
      // share is negligible is dropped from the partition set entirely: its
      // slot stays leased (the scheduler already charged it), but running a
      // sliver partition would cost more in merge round-trips than the
      // sliver saves.
      auto estimates =
          exec::EstimateDeviceCosts(*graph, manager_, devices, options);
      if (estimates.ok()) {
        std::vector<double> weights = exec::ThroughputWeights(*estimates);
        std::vector<std::string> names;
        names.reserve(devices.size());
        for (DeviceId d : devices) names.push_back(manager_->device(d)->name());
        weights = split_calibration_.CalibrateWeights(names, std::move(weights));
        constexpr double kMinShare = 0.04;
        std::vector<DeviceId> kept;
        std::vector<double> kept_weights;
        for (size_t i = 0; i < devices.size(); ++i) {
          if (weights[i] >= kMinShare) {
            kept.push_back(devices[i]);
            kept_weights.push_back(weights[i]);
          }
        }
        if (!kept.empty() && kept.size() < devices.size()) {
          options.device_set = kept;
          weights = exec::NormalizeSplit(std::move(kept_weights), kept.size());
        }
        options.device_split = std::move(weights);
      }
    }
  }
  // With exclusive device leases each run may reset its device's clocks and
  // counters; with shared devices that would clobber a neighbour mid-run.
  options.reset_device_state = config_.slots_per_device <= 1;
  // Every served query carries its phase profile on the ticket; collection
  // is a handful of clock reads per pipeline, so it is always on here.
  options.collect_profile = true;
  // EXPLAIN ANALYZE: the operator tree rides the stats sink so it survives
  // error and cancel exits (Result<> carries no stats on failure).
  options.collect_operator_stats = config_.collect_operator_stats;
  options.stats_sink = stats_sink;
  QueryExecutor executor(manager_);
  return executor.Run(graph.get(), options);
}

void QueryService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void QueryService::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  dispatch_cv_.notify_all();
  watchdog_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (watchdog_.joinable()) watchdog_.join();
}

ServiceStats QueryService::GetStats() const {
  ServiceStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Every exported value is read back from the metrics registry — the
    // same instruments the Prometheus/JSON expositions serialize — so the
    // two views cannot drift. Counters are integral by construction.
    auto count = [](const obs::Counter* c) {
      return static_cast<size_t>(c->Value());
    };
    stats.submitted = count(submitted_);
    stats.admitted = count(admitted_);
    stats.completed = count(completed_);
    stats.failed = count(failed_);
    stats.rejected = count(rejected_);
    stats.budget_deferrals = count(budget_deferrals_);
    stats.retries = count(retries_);
    stats.requeues = count(requeues_);
    stats.quarantines = count(quarantines_);
    stats.fault_unwinds = count(fault_unwinds_);
    stats.probes = count(probes_);
    stats.shed = count(shed_);
    stats.deadline_evictions = count(deadline_evictions_);
    stats.watchdog_fires = count(watchdog_fires_);
    stats.cancelled = count(cancelled_);
    stats.slow_queries = count(slow_queries_);
    stats.queued = queue_.size();
    stats.active = active_;
    stats.wall_seconds =
        ElapsedMs(start_time_, std::chrono::steady_clock::now()) / 1000.0;
    stats.queue_wait_p50_ms = queue_wait_hist_->Quantile(0.50);
    stats.queue_wait_p95_ms = queue_wait_hist_->Quantile(0.95);
    stats.run_p50_ms = run_hist_->Quantile(0.50);
    stats.run_p95_ms = run_hist_->Quantile(0.95);
    const double wall_ms = stats.wall_seconds * 1e3;
    stats.devices.resize(manager_->num_devices());
    for (size_t i = 0; i < manager_->num_devices(); ++i) {
      ServiceStats::DeviceEntry& entry = stats.devices[i];
      entry.name = manager_->device(static_cast<DeviceId>(i))->name();
      entry.completed = count(completed_by_device_[i]);
      entry.busy_fraction =
          wall_ms > 0 ? busy_ms_by_device_[i]->Value() / wall_ms : 0;
      const MemoryBudget& budget =
          ledger_->budget(static_cast<DeviceId>(i));
      entry.budget_capacity = budget.capacity();
      entry.budget_reserved = budget.reserved();
      entry.live_high_water = budget.live_high_water();
      entry.quarantined = health_.quarantined(static_cast<DeviceId>(i));
      entry.consecutive_failures =
          health_.consecutive_failures(static_cast<DeviceId>(i));
    }
  }
  if (cache_ != nullptr) stats.cache = cache_->GetStats();
  return stats;
}

std::string QueryHistoryEntry::ToJson() const {
  std::ostringstream out;
  out << "{\"id\":" << id << ",\"name\":\"" << obs::JsonEscape(name) << "\""
      << ",\"ok\":" << (ok ? "true" : "false");
  if (!error.empty()) {
    out << ",\"error\":\"" << obs::JsonEscape(error) << "\"";
  }
  out << ",\"device\":" << device << ",\"attempts\":" << attempts
      << ",\"queue_wait_ms\":" << queue_wait_ms << ",\"run_ms\":" << run_ms
      << ",\"predicted_ms\":" << predicted_ms;
  if (deadline_ms > 0) out << ",\"deadline_ms\":" << deadline_ms;
  out << ",\"slow\":" << (slow ? "true" : "false")
      << ",\"profile\":" << profile.ToJson() << "}";
  return out.str();
}

std::string QueryService::HistoryJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\"capacity\":" << config_.history_capacity
      << ",\"finished\":" << history_seq_
      << ",\"slow_queries\":"
      << static_cast<uint64_t>(slow_queries_->Value()) << ",\"entries\":[";
  // Newest first: the slow query someone is hunting is usually recent.
  bool first = true;
  for (auto it = history_.rbegin(); it != history_.rend(); ++it) {
    if (!first) out << ",";
    first = false;
    out << it->ToJson();
  }
  out << "],\"feedback\":" << feedback_.ToJson() << "}";
  return out.str();
}

std::string ServiceStats::ToJson() const {
  std::ostringstream out;
  out << "{";
  out << "\"submitted\":" << submitted << ",\"admitted\":" << admitted
      << ",\"completed\":" << completed << ",\"failed\":" << failed
      << ",\"rejected\":" << rejected
      << ",\"budget_deferrals\":" << budget_deferrals
      << ",\"retries\":" << retries << ",\"requeues\":" << requeues
      << ",\"quarantines\":" << quarantines
      << ",\"fault_unwinds\":" << fault_unwinds << ",\"probes\":" << probes
      << ",\"shed\":" << shed
      << ",\"deadline_evictions\":" << deadline_evictions
      << ",\"watchdog_fires\":" << watchdog_fires
      << ",\"cancelled\":" << cancelled
      << ",\"slow_queries\":" << slow_queries
      << ",\"queued\":" << queued << ",\"active\":" << active
      << ",\"wall_seconds\":" << wall_seconds
      << ",\"queue_wait_p50_ms\":" << queue_wait_p50_ms
      << ",\"queue_wait_p95_ms\":" << queue_wait_p95_ms
      << ",\"run_p50_ms\":" << run_p50_ms << ",\"run_p95_ms\":" << run_p95_ms;
  out << ",\"devices\":[";
  for (size_t i = 0; i < devices.size(); ++i) {
    const DeviceEntry& entry = devices[i];
    if (i > 0) out << ",";
    out << "{\"name\":\"" << entry.name << "\""
        << ",\"completed\":" << entry.completed
        << ",\"busy_fraction\":" << entry.busy_fraction
        << ",\"budget_capacity\":" << entry.budget_capacity
        << ",\"budget_reserved\":" << entry.budget_reserved
        << ",\"live_high_water\":" << entry.live_high_water
        << ",\"quarantined\":" << (entry.quarantined ? "true" : "false")
        << ",\"consecutive_failures\":" << entry.consecutive_failures << "}";
  }
  out << "]";
  out << ",\"cache\":{\"hits\":" << cache.hits
      << ",\"misses\":" << cache.misses << ",\"bypasses\":" << cache.bypasses
      << ",\"evictions\":" << cache.evictions
      << ",\"inserts\":" << cache.inserts
      << ",\"invalidations\":" << cache.invalidations
      << ",\"bytes_saved\":" << cache.bytes_saved
      << ",\"resident_bytes\":" << cache.resident_bytes
      << ",\"entries\":" << cache.entries;
  const size_t lookups = cache.hits + cache.misses + cache.bypasses;
  out << ",\"hit_rate\":"
      << (lookups > 0 ? static_cast<double>(cache.hits) /
                            static_cast<double>(lookups)
                      : 0.0)
      << "}}";
  return out.str();
}

}  // namespace adamant
