#ifndef ADAMANT_DEVICE_RUN_LEDGER_H_
#define ADAMANT_DEVICE_RUN_LEDGER_H_

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <vector>

#include "obs/profile.h"
#include "sim/sim_time.h"

namespace adamant {

class SimulatedDevice;

using DeviceRunStats = obs::DeviceRunStats;

/// Busy time booked on one device while one pipeline was open.
struct PipelineBusy {
  sim::SimTime h2d_us = 0;
  sim::SimTime d2h_us = 0;
  sim::SimTime compute_us = 0;
};

/// One account of simulated cost on one device: a run's share of it, or the
/// device's own running total. SimulatedDevice charges it under its call
/// mutex as it books each operation.
struct DeviceCharges {
  /// Busy, kernel body, wire time, call counts, launches and arena peaks.
  DeviceRunStats stats;
  /// Where the run joined the device clock, and the latest completion it
  /// booked there (engine or host cursor): its elapsed time on the device.
  sim::SimTime joined_at = 0;
  sim::SimTime completion = 0;
  /// Busy time by pipeline index (RunLedger::set_pipeline).
  std::vector<PipelineBusy> pipelines;

  sim::SimTime busy_us() const {
    return stats.h2d_busy_us + stats.d2h_busy_us + stats.compute_busy_us;
  }

  /// Books `duration` on the engine `total`/`slice` name, ending at `end`,
  /// against pipeline `pipeline` (-1: none open).
  void Book(sim::SimTime duration, sim::SimTime end, int pipeline,
            sim::SimTime DeviceRunStats::*total,
            sim::SimTime PipelineBusy::*slice) {
    stats.*total += duration;
    completion = std::max(completion, end);
    if (pipeline < 0) return;
    const size_t index = static_cast<size_t>(pipeline);
    if (pipelines.size() <= index) pipelines.resize(index + 1);
    pipelines[index].*slice += duration;
  }
};

/// The run-scoped accounting source: every simulated cost of one query run,
/// per device. A run installs its ledger on each thread that issues its
/// device calls (RunLedger::Scope), and SimulatedDevice charges the ledger
/// current on the calling thread, so runs sharing a device keep disjoint
/// accounts.
class RunLedger {
 public:
  /// The ledger device calls on this thread charge, or nullptr.
  static RunLedger* Current() { return CurrentSlot(); }

  /// Makes `ledger` this thread's current ledger until the scope ends.
  class Scope {
   public:
    explicit Scope(RunLedger* ledger) : previous_(CurrentSlot()) {
      CurrentSlot() = ledger;
    }
    ~Scope() { CurrentSlot() = previous_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    RunLedger* previous_;
  };

  /// `device`'s account, created on first use. The reference stays valid
  /// for the ledger's lifetime; the device mutates it under its call mutex,
  /// and the run reads it between its own device calls.
  DeviceCharges& Charges(const SimulatedDevice* device) {
    std::lock_guard<std::mutex> lock(mu_);
    return devices_[device];
  }

  /// The pipeline that busy time is attributed to from now on.
  void set_pipeline(int index) { pipeline_.store(index); }
  int pipeline() const { return pipeline_.load(); }

 private:
  static RunLedger*& CurrentSlot() {
    thread_local RunLedger* current = nullptr;
    return current;
  }

  std::mutex mu_;  // guards the map's shape, not the accounts
  std::map<const SimulatedDevice*, DeviceCharges> devices_;
  std::atomic<int> pipeline_{-1};
};

}  // namespace adamant

#endif  // ADAMANT_DEVICE_RUN_LEDGER_H_
