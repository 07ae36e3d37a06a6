#ifndef ADAMANT_DEVICE_DEVICE_MANAGER_H_
#define ADAMANT_DEVICE_DEVICE_MANAGER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "device/fault_injector.h"
#include "device/sim_context.h"
#include "device/sim_device.h"
#include "sim/presets.h"

namespace adamant {

/// Index of a plugged device within a DeviceManager; the runtime annotates
/// primitive-graph edges with DeviceIds (the paper's "device ID").
using DeviceId = int;
constexpr DeviceId kHostDevice = -1;

/// Owns every plugged co-processor of one executor instance. Devices are
/// added either from the built-in driver presets or as arbitrary
/// SimulatedDevice instances (the plug-in path exercised by
/// examples/custom_device.cc).
class DeviceManager {
 public:
  explicit DeviceManager(
      sim::HardwareSetup setup = sim::HardwareSetup::kSetup1);

  /// Plugs an already-constructed device. The device must share this
  /// manager's SimContext (pass sim_context() at construction).
  Result<DeviceId> AddDevice(std::unique_ptr<SimulatedDevice> device);

  /// Plugs one of the four paper drivers on this manager's setup.
  Result<DeviceId> AddDriver(sim::DriverKind kind);

  /// AddDriver with an explicit device name, for plugging several instances
  /// of the same driver (e.g. a serving pool of identical GPUs).
  Result<DeviceId> AddDriver(sim::DriverKind kind, const std::string& name);

  /// AddDriver with a fault-injection plan layered on (see
  /// device/fault_injector.h): the plugged device fails or stalls chosen
  /// interface calls per the seeded plan. Everything above the device layer
  /// runs unmodified — that is the point.
  Result<DeviceId> AddDriver(sim::DriverKind kind, const std::string& name,
                             FaultPlan plan);

  Result<SimulatedDevice*> GetDevice(DeviceId id) const;
  Result<DeviceId> FindByName(const std::string& name) const;
  SimulatedDevice* device(DeviceId id) const { return devices_.at(id).get(); }
  size_t num_devices() const { return devices_.size(); }
  sim::HardwareSetup setup() const { return setup_; }

  std::shared_ptr<SimContext> sim_context() const { return ctx_; }
  /// See SimContext::data_scale.
  void SetDataScale(double scale) { ctx_->data_scale = scale; }
  double data_scale() const { return ctx_->data_scale; }

  /// Resets simulated time on every device.
  void ResetAllTimelines();
  /// Latest completion time across all devices.
  sim::SimTime MaxCompletion() const;

 private:
  sim::HardwareSetup setup_;
  std::shared_ptr<SimContext> ctx_;
  std::vector<std::unique_ptr<SimulatedDevice>> devices_;
};

}  // namespace adamant

#endif  // ADAMANT_DEVICE_DEVICE_MANAGER_H_
