#include "device/device_manager.h"

#include <algorithm>

#include "device/drivers.h"

namespace adamant {

DeviceManager::DeviceManager(sim::HardwareSetup setup)
    : setup_(setup), ctx_(std::make_shared<SimContext>()) {}

Result<DeviceId> DeviceManager::AddDevice(
    std::unique_ptr<SimulatedDevice> device) {
  if (device == nullptr) return Status::InvalidArgument("null device");
  for (const auto& existing : devices_) {
    if (existing->name() == device->name()) {
      return Status::AlreadyExists("device '" + device->name() + "'");
    }
  }
  ADAMANT_RETURN_NOT_OK(device->Initialize());
  devices_.push_back(std::move(device));
  return static_cast<DeviceId>(devices_.size() - 1);
}

Result<DeviceId> DeviceManager::AddDriver(sim::DriverKind kind) {
  return AddDevice(MakeDriver(kind, setup_, ctx_));
}

Result<DeviceId> DeviceManager::AddDriver(sim::DriverKind kind,
                                          const std::string& name) {
  std::unique_ptr<SimulatedDevice> device = MakeDriver(kind, setup_, ctx_);
  device->set_name(name);
  return AddDevice(std::move(device));
}

Result<DeviceId> DeviceManager::AddDriver(sim::DriverKind kind,
                                          const std::string& name,
                                          FaultPlan plan) {
  std::unique_ptr<FaultInjectingDevice> device =
      MakeFaultInjectingDriver(kind, setup_, ctx_, std::move(plan));
  device->set_name(name);
  return AddDevice(std::move(device));
}

Result<SimulatedDevice*> DeviceManager::GetDevice(DeviceId id) const {
  if (id < 0 || static_cast<size_t>(id) >= devices_.size()) {
    return Status::NotFound("device id " + std::to_string(id));
  }
  return devices_[static_cast<size_t>(id)].get();
}

Result<DeviceId> DeviceManager::FindByName(const std::string& name) const {
  for (size_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i]->name() == name) return static_cast<DeviceId>(i);
  }
  return Status::NotFound("device '" + name + "'");
}

void DeviceManager::ResetAllTimelines() {
  for (auto& device : devices_) device->ResetTimelines();
}

sim::SimTime DeviceManager::MaxCompletion() const {
  sim::SimTime latest = 0;
  for (const auto& device : devices_) {
    latest = std::max(latest, device->MaxCompletion());
  }
  return latest;
}

}  // namespace adamant
