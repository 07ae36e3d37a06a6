#ifndef ADAMANT_BENCH_BENCH_UTIL_H_
#define ADAMANT_BENCH_BENCH_UTIL_H_

// Shared scaffolding for the figure-reproduction benchmarks.
//
// All benchmarks report *simulated* time: runs execute the real kernels on
// scaled-down data while the device models charge nominal-size costs (see
// DESIGN.md §2). google-benchmark's manual-time mode is fed the simulated
// seconds, so the reported "time" columns are simulated durations.

#include <memory>
#include <string>

#include "adamant/adamant.h"

namespace adamant::bench {

/// Actual generated scale factor; benchmarks set DeviceManager::data_scale
/// to nominal_sf / kActualSf.
constexpr double kActualSf = 0.02;

inline const Catalog& SharedCatalog() {
  static const Catalog* const kCatalog = [] {
    tpch::TpchConfig config;
    config.scale_factor = kActualSf;
    config.include_dimension_tables = false;
    auto catalog = tpch::Generate(config);
    ADAMANT_CHECK(catalog.ok()) << catalog.status().ToString();
    return new Catalog(**catalog);
  }();
  return *kCatalog;
}

struct BenchRig {
  std::unique_ptr<DeviceManager> manager;
  DeviceId device = 0;

  static BenchRig Make(sim::DriverKind kind,
                       sim::HardwareSetup setup = sim::HardwareSetup::kSetup1,
                       double nominal_sf = kActualSf) {
    BenchRig rig;
    rig.manager = std::make_unique<DeviceManager>(setup);
    rig.manager->SetDataScale(nominal_sf / kActualSf);
    auto device = rig.manager->AddDriver(kind);
    ADAMANT_CHECK(device.ok()) << device.status().ToString();
    rig.device = *device;
    ADAMANT_CHECK(BindStandardKernels(rig.manager->device(*device)).ok());
    return rig;
  }

  SimulatedDevice* dev() const { return manager->device(device); }
};

/// Prepares registry query `query` (sql::Prepare) unfused — the figure
/// benches measure individual primitives — and aborts on failure. Run the
/// bundle once, or take fresh graphs from GraphFactory().
inline sql::PreparedQuery PrepareQuery(int query, const Catalog& catalog,
                                       DeviceManager* manager,
                                       DeviceId device) {
  ExecutionOptions options;
  options.fusion = FusionMode::kOff;
  auto prepared = sql::Prepare(std::to_string(query), catalog, manager,
                               device, options);
  ADAMANT_CHECK(prepared.ok()) << "Q" << query << ": "
                               << prepared.status().ToString();
  return std::move(*prepared);
}

}  // namespace adamant::bench

#endif  // ADAMANT_BENCH_BENCH_UTIL_H_
