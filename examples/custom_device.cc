// Plugging a brand-new co-processor into ADAMANT (the paper's Section
// III-A2): implement the ten device-interface functions — here by
// configuring a SimulatedDevice with a custom performance model — bind the
// kernel library, and every existing plan and execution model works
// unchanged.
//
// The device modeled here is a fictional streaming FPGA card: modest clock,
// deep pipelines (high streaming rates, expensive "reconfiguration" =
// kernel preparation), narrow interconnect.

#include <cstdio>

#include "adamant/adamant.h"

using namespace adamant;  // NOLINT — example brevity

namespace {

sim::DevicePerfModel FpgaModel() {
  sim::DevicePerfModel m;
  m.name = "fpga_stream";
  // PCIe x8 card: slower link than the GPUs.
  m.transfer = sim::TransferParams{3.0, 6.0, 3.0, 6.0, /*latency=*/25.0};
  m.kernel_launch_us = 1.0;   // streaming starts almost instantly...
  m.kernel_compile_us = 2e6;  // ...but "compiling" = partial reconfiguration
  m.per_arg_map_us = 0.0;
  m.host_call_us = 0.4;
  m.device_memory_bytes = size_t{8} << 30;
  m.pinned_memory_bytes = size_t{4} << 30;
  // Deep pipelines stream simple primitives fast but hash badly.
  m.kernels["map"] = sim::KernelCostProfile{30000.0, 0, 0, 0};
  m.kernels["filter_bitmap"] = sim::KernelCostProfile{30000.0, 0, 0, 0};
  m.kernels["materialize"] = sim::KernelCostProfile{18000.0, 0, 0, 0};
  m.kernels["agg_block"] = sim::KernelCostProfile{28000.0, 0, 0, 0};
  m.kernels["hash_build"] = sim::KernelCostProfile{400.0, 0, 0.05, 0.05};
  m.kernels["hash_probe"] = sim::KernelCostProfile{600.0, 0, 0.05, 0.05};
  m.kernels["hash_agg"] = sim::KernelCostProfile{350.0, 0, 0.05, 0.05};
  m.default_kernel = sim::KernelCostProfile{5000.0, 0, 0, 0};
  return m;
}

}  // namespace

int main() {
  auto catalog = tpch::Generate({.scale_factor = 0.01});
  if (!catalog.ok()) return 1;

  DeviceManager manager;
  // The FPGA driver "runtime-compiles" its kernels: prepare_kernel models
  // the bitstream/overlay configuration, paid once at initialization — just
  // like ADAMANT compiles OpenCL kernels up front.
  auto fpga = manager.AddDevice(std::make_unique<SimulatedDevice>(
      "fpga_stream", FpgaModel(), SdkFormat::kRaw,
      /*requires_compilation=*/true, manager.sim_context()));
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  if (!fpga.ok() || !gpu.ok()) return 1;
  if (!BindStandardKernels(manager.device(*fpga)).ok()) return 1;
  if (!BindStandardKernels(manager.device(*gpu)).ok()) return 1;

  std::printf("Plugged devices:\n");
  for (size_t i = 0; i < manager.num_devices(); ++i) {
    const auto* dev = manager.device(static_cast<DeviceId>(i));
    std::printf("  [%zu] %-12s (runtime compilation: %s)\n", i,
                dev->name().c_str(),
                dev->requires_compilation() ? "yes" : "no");
  }

  // Same plans, same executor — only the device annotation changes.
  for (DeviceId device : {*fpga, *gpu}) {
    ExecutionOptions options;
    options.model = ExecutionModelKind::kFourPhaseChunked;
    auto q6 = sql::Prepare("6", **catalog, &manager, device, options);
    if (!q6.ok()) return 1;
    QueryExecutor executor(&manager);
    auto exec = executor.Run(q6->bundle.graph.get(), q6->options);
    if (!exec.ok()) {
      std::fprintf(stderr, "run failed: %s\n", exec.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "Q6 on %-12s: %10.3f ms simulated, revenue %s (4-phase, %zu chunks)\n",
        manager.device(device)->name().c_str(),
        sim::MsFromUs(exec->stats.elapsed_us),
        q6->Verify(*exec).ok() ? "correct" : "WRONG", exec->stats.chunks);
  }

  std::printf(
      "\nNo engine component changed: the FPGA was integrated purely by\n"
      "implementing the device layer's ten interface functions.\n");
  return 0;
}
