// Quickstart: plug a simulated GPU into ADAMANT, run TPC-H Q6 chunked, and
// print the revenue plus an execution-time breakdown.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build --target quickstart
//   ./build/examples/quickstart

#include <cstdio>

#include "adamant/adamant.h"

using namespace adamant;  // NOLINT — example brevity

int main() {
  // 1) Generate a small TPC-H instance (dates as day numbers, money as
  //    int64 cents, strings dictionary-encoded).
  tpch::TpchConfig config;
  config.scale_factor = 0.01;
  auto catalog = tpch::Generate(config);
  if (!catalog.ok()) {
    std::fprintf(stderr, "generate: %s\n", catalog.status().ToString().c_str());
    return 1;
  }

  // 2) Plug a co-processor. A driver is just an implementation of the ten
  //    device-interface functions; here we use the built-in CUDA-like GPU
  //    driver on the paper's Setup 1 (RTX 2080 Ti).
  DeviceManager manager(sim::HardwareSetup::kSetup1);
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  if (!gpu.ok()) return 1;
  // Install the Table-I kernel library on the device (OpenCL drivers would
  // runtime-compile these through prepare_kernel).
  if (auto st = BindStandardKernels(manager.device(*gpu)); !st.ok()) return 1;

  // 3) Prepare the query: sql::Prepare compiles registry query "6" (the
  //    q6 SQL builtin) into a primitive graph annotated with the device —
  //    what an optimizer hands the runtime — fusing it where the device's
  //    cost model predicts a win. Then execute it chunked.
  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  options.chunk_elems = size_t{1} << 25;  // the paper's chunk size
  auto q6 = sql::Prepare("6", **catalog, &manager, *gpu, options);
  if (!q6.ok()) {
    std::fprintf(stderr, "prepare: %s\n", q6.status().ToString().c_str());
    return 1;
  }

  QueryExecutor executor(&manager);
  auto exec = executor.Run(q6->bundle.graph.get(), q6->options);
  if (!exec.ok()) {
    std::fprintf(stderr, "run: %s\n", exec.status().ToString().c_str());
    return 1;
  }

  auto revenue = plan::ExtractQ6(q6->bundle, *exec);
  auto reference = tpch::Q6Reference(**catalog, {});
  if (!revenue.ok() || !reference.ok()) return 1;

  std::printf("TPC-H Q6 @ SF %.2f on %s (%s)\n", config.scale_factor,
              manager.device(*gpu)->name().c_str(),
              ExecutionModelName(options.model));
  std::printf("  revenue            : %.2f (reference %.2f)  %s\n",
              MoneyToDouble(*revenue), MoneyToDouble(*reference),
              *revenue == *reference ? "MATCH" : "MISMATCH");
  std::printf("  simulated elapsed  : %.3f ms\n",
              sim::MsFromUs(exec->stats.elapsed_us));
  std::printf("  kernel bodies      : %.3f ms\n",
              sim::MsFromUs(exec->stats.kernel_body_us));
  std::printf("  transfer wire time : %.3f ms\n",
              sim::MsFromUs(exec->stats.transfer_wire_us));
  std::printf("  chunks             : %zu\n", exec->stats.chunks);
  std::printf("  bytes H2D          : %zu\n", exec->stats.bytes_h2d);
  return *revenue == *reference ? 0 : 2;
}
