// The paper's headline claim: a new co-processor/SDK can be plugged into the
// executor without reworking any other component. This test integrates a
// fictional "NPU" driver purely through the public device interface and runs
// the unchanged TPC-H plans on it.

#include <gtest/gtest.h>

#include <numeric>

#include "adamant/adamant.h"

namespace adamant {
namespace {

/// Performance model for a made-up inference accelerator repurposed for
/// query processing: huge compute rate, modest interconnect.
sim::DevicePerfModel NpuModel() {
  sim::DevicePerfModel m;
  m.name = "npu";
  m.transfer = sim::TransferParams{4.0, 8.0, 4.0, 8.0, 20.0};
  m.kernel_launch_us = 2.0;
  m.per_arg_map_us = 0.0;
  m.host_call_us = 0.2;
  m.device_memory_bytes = size_t{16} << 30;
  m.pinned_memory_bytes = size_t{8} << 30;
  m.default_kernel = sim::KernelCostProfile{60000.0, 0, 0, 0};
  return m;
}

std::unique_ptr<SimulatedDevice> MakeNpu(std::shared_ptr<SimContext> ctx) {
  return std::make_unique<SimulatedDevice>("npu", NpuModel(),
                                           SdkFormat::kRaw,
                                           /*requires_compilation=*/false,
                                           std::move(ctx));
}

TEST(CustomDevice, PlugsInWithoutEngineChanges) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  config.include_dimension_tables = false;
  auto catalog = tpch::Generate(config);
  ASSERT_TRUE(catalog.ok());

  DeviceManager manager;
  auto npu = manager.AddDevice(MakeNpu(manager.sim_context()));
  ASSERT_TRUE(npu.ok());
  // The standard Table-I kernel library binds through the same interface
  // every built-in driver uses.
  ASSERT_TRUE(BindStandardKernels(manager.device(*npu)).ok());

  // Unchanged plans, unchanged executor, new device: all queries, all
  // execution models.
  for (auto model :
       {ExecutionModelKind::kChunked, ExecutionModelKind::kFourPhasePipelined}) {
    ExecutionOptions options;
    options.model = model;
    options.chunk_elems = 512;
    options.fusion = FusionMode::kOff;
    QueryExecutor executor(&manager);
    for (const char* name : {"6", "3"}) {
      auto query = sql::Prepare(name, **catalog, &manager, *npu, options);
      ASSERT_TRUE(query.ok()) << query.status().ToString();
      auto exec = executor.Run(query->bundle.graph.get(), options);
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      EXPECT_TRUE(query->Verify(*exec).ok()) << "Q" << name;
    }
  }
}

TEST(CustomDevice, CustomKernelVariantPluggable) {
  // Plug a specialized implementation of one primitive (the task layer's
  // "multiple implementation alternatives"): a map variant that also counts
  // how often it ran, registered only on this device.
  DeviceManager manager;
  auto npu = manager.AddDevice(MakeNpu(manager.sim_context()));
  ASSERT_TRUE(npu.ok());
  SimulatedDevice* device = manager.device(*npu);

  int invocations = 0;
  KernelContainer variant("map",
                          [&invocations](KernelExecContext* ctx) {
                            ++invocations;
                            return kernels::GetKernelFn("map")(ctx);
                          });
  device->RegisterPrecompiledKernel(variant.name(), variant.fn());
  // The rest of the library still comes from the standard binding; the
  // custom "map" shadows the precompiled default because prepared/explicit
  // registrations are looked up by name.
  for (const std::string& name : kernels::AllKernelNames()) {
    if (name != "map") {
      device->RegisterPrecompiledKernel(name, kernels::GetKernelFn(name));
    }
  }

  std::vector<int32_t> values(100);
  std::iota(values.begin(), values.end(), 0);
  PrimitiveGraph graph;
  NodeConfig mcfg;
  mcfg.map_op = MapOp::kMulScalar;
  mcfg.imm = 2;
  int m = graph.AddNode(PrimitiveKind::kMap, *npu, mcfg);
  NodeConfig acfg;
  acfg.agg_op = AggOp::kSum;
  int agg = graph.AddNode(PrimitiveKind::kAggBlock, *npu, acfg);
  ASSERT_TRUE(graph.ConnectScan(Column::FromVector("v", values), m, 0).ok());
  ASSERT_TRUE(graph.Connect(m, 0, agg, 0).ok());

  QueryExecutor executor(&manager);
  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  options.chunk_elems = 25;
  auto exec = executor.Run(&graph, options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(*exec->AggValue(agg), 2 * int64_t{99} * 100 / 2);
  EXPECT_EQ(invocations, 4) << "custom variant ran once per chunk";
}

TEST(CustomDevice, HeterogeneousManagerMixesDrivers) {
  // One manager holding a stock GPU and the custom NPU; a cross-device plan
  // (filter on GPU, aggregate on NPU) routes through the hub.
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  auto npu = manager.AddDevice(MakeNpu(manager.sim_context()));
  ASSERT_TRUE(gpu.ok() && npu.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*gpu)).ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*npu)).ok());

  std::vector<int32_t> values(1000);
  std::iota(values.begin(), values.end(), 0);
  auto col = Column::FromVector("v", values);
  PrimitiveGraph graph;
  NodeConfig fcfg;
  fcfg.cmp_op = CmpOp::kLt;
  fcfg.lo = 100;
  int f = graph.AddNode(PrimitiveKind::kFilterBitmap, *gpu, fcfg);
  int m = graph.AddNode(PrimitiveKind::kMaterialize, *gpu, {});
  NodeConfig acfg;
  acfg.agg_op = AggOp::kSum;
  int agg = graph.AddNode(PrimitiveKind::kAggBlock, *npu, acfg);
  ASSERT_TRUE(graph.ConnectScan(col, f, 0).ok());
  ASSERT_TRUE(graph.ConnectScan(col, m, 0).ok());
  ASSERT_TRUE(graph.Connect(f, 0, m, 1).ok());
  ASSERT_TRUE(graph.Connect(m, 0, agg, 0).ok());

  QueryExecutor executor(&manager);
  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  options.chunk_elems = 250;
  auto exec = executor.Run(&graph, options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(*exec->AggValue(agg), int64_t{99} * 100 / 2);
}

}  // namespace
}  // namespace adamant
