// End-to-end smoke: generate TPC-H, run Q6 on the CUDA driver under every
// execution model, compare against the scalar reference.

#include <gtest/gtest.h>

#include "adamant/adamant.h"

namespace adamant {
namespace {

TEST(Smoke, Q6AllModels) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  config.include_dimension_tables = false;
  auto catalog = tpch::Generate(config);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

  tpch::Q6Params params;
  auto expected = tpch::Q6Reference(**catalog, params);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(gpu.ok()) << gpu.status().ToString();
  ASSERT_TRUE(BindStandardKernels(manager.device(*gpu)).ok());

  for (ExecutionModelKind model :
       {ExecutionModelKind::kOperatorAtATime, ExecutionModelKind::kChunked,
        ExecutionModelKind::kPipelined, ExecutionModelKind::kFourPhaseChunked,
        ExecutionModelKind::kFourPhasePipelined}) {
    ExecutionOptions options;
    options.model = model;
    options.chunk_elems = 1024;  // force many chunks at this tiny scale
    options.fusion = FusionMode::kOff;
    auto q6 = sql::Prepare("6", **catalog, &manager, *gpu, options);
    ASSERT_TRUE(q6.ok()) << q6.status().ToString();

    QueryExecutor executor(&manager);
    auto exec = executor.Run(q6->bundle.graph.get(), options);
    ASSERT_TRUE(exec.ok()) << ExecutionModelName(model) << ": "
                           << exec.status().ToString();
    auto revenue = plan::ExtractQ6(q6->bundle, *exec);
    ASSERT_TRUE(revenue.ok()) << revenue.status().ToString();
    EXPECT_EQ(*revenue, *expected) << ExecutionModelName(model);
    EXPECT_GT(exec->stats.elapsed_us, 0) << ExecutionModelName(model);
  }
}

}  // namespace
}  // namespace adamant
