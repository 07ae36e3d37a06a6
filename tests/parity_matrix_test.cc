// Cross-model parity matrix: Q3/Q4/Q6 must produce bit-identical extracted
// results under every execution model — including device-parallel split
// across two simulated devices — and the admission-control footprint
// estimate must upper-bound the observed device memory high water for each
// model (the invariant the service layer's budgets rely on).

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "adamant/adamant.h"

namespace adamant {
namespace {

struct MatrixFixture {
  std::shared_ptr<Catalog> catalog;

  static const MatrixFixture& Get() {
    static const MatrixFixture* const kFixture = [] {
      auto* fixture = new MatrixFixture();
      tpch::TpchConfig config;
      config.scale_factor = 0.002;
      auto catalog = tpch::Generate(config);
      ADAMANT_CHECK(catalog.ok()) << catalog.status().ToString();
      fixture->catalog = *catalog;
      return fixture;
    }();
    return *kFixture;
  }
};

const ExecutionModelKind kAllModels[] = {
    ExecutionModelKind::kOperatorAtATime,
    ExecutionModelKind::kChunked,
    ExecutionModelKind::kPipelined,
    ExecutionModelKind::kFourPhaseChunked,
    ExecutionModelKind::kFourPhasePipelined,
    ExecutionModelKind::kDeviceParallel,
};

// Two identical simulated GPUs: models run on device 0; device-parallel
// splits across both.
std::unique_ptr<DeviceManager> TwoGpuManager() {
  auto manager = std::make_unique<DeviceManager>();
  for (int i = 0; i < 2; ++i) {
    auto device = manager->AddDriver(sim::DriverKind::kCudaGpu,
                                     "cuda_gpu." + std::to_string(i));
    ADAMANT_CHECK(device.ok()) << device.status().ToString();
    ADAMANT_CHECK(BindStandardKernels(manager->device(*device)).ok());
  }
  return manager;
}

ExecutionOptions OptionsFor(
    ExecutionModelKind model,
    KernelVariantRequest variant = KernelVariantRequest::kAuto) {
  ExecutionOptions options;
  options.model = model;
  options.chunk_elems = 1024;  // several chunks even at SF 0.002
  options.kernel_variant = variant;
  if (model == ExecutionModelKind::kDeviceParallel) {
    options.device_set = {0, 1};
  }
  if (model == ExecutionModelKind::kPipelined ||
      model == ExecutionModelKind::kFourPhasePipelined) {
    options.pipeline_depth = 2;
  }
  return options;
}

// The matrix runs registry queries 3, 4 and 6 (hand-built Q3, SQL Q4/Q6).
const char* const kQueries[] = {"3", "4", "6"};

// CI's sanitizer job reruns this whole binary with ADAMANT_FUSION=on: every
// matrix test then executes fused plans under ASan/UBSan, re-checking the
// same bit-identity invariants.
FusionMode EnvFusion() {
  const char* env = std::getenv("ADAMANT_FUSION");
  return env != nullptr && std::string(env) == "on" ? FusionMode::kOn
                                                    : FusionMode::kOff;
}

// Registry query `name` prepared on device 0 of `manager`.
Result<sql::PreparedQuery> PrepareMatrix(const std::string& name,
                                         DeviceManager* manager,
                                         FusionMode fusion = EnvFusion()) {
  ExecutionOptions options;
  options.fusion = fusion;
  return sql::Prepare(name, *MatrixFixture::Get().catalog, manager, 0,
                      options);
}

Result<QueryExecution> RunModel(DeviceManager* manager,
                                const plan::PlanBundle& bundle,
                                ExecutionModelKind model) {
  QueryExecutor executor(manager);
  return executor.Run(bundle.graph.get(), OptionsFor(model));
}

void ExpectAllModelsBitIdentical(const std::string& name) {
  auto manager = TwoGpuManager();
  auto query = PrepareMatrix(name, manager.get());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  for (ExecutionModelKind model : kAllModels) {
    auto exec = RunModel(manager.get(), query->bundle, model);
    ASSERT_TRUE(exec.ok()) << ExecutionModelName(model) << ": "
                           << exec.status().ToString();
    const Status verdict = query->Verify(*exec);
    EXPECT_TRUE(verdict.ok()) << ExecutionModelName(model) << ": "
                              << verdict.ToString();
  }
}

TEST(ParityMatrixTest, Q6AllModelsBitIdentical) {
  ExpectAllModelsBitIdentical("6");
}

TEST(ParityMatrixTest, Q3AllModelsBitIdentical) {
  ExpectAllModelsBitIdentical("3");
}

TEST(ParityMatrixTest, Q4AllModelsBitIdentical) {
  ExpectAllModelsBitIdentical("4");
}

TEST(ParityMatrixTest, DeviceParallelSplitsAcrossBothDevices) {
  auto manager = TwoGpuManager();
  auto q6 = PrepareMatrix("6", manager.get());
  ASSERT_TRUE(q6.ok());
  auto exec =
      RunModel(manager.get(), q6->bundle, ExecutionModelKind::kDeviceParallel);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_EQ(exec->stats.chunks_by_device.size(), 2u);
  size_t split = 0;
  for (const auto& [device, chunks] : exec->stats.chunks_by_device) {
    EXPECT_GT(chunks, 0u) << "device " << device << " got no chunks";
    split += chunks;
  }
  EXPECT_EQ(split, exec->stats.chunks);
}

// --- Parallel kernel variants ----------------------------------------------

// The whole matrix again with the worker-pool kernel variants forced on:
// every model x Q3/Q4/Q6 must still match the host reference bit for bit.
// (The fixture devices are scalar-native GPUs, so this genuinely flips the
// executed Task-layer implementation rather than re-running the default.)
TEST(ParityMatrixTest, AllModelsBitIdenticalWithParallelVariants) {
  auto manager = TwoGpuManager();
  for (const char* name : kQueries) {
    auto query = PrepareMatrix(name, manager.get());
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    for (ExecutionModelKind model : kAllModels) {
      SCOPED_TRACE(query->label + "/" + ExecutionModelName(model));
      QueryExecutor executor(manager.get());
      auto exec = executor.Run(
          query->bundle.graph.get(),
          OptionsFor(model, KernelVariantRequest::kParallel));
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      EXPECT_TRUE(query->Verify(*exec).ok());
      // The stats must report what actually ran.
      for (const DeviceRunStats& device : exec->stats.devices) {
        if (device.execute_calls == 0) continue;
        EXPECT_EQ(device.kernel_variant, "parallel");
        EXPECT_GT(device.parallel_launches, 0u);
      }
    }
  }
}

// --- Fused composites ------------------------------------------------------

// The whole matrix again with the fusion pass forced on: every model x
// Q3/Q4/Q6 must match the host reference bit for bit when the fusable
// chains run as single FUSED / FUSED_AGG composites, and the per-device
// stats must show those composites actually launching.
TEST(ParityMatrixTest, AllModelsBitIdenticalWithFusionForced) {
  auto manager = TwoGpuManager();
  for (const char* name : kQueries) {
    auto query = PrepareMatrix(name, manager.get(), FusionMode::kOn);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    ASSERT_GT(query->fusion.groups, 0)
        << query->label << " produced no fused groups";
    for (ExecutionModelKind model : kAllModels) {
      SCOPED_TRACE(query->label + "/" + ExecutionModelName(model));
      QueryExecutor executor(manager.get());
      auto exec = executor.Run(query->bundle.graph.get(), OptionsFor(model));
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      EXPECT_TRUE(query->Verify(*exec).ok());
      size_t fused_launches = 0;
      for (const DeviceRunStats& device : exec->stats.devices) {
        fused_launches += device.fused_launches;
      }
      EXPECT_GT(fused_launches, 0u);
    }
  }
}

// --- Footprint estimate upper-bounds observed high water -------------------

TEST(ParityMatrixTest, EstimateUpperBoundsHighWaterForAllModels) {
  for (const char* name : kQueries) {
    for (ExecutionModelKind model : kAllModels) {
      SCOPED_TRACE(std::string("Q") + name + "/" + ExecutionModelName(model));
      // Fresh manager per run so high-water marks are not inherited.
      auto manager = TwoGpuManager();
      auto query = PrepareMatrix(name, manager.get());
      ASSERT_TRUE(query.ok());
      const ExecutionOptions options = OptionsFor(model);
      auto estimate = EstimateDeviceMemoryBytes(*query->bundle.graph, options,
                                                manager->data_scale());
      ASSERT_TRUE(estimate.ok());
      QueryExecutor executor(manager.get());
      auto exec = executor.Run(query->bundle.graph.get(), options);
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      for (const DeviceRunStats& device : exec->stats.devices) {
        EXPECT_GE(*estimate, device.device_mem_high_water) << device.name;
      }
    }
  }
}

// --- Heterogeneous split ----------------------------------------------------

// Fast + slow device pair for the heterogeneous matrix: device 0 is the
// stock cuda_gpu driver, device 1 is the same model with 4x slower compute
// and a slower bus (the bench_hetero_split profile), so the cost-ratio
// search genuinely produces an asymmetric split.
std::unique_ptr<DeviceManager> HeteroManager() {
  auto manager = std::make_unique<DeviceManager>();
  auto fast = manager->AddDriver(sim::DriverKind::kCudaGpu, "cuda_fast.0");
  ADAMANT_CHECK(fast.ok()) << fast.status().ToString();
  ADAMANT_CHECK(BindStandardKernels(manager->device(*fast)).ok());
  DriverProps props =
      MakeDriverProps(sim::DriverKind::kCudaGpu, manager->setup());
  props.model = sim::ScalePerfModel(props.model, 0.25, 0.7);
  auto slow = manager->AddDevice(std::make_unique<SimulatedDevice>(
      "cuda_slow.1", std::move(props.model), props.format,
      props.runtime_compile, manager->sim_context()));
  ADAMANT_CHECK(slow.ok()) << slow.status().ToString();
  ADAMANT_CHECK(BindStandardKernels(manager->device(*slow)).ok());
  return manager;
}

// Q3/Q4/Q6 across the fast+slow pair, cost-ratio split, with runtime
// rebalancing on and off: every run must match the host reference bit for
// bit — stealing may move chunks between devices but never changes results.
TEST(ParityMatrixTest, HeterogeneousSplitBitIdenticalWithAndWithoutRebalance) {
  auto manager = HeteroManager();
  for (const char* name : kQueries) {
    auto query = PrepareMatrix(name, manager.get());
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    for (bool rebalance : {true, false}) {
      SCOPED_TRACE(query->label + (rebalance ? "/rebalance" : "/static"));
      ExecutionOptions options = OptionsFor(ExecutionModelKind::kDeviceParallel);
      options.split_rebalance = rebalance;
      QueryExecutor executor(manager.get());
      auto exec = executor.Run(query->bundle.graph.get(), options);
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      // The driver must have recorded an asymmetric cost-ratio split for
      // the pair (fast share strictly above even).
      ASSERT_EQ(exec->stats.split_ratio_by_device.size(), 2u);
      EXPECT_GT(exec->stats.split_ratio_by_device.begin()->second, 0.5);
      EXPECT_TRUE(query->Verify(*exec).ok());
    }
  }
}

// Seeded mid-run cancellation on a deliberately asymmetric split: the
// canceller fires at a randomized point while the rebalancer is stealing
// from the overloaded slow device. Every cancelled run must unwind cleanly
// as Cancelled, and every surviving (and one final clean) run must stay
// bit-identical to the reference.
TEST(ParityMatrixTest, HeterogeneousSeededCancellationOnAsymmetricSplit) {
  const auto& fixture = MatrixFixture::Get();
  auto manager = HeteroManager();
  auto q6 = PrepareMatrix("6", manager.get());
  ASSERT_TRUE(q6.ok());
  const plan::PlanBundle* bundle = &q6->bundle;
  auto want = tpch::Q6Reference(*fixture.catalog, {});
  ASSERT_TRUE(want.ok());

  std::mt19937 rng(29);
  std::uniform_int_distribution<int> delay_us(0, 4000);
  size_t cancelled_runs = 0;
  for (int iter = 0; iter < 6; ++iter) {
    CancelToken token;
    // Iteration 0 cancels before dispatch (deterministically Cancelled);
    // the rest fire at a randomized point of the run.
    if (iter == 0) token.Cancel(CancelCause::kUser, "pre-dispatch cancel");
    std::thread canceller([&token, delay = delay_us(rng)] {
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
      token.Cancel(CancelCause::kUser, "hetero soak cancel");
    });
    ExecutionOptions options = OptionsFor(ExecutionModelKind::kDeviceParallel);
    // Mis-set split (most work on the slow device) so rebalancing steals
    // while the cancel lands.
    options.device_split = {0.2, 0.8};
    options.cancel_token = &token;
    QueryExecutor executor(manager.get());
    auto exec = executor.Run(bundle->graph.get(), options);
    canceller.join();
    if (exec.ok()) {
      auto revenue = plan::ExtractQ6(*bundle, *exec);
      ASSERT_TRUE(revenue.ok());
      EXPECT_EQ(*revenue, *want) << "surviving run, iter " << iter;
    } else {
      EXPECT_TRUE(exec.status().IsCancelled()) << exec.status().ToString();
      ++cancelled_runs;
    }
  }
  // A clean run after the soak: the devices are perfectly reusable.
  ExecutionOptions clean = OptionsFor(ExecutionModelKind::kDeviceParallel);
  clean.device_split = {0.2, 0.8};
  QueryExecutor executor(manager.get());
  auto exec = executor.Run(bundle->graph.get(), clean);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  auto revenue = plan::ExtractQ6(*bundle, *exec);
  ASSERT_TRUE(revenue.ok());
  EXPECT_EQ(*revenue, *want);
  // With a zero-to-4ms fuse across six iterations at least one cancel
  // should land mid-run; if the runs got too fast to ever catch, that is
  // worth noticing rather than silently passing.
  EXPECT_GT(cancelled_runs, 0u);
}

}  // namespace
}  // namespace adamant
