// Unit tests for the execution-model driver framework (src/runtime/exec/):
// the ChunkSource arithmetic every driver shares, the driver factory, the
// host-side breaker merge helpers, and device-parallel edge cases (single
// device, fewer chunks than devices, unsupported breakers, bad device ids).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "adamant/adamant.h"
#include "test_util.h"
#include "runtime/exec/drivers.h"
#include "runtime/exec/model_driver.h"
#include "runtime/exec/run_context.h"
#include "task/hash_table.h"
#include "task/merge.h"

namespace adamant {
namespace {

// --- ChunkSource -----------------------------------------------------------

TEST(ChunkSourceTest, SplitsWithRemainderInLastChunk) {
  exec::ChunkSource source(1000, 300);
  EXPECT_EQ(source.total(), 4u);
  EXPECT_EQ(source.rows(0), 300u);
  EXPECT_EQ(source.rows(3), 100u);
  EXPECT_EQ(source.base(3), 900u);
}

TEST(ChunkSourceTest, ExactMultipleHasNoRemainderChunk) {
  exec::ChunkSource source(1024, 256);
  EXPECT_EQ(source.total(), 4u);
  EXPECT_EQ(source.rows(3), 256u);
}

TEST(ChunkSourceTest, EmptyInputStillHasOneChunk) {
  // PipelineChunkCapacity clamps cap to input_rows, so an empty pipeline
  // arrives as (0, 0): one zero-row chunk, in which breakers still run and
  // write their identity.
  exec::ChunkSource source(0, 0);
  EXPECT_EQ(source.total(), 1u);
  EXPECT_EQ(source.rows(0), 0u);
}

// --- Driver factory --------------------------------------------------------

TEST(ModelDriverTest, FactoryCoversEveryModel) {
  const std::pair<ExecutionModelKind, const char*> kExpected[] = {
      {ExecutionModelKind::kOperatorAtATime, "operator-at-a-time"},
      {ExecutionModelKind::kChunked, "chunked"},
      {ExecutionModelKind::kPipelined, "pipelined"},
      {ExecutionModelKind::kFourPhaseChunked, "4-phase"},
      {ExecutionModelKind::kFourPhasePipelined, "4-phase-pipelined"},
      {ExecutionModelKind::kDeviceParallel, "device-parallel"},
  };
  for (const auto& [kind, name] : kExpected) {
    auto driver = exec::MakeModelDriver(kind);
    ASSERT_TRUE(driver.ok()) << name;
    EXPECT_STREQ((*driver)->name(), name);
    EXPECT_STREQ(ExecutionModelName(kind), name);
  }
}

// --- Host-side breaker merges ---------------------------------------------

TEST(MergeTest, AggPartialsFollowOpSemantics) {
  EXPECT_EQ(MergeAggPartials(AggOp::kSum, 3, 4), 7);
  // Partial counts add (unlike the per-row combine, where COUNT increments).
  EXPECT_EQ(MergeAggPartials(AggOp::kCount, 3, 4), 7);
  EXPECT_EQ(MergeAggPartials(AggOp::kMin, 3, 4), 3);
  EXPECT_EQ(MergeAggPartials(AggOp::kMax, 3, 4), 4);
}

TEST(MergeTest, AggTablesMergeByKey) {
  using Slot = HashTableLayout::AggSlot;
  const size_t slots = 8;
  std::vector<Slot> dst(slots), partial(slots);
  for (auto* table : {&dst, &partial}) {
    for (Slot& slot : *table) slot.key = HashTableLayout::kEmptyKey;
  }
  auto insert = [&](std::vector<Slot>& table, int32_t key, int64_t value) {
    size_t i = HashTableLayout::Hash(key) & (slots - 1);
    while (table[i].key != HashTableLayout::kEmptyKey) i = (i + 1) % slots;
    table[i].key = key;
    table[i].value = value;
  };
  insert(dst, 1, 10);
  insert(dst, 2, 20);
  insert(partial, 2, 5);   // merges into dst's key 2
  insert(partial, 3, 30);  // new key
  auto st = MergeAggTables(AggOp::kSum,
                           reinterpret_cast<const uint8_t*>(partial.data()),
                           slots, reinterpret_cast<uint8_t*>(dst.data()));
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::vector<std::pair<int32_t, int64_t>> got;
  for (const Slot& slot : dst) {
    if (slot.key != HashTableLayout::kEmptyKey) {
      got.emplace_back(slot.key, slot.value);
    }
  }
  std::sort(got.begin(), got.end());
  const std::vector<std::pair<int32_t, int64_t>> want = {
      {1, 10}, {2, 25}, {3, 30}};
  EXPECT_EQ(got, want);
}

TEST(MergeTest, BuildTablesUnionPreservesDuplicates) {
  using Slot = HashTableLayout::BuildSlot;
  const size_t slots = 8;
  std::vector<Slot> dst(slots), partial(slots);
  for (auto* table : {&dst, &partial}) {
    for (Slot& slot : *table) slot.key = HashTableLayout::kEmptyKey;
  }
  auto insert = [&](std::vector<Slot>& table, int32_t key, int32_t payload) {
    size_t i = HashTableLayout::Hash(key) & (slots - 1);
    while (table[i].key != HashTableLayout::kEmptyKey) i = (i + 1) % slots;
    table[i].key = key;
    table[i].payload = payload;
  };
  insert(dst, 1, 100);
  insert(partial, 1, 200);  // same key: both entries must survive
  insert(partial, 2, 300);
  auto st = MergeBuildTables(reinterpret_cast<const uint8_t*>(partial.data()),
                             slots, reinterpret_cast<uint8_t*>(dst.data()));
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::vector<std::pair<int32_t, int32_t>> got;
  for (const Slot& slot : dst) {
    if (slot.key != HashTableLayout::kEmptyKey) {
      got.emplace_back(slot.key, slot.payload);
    }
  }
  std::sort(got.begin(), got.end());
  const std::vector<std::pair<int32_t, int32_t>> want = {
      {1, 100}, {1, 200}, {2, 300}};
  EXPECT_EQ(got, want);
}

TEST(MergeTest, AggTableOverflowReported) {
  using Slot = HashTableLayout::AggSlot;
  // A full destination with all-distinct keys cannot absorb a new one.
  const size_t slots = 2;
  std::vector<Slot> dst(slots), partial(slots);
  dst[0] = {1, 0, 10};
  dst[1] = {2, 0, 20};
  partial[0] = {3, 0, 30};
  partial[1].key = HashTableLayout::kEmptyKey;
  auto st = MergeAggTables(AggOp::kSum,
                           reinterpret_cast<const uint8_t*>(partial.data()),
                           slots, reinterpret_cast<uint8_t*>(dst.data()));
  EXPECT_FALSE(st.ok());
}

// --- Device-parallel edge cases -------------------------------------------

struct DeviceParallelFixture {
  std::shared_ptr<Catalog> catalog;

  static const DeviceParallelFixture& Get() {
    static const DeviceParallelFixture* const kFixture = [] {
      auto* fixture = new DeviceParallelFixture();
      tpch::TpchConfig config;
      config.scale_factor = 0.002;
      config.include_dimension_tables = false;
      auto catalog = tpch::Generate(config);
      ADAMANT_CHECK(catalog.ok()) << catalog.status().ToString();
      fixture->catalog = *catalog;
      return fixture;
    }();
    return *kFixture;
  }
};

std::unique_ptr<DeviceManager> GpuManager(int count) {
  auto manager = std::make_unique<DeviceManager>();
  for (int i = 0; i < count; ++i) {
    auto device = manager->AddDriver(sim::DriverKind::kCudaGpu,
                                     "cuda_gpu." + std::to_string(i));
    ADAMANT_CHECK(device.ok()) << device.status().ToString();
    ADAMANT_CHECK(BindStandardKernels(manager->device(*device)).ok());
  }
  return manager;
}

TEST(DeviceParallelTest, SingleDeviceSetDegeneratesToChunked) {
  const auto& fixture = DeviceParallelFixture::Get();
  auto manager = GpuManager(1);
  auto bundle = test::PrepareUnfused("6", *fixture.catalog, manager.get(), 0);
  ASSERT_TRUE(bundle.ok());
  ExecutionOptions options;
  options.model = ExecutionModelKind::kDeviceParallel;
  options.device_set = {0};
  options.chunk_elems = 1024;
  QueryExecutor executor(manager.get());
  auto exec = executor.Run(bundle->bundle.graph.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  auto revenue = plan::ExtractQ6(bundle->bundle, *exec);
  ASSERT_TRUE(revenue.ok());
  auto want = tpch::Q6Reference(*fixture.catalog, {});
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*revenue, *want);
}

TEST(DeviceParallelTest, MoreDevicesThanChunksLeavesIdleDevices) {
  const auto& fixture = DeviceParallelFixture::Get();
  auto manager = GpuManager(4);
  auto bundle = test::PrepareUnfused("6", *fixture.catalog, manager.get(), 0);
  ASSERT_TRUE(bundle.ok());
  ExecutionOptions options;
  options.model = ExecutionModelKind::kDeviceParallel;
  options.device_set = {0, 1, 2, 3};
  // Chunk cap large enough that there is exactly one chunk: three devices
  // run zero chunks and must not corrupt the merged result.
  options.chunk_elems = 1u << 25;
  QueryExecutor executor(manager.get());
  auto exec = executor.Run(bundle->bundle.graph.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  auto revenue = plan::ExtractQ6(bundle->bundle, *exec);
  ASSERT_TRUE(revenue.ok());
  auto want = tpch::Q6Reference(*fixture.catalog, {});
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*revenue, *want);
  EXPECT_EQ(exec->stats.chunks, 1u);
}

TEST(DeviceParallelTest, EmptyDeviceSetUsesAllPluggedDevices) {
  const auto& fixture = DeviceParallelFixture::Get();
  auto manager = GpuManager(2);
  auto bundle = test::PrepareUnfused("6", *fixture.catalog, manager.get(), 0);
  ASSERT_TRUE(bundle.ok());
  ExecutionOptions options;
  options.model = ExecutionModelKind::kDeviceParallel;
  options.chunk_elems = 1024;
  QueryExecutor executor(manager.get());
  auto exec = executor.Run(bundle->bundle.graph.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(exec->stats.chunks_by_device.size(), 2u);
}

TEST(DeviceParallelTest, UnpluggedDeviceIdRejected) {
  const auto& fixture = DeviceParallelFixture::Get();
  auto manager = GpuManager(1);
  auto bundle = test::PrepareUnfused("6", *fixture.catalog, manager.get(), 0);
  ASSERT_TRUE(bundle.ok());
  ExecutionOptions options;
  options.model = ExecutionModelKind::kDeviceParallel;
  options.device_set = {0, 7};
  QueryExecutor executor(manager.get());
  auto exec = executor.Run(bundle->bundle.graph.get(), options);
  EXPECT_FALSE(exec.ok());
}

TEST(DeviceParallelTest, GlobalBreakersRejected) {
  const auto& fixture = DeviceParallelFixture::Get();
  auto manager = GpuManager(2);
  // PREFIX_SUM / SORT_AGG are global breakers: a chunk split would change
  // their results, so the driver must refuse rather than silently corrupt.
  auto bundle = plan::BuildRevenueByOrderSorted(*fixture.catalog, 0);
  ASSERT_TRUE(bundle.ok());
  ExecutionOptions options;
  options.model = ExecutionModelKind::kDeviceParallel;
  options.device_set = {0, 1};
  QueryExecutor executor(manager.get());
  auto exec = executor.Run(bundle->graph.get(), options);
  ASSERT_FALSE(exec.ok());
  EXPECT_TRUE(exec.status().IsNotSupported()) << exec.status().ToString();
}

// Device-parallel accumulates hub byte counters from every partition.
TEST(DeviceParallelTest, StatsAccumulateAcrossPartitions) {
  const auto& fixture = DeviceParallelFixture::Get();
  auto manager = GpuManager(2);
  auto bundle = test::PrepareUnfused("6", *fixture.catalog, manager.get(), 0);
  ASSERT_TRUE(bundle.ok());

  ExecutionOptions chunked;
  chunked.model = ExecutionModelKind::kChunked;
  chunked.chunk_elems = 1024;
  QueryExecutor executor(manager.get());
  auto base = executor.Run(bundle->bundle.graph.get(), chunked);
  ASSERT_TRUE(base.ok());

  ExecutionOptions parallel = chunked;
  parallel.model = ExecutionModelKind::kDeviceParallel;
  parallel.device_set = {0, 1};
  auto split = executor.Run(bundle->bundle.graph.get(), parallel);
  ASSERT_TRUE(split.ok()) << split.status().ToString();

  // Same scan volume moves host-to-device regardless of which device runs
  // each chunk, and the chunk count matches.
  EXPECT_EQ(split->stats.bytes_h2d, base->stats.bytes_h2d);
  EXPECT_EQ(split->stats.chunks, base->stats.chunks);
}

}  // namespace
}  // namespace adamant
