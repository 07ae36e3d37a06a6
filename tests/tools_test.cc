// Tests for the tooling around the executor: chrome-trace export, the
// chunk-size tuner, and failure injection through a flaky device (error
// propagation and resource cleanup).

#include <gtest/gtest.h>

#include <numeric>

#include "adamant/adamant.h"
#include "runtime/chunk_tuner.h"
#include "common/bit_util.h"
#include "sim/trace_export.h"

namespace adamant {
namespace {

// --- Chrome trace export ---

TEST(TraceExport, EmitsThreadsAndEvents) {
  sim::ResourceTimeline h2d("gpu.h2d");
  sim::ResourceTimeline compute("gpu.compute");
  h2d.set_tracing(true);
  compute.set_tracing(true);
  h2d.Schedule(0, 100, "chunk0");
  compute.Schedule(100, 40, "filter_bitmap");
  h2d.Schedule(100, 100, "chunk1");

  std::string json = sim::ToChromeTrace({&h2d, &compute});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("gpu.h2d"), std::string::npos);
  EXPECT_NE(json.find("gpu.compute"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"chunk1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"filter_bitmap\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":100"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":40"), std::string::npos);
  // Valid-ish JSON: balanced braces/brackets.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(TraceExport, EscapesQuotesAndSkipsNull) {
  sim::ResourceTimeline timeline("t\"x");
  timeline.set_tracing(true);
  timeline.Schedule(0, 1, "label\"quoted");
  std::string json = sim::ToChromeTrace({nullptr, &timeline});
  EXPECT_NE(json.find("t\\\"x"), std::string::npos);
  EXPECT_NE(json.find("label\\\"quoted"), std::string::npos);
}

TEST(TraceExport, FullQueryTraceRoundTrip) {
  auto catalog = tpch::Generate(
      {.scale_factor = 0.002, .include_dimension_tables = false});
  ASSERT_TRUE(catalog.ok());
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(gpu.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*gpu)).ok());
  manager.device(*gpu)->transfer_timeline().set_tracing(true);
  manager.device(*gpu)->compute_timeline().set_tracing(true);

  ExecutionOptions options;
  options.model = ExecutionModelKind::kFourPhasePipelined;
  options.chunk_elems = 512;
  options.fusion = FusionMode::kOff;
  auto q6 = sql::Prepare("6", **catalog, &manager, *gpu, options);
  ASSERT_TRUE(q6.ok());
  QueryExecutor executor(&manager);
  ASSERT_TRUE(executor.Run(q6->bundle.graph.get(), options).ok());

  std::string json = sim::ToChromeTrace(
      {&manager.device(*gpu)->transfer_timeline(),
       &manager.device(*gpu)->compute_timeline()});
  EXPECT_NE(json.find("\"name\":\"h2d\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"filter_bitmap\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"agg_block\""), std::string::npos);
}

// --- Chunk tuner ---

TEST(ChunkTuner, ScalesInverselyWithRowWidth) {
  auto catalog = tpch::Generate(
      {.scale_factor = 0.002, .include_dimension_tables = false});
  ASSERT_TRUE(catalog.ok());
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(gpu.ok());
  // Q6 reads 4 lineitem columns; Q3's widest pipeline also reads several —
  // both should land in a sane power-of-two range.
  auto q6 = sql::Prepare("6", **catalog, &manager, *gpu, {});
  ASSERT_TRUE(q6.ok());
  auto chunk6 = SuggestChunkElems(*manager.device(*gpu), *q6->bundle.graph);
  ASSERT_TRUE(chunk6.ok());
  EXPECT_TRUE(bit_util::IsPowerOfTwo(*chunk6));
  EXPECT_GE(*chunk6, size_t{1} << 16);
  EXPECT_LE(*chunk6, size_t{1} << 26);
  // The paper's 2^25 on an 11 GiB GPU is within 2x of the suggestion.
  EXPECT_GE(*chunk6, size_t{1} << 24);
}

TEST(ChunkTuner, SmallerDeviceSmallerChunks) {
  auto catalog = tpch::Generate(
      {.scale_factor = 0.002, .include_dimension_tables = false});
  ASSERT_TRUE(catalog.ok());
  auto ctx = std::make_shared<SimContext>();
  auto model = sim::MakePerfModel(sim::DriverKind::kCudaGpu,
                                  sim::HardwareSetup::kSetup1);
  model.device_memory_bytes = size_t{512} << 20;  // tiny embedded GPU
  SimulatedDevice small("small_gpu", model, SdkFormat::kCudaDevPtr, false,
                        ctx);
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(gpu.ok());
  auto q6 = sql::Prepare("6", **catalog, &manager, *gpu, {});
  ASSERT_TRUE(q6.ok());
  auto big_chunk = SuggestChunkElems(*manager.device(*gpu), *q6->bundle.graph);
  auto small_chunk = SuggestChunkElems(small, *q6->bundle.graph);
  ASSERT_TRUE(big_chunk.ok() && small_chunk.ok());
  EXPECT_LT(*small_chunk, *big_chunk);
}

TEST(ChunkTuner, SuggestedChunkRunsCorrectly) {
  auto catalog = tpch::Generate(
      {.scale_factor = 0.002, .include_dimension_tables = false});
  ASSERT_TRUE(catalog.ok());
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(gpu.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*gpu)).ok());
  // chunk_elems = 0 asks Prepare for the tuner's suggestion.
  ExecutionOptions options;
  options.model = ExecutionModelKind::kFourPhaseChunked;
  options.chunk_elems = 0;
  auto q6 = sql::Prepare("6", **catalog, &manager, *gpu, options);
  ASSERT_TRUE(q6.ok());
  auto chunk = SuggestChunkElems(*manager.device(*gpu), *q6->bundle.graph);
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(q6->options.chunk_elems, *chunk);
  QueryExecutor executor(&manager);
  auto exec = executor.Run(q6->bundle.graph.get(), q6->options);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(*plan::ExtractQ6(q6->bundle, *exec),
            *tpch::Q6Reference(**catalog, {}));
}

// --- Failure injection ---

/// A device whose nth interface call of a chosen kind fails — models
/// transient driver/transfer errors.
class FlakyDevice : public SimulatedDevice {
 public:
  enum class FailPoint { kNone, kPlaceData, kExecute, kPrepareMemory };

  FlakyDevice(std::shared_ptr<SimContext> ctx)
      : SimulatedDevice("flaky",
                        sim::MakePerfModel(sim::DriverKind::kCudaGpu,
                                           sim::HardwareSetup::kSetup1),
                        SdkFormat::kCudaDevPtr, false, std::move(ctx)) {}

  void FailOn(FailPoint point, int countdown) {
    fail_point_ = point;
    countdown_ = countdown;
  }

  Status PlaceData(BufferId dst, const void* src, size_t bytes,
                   size_t dst_offset) override {
    if (ShouldFail(FailPoint::kPlaceData)) {
      return Status::IOError("injected DMA failure");
    }
    return SimulatedDevice::PlaceData(dst, src, bytes, dst_offset);
  }

  Status Execute(const KernelLaunch& launch) override {
    if (ShouldFail(FailPoint::kExecute)) {
      return Status::ExecutionError("injected kernel launch failure");
    }
    return SimulatedDevice::Execute(launch);
  }

  Result<BufferId> PrepareMemory(size_t bytes) override {
    if (ShouldFail(FailPoint::kPrepareMemory)) {
      return Status::OutOfMemory("injected allocation failure");
    }
    return SimulatedDevice::PrepareMemory(bytes);
  }

 private:
  bool ShouldFail(FailPoint point) {
    if (fail_point_ != point) return false;
    return --countdown_ == 0;
  }

  FailPoint fail_point_ = FailPoint::kNone;
  int countdown_ = 0;
};

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto device = std::make_unique<FlakyDevice>(manager_.sim_context());
    flaky_ = device.get();
    auto id = manager_.AddDevice(std::move(device));
    ASSERT_TRUE(id.ok());
    device_ = *id;
    ASSERT_TRUE(BindStandardKernels(flaky_).ok());
    std::vector<int32_t> values(4096);
    std::iota(values.begin(), values.end(), 0);
    col_ = Column::FromVector("v", values);
  }

  PrimitiveGraph MakePlan() {
    PrimitiveGraph graph;
    NodeConfig fcfg;
    fcfg.cmp_op = CmpOp::kLt;
    fcfg.lo = 1000;
    int f = graph.AddNode(PrimitiveKind::kFilterBitmap, device_, fcfg);
    int m = graph.AddNode(PrimitiveKind::kMaterialize, device_, {});
    NodeConfig acfg;
    acfg.agg_op = AggOp::kSum;
    int agg = graph.AddNode(PrimitiveKind::kAggBlock, device_, acfg);
    EXPECT_TRUE(graph.ConnectScan(col_, f, 0).ok());
    EXPECT_TRUE(graph.ConnectScan(col_, m, 0).ok());
    EXPECT_TRUE(graph.Connect(f, 0, m, 1).ok());
    EXPECT_TRUE(graph.Connect(m, 0, agg, 0).ok());
    agg_ = agg;
    return graph;
  }

  Result<QueryExecution> Run(PrimitiveGraph* graph) {
    ExecutionOptions options;
    options.model = ExecutionModelKind::kChunked;
    options.chunk_elems = 512;
    QueryExecutor executor(&manager_);
    return executor.Run(graph, options);
  }

  DeviceManager manager_;
  FlakyDevice* flaky_ = nullptr;
  DeviceId device_ = 0;
  ColumnPtr col_;
  int agg_ = -1;
};

TEST_F(FaultInjectionTest, TransferFailureMidQueryPropagatesAndCleansUp) {
  PrimitiveGraph graph = MakePlan();
  flaky_->FailOn(FlakyDevice::FailPoint::kPlaceData, 5);  // mid-run chunk
  auto exec = Run(&graph);
  ASSERT_FALSE(exec.ok());
  EXPECT_TRUE(exec.status().IsIOError());
  EXPECT_NE(exec.status().message().find("injected DMA failure"),
            std::string::npos);
  EXPECT_EQ(flaky_->device_arena().used(), 0u) << "no leaked device memory";
  EXPECT_EQ(flaky_->pinned_arena().used(), 0u);
}

TEST_F(FaultInjectionTest, KernelFailureCarriesNodeContext) {
  PrimitiveGraph graph = MakePlan();
  flaky_->FailOn(FlakyDevice::FailPoint::kExecute, 7);
  auto exec = Run(&graph);
  ASSERT_FALSE(exec.ok());
  EXPECT_TRUE(exec.status().IsExecutionError());
  EXPECT_EQ(flaky_->device_arena().used(), 0u);
}

TEST_F(FaultInjectionTest, AllocationFailureSurfacesAsOom) {
  PrimitiveGraph graph = MakePlan();
  flaky_->FailOn(FlakyDevice::FailPoint::kPrepareMemory, 3);
  auto exec = Run(&graph);
  ASSERT_FALSE(exec.ok());
  EXPECT_TRUE(exec.status().IsOutOfMemory());
  EXPECT_EQ(flaky_->device_arena().used(), 0u);
}

TEST_F(FaultInjectionTest, RecoversOnRetryWithoutFault) {
  PrimitiveGraph graph = MakePlan();
  flaky_->FailOn(FlakyDevice::FailPoint::kExecute, 4);
  ASSERT_FALSE(Run(&graph).ok());
  // The fault was one-shot; a rerun of the same plan succeeds.
  PrimitiveGraph fresh = MakePlan();
  auto exec = Run(&fresh);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(*exec->AggValue(agg_), int64_t{999} * 1000 / 2);
}

}  // namespace
}  // namespace adamant
