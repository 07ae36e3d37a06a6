// Tests for the HeavyDB-style baseline model: residency/OOM behaviour and
// the cold-vs-hot timing relations of Fig. 11.

#include <gtest/gtest.h>

#include "adamant/adamant.h"
#include "test_util.h"

namespace adamant {
namespace {

class BaselineTest : public ::testing::Test {
 protected:
  static const Catalog& SharedCatalog() {
    static const Catalog* const kCatalog = [] {
      tpch::TpchConfig config;
      config.scale_factor = 0.02;
      config.include_dimension_tables = false;
      auto catalog = tpch::Generate(config);
      ADAMANT_CHECK(catalog.ok());
      return new Catalog(**catalog);
    }();
    return *kCatalog;
  }

  // The paper's HeavyDB comparison runs at SF 100-140; the A100 setup is
  // the one with enough memory for Q4/Q6 in-place tables.
  void SetUpManager(double nominal_sf) {
    manager_ = std::make_unique<DeviceManager>(sim::HardwareSetup::kSetup2);
    manager_->SetDataScale(nominal_sf / 0.02);
    auto gpu = manager_->AddDriver(sim::DriverKind::kCudaGpu);
    ASSERT_TRUE(gpu.ok());
    gpu_ = *gpu;
    ASSERT_TRUE(BindStandardKernels(manager_->device(gpu_)).ok());
  }

  std::unique_ptr<DeviceManager> manager_;
  DeviceId gpu_ = 0;
};

TEST_F(BaselineTest, Q3OutOfMemoryAtSf100) {
  SetUpManager(100);
  auto bundle = plan::BuildQ3(SharedCatalog(), {}, gpu_);
  ASSERT_TRUE(bundle.ok());
  baseline::HeavyDbExecutor heavy(manager_.get(), gpu_);
  EXPECT_TRUE(heavy.Run(*bundle->graph, {}).status().IsOutOfMemory())
      << "the paper: Q3 cannot be executed at the given scale factors";
}

TEST_F(BaselineTest, Q4AndQ6RunAtSf100Through140) {
  for (double sf : {100.0, 120.0, 140.0}) {
    SetUpManager(sf);
    baseline::HeavyDbExecutor heavy(manager_.get(), gpu_);
    auto q4 = test::PrepareUnfused("4", SharedCatalog(), manager_.get(), gpu_);
    auto q6 = test::PrepareUnfused("6", SharedCatalog(), manager_.get(), gpu_);
    ASSERT_TRUE(q4.ok() && q6.ok());
    EXPECT_TRUE(heavy.Run(*q4->bundle.graph, {}).ok()) << "Q4 at SF " << sf;
    EXPECT_TRUE(heavy.Run(*q6->bundle.graph, {}).ok()) << "Q6 at SF " << sf;
  }
}

TEST_F(BaselineTest, ColdStartPaysFullTableTransfer) {
  SetUpManager(100);
  auto bundle =
      test::PrepareUnfused("6", SharedCatalog(), manager_.get(), gpu_);
  ASSERT_TRUE(bundle.ok());
  baseline::HeavyDbExecutor heavy(manager_.get(), gpu_);
  auto cold = heavy.Run(*bundle->bundle.graph, {/*with_transfer=*/true});
  auto hot = heavy.Run(*bundle->bundle.graph, {/*with_transfer=*/false});
  ASSERT_TRUE(cold.ok() && hot.ok());
  EXPECT_GT(cold->transfer_us, 0);
  EXPECT_DOUBLE_EQ(hot->transfer_us, 0);
  EXPECT_DOUBLE_EQ(cold->compute_us, hot->compute_us);
  EXPECT_GT(cold->elapsed_us, 2 * hot->elapsed_us)
      << "full-table transfer dominates cold start (Fig. 11)";
}

TEST_F(BaselineTest, InPlaceComparableToAdamantChunked) {
  SetUpManager(100);
  auto bundle =
      test::PrepareUnfused("6", SharedCatalog(), manager_.get(), gpu_);
  ASSERT_TRUE(bundle.ok());
  baseline::HeavyDbExecutor heavy(manager_.get(), gpu_);
  auto hot = heavy.Run(*bundle->bundle.graph, {/*with_transfer=*/false});
  ASSERT_TRUE(hot.ok());

  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  QueryExecutor executor(manager_.get());
  auto chunked = executor.Run(bundle->bundle.graph.get(), options);
  ASSERT_TRUE(chunked.ok()) << chunked.status().ToString();

  const double ratio = chunked->stats.elapsed_us / hot->elapsed_us;
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 3.0) << "in-place HeavyDB is comparable with chunked";
}

TEST_F(BaselineTest, AdamantBeatsColdStart) {
  SetUpManager(100);
  auto bundle =
      test::PrepareUnfused("6", SharedCatalog(), manager_.get(), gpu_);
  ASSERT_TRUE(bundle.ok());
  baseline::HeavyDbExecutor heavy(manager_.get(), gpu_);
  auto cold = heavy.Run(*bundle->bundle.graph, {/*with_transfer=*/true});
  ASSERT_TRUE(cold.ok());

  ExecutionOptions options;
  options.model = ExecutionModelKind::kFourPhaseChunked;
  QueryExecutor executor(manager_.get());
  auto adamant = executor.Run(bundle->bundle.graph.get(), options);
  ASSERT_TRUE(adamant.ok());
  EXPECT_GT(cold->elapsed_us / adamant->stats.elapsed_us, 2.0)
      << "ADAMANT transfers only the chunks of needed columns";
}

TEST_F(BaselineTest, ResidentBytesScaleWithSf) {
  SetUpManager(100);
  auto bundle =
      test::PrepareUnfused("6", SharedCatalog(), manager_.get(), gpu_);
  ASSERT_TRUE(bundle.ok());
  baseline::HeavyDbExecutor heavy(manager_.get(), gpu_);
  auto at100 = heavy.Run(*bundle->bundle.graph, {});
  ASSERT_TRUE(at100.ok());
  SetUpManager(140);
  baseline::HeavyDbExecutor heavy140(manager_.get(), gpu_);
  auto at140 = heavy140.Run(*bundle->bundle.graph, {});
  ASSERT_TRUE(at140.ok());
  EXPECT_NEAR(static_cast<double>(at140->resident_bytes) /
                  static_cast<double>(at100->resident_bytes),
              1.4, 0.05);
}

}  // namespace
}  // namespace adamant
