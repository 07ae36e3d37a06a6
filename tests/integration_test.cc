// Integration: every evaluated TPC-H query, on every driver, under every
// execution model, bit-compared against the scalar host reference.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "adamant/adamant.h"

namespace adamant {
namespace {

struct TpchFixture {
  std::shared_ptr<Catalog> catalog;

  static const TpchFixture& Get() {
    static const TpchFixture* const kFixture = [] {
      auto* fixture = new TpchFixture();
      tpch::TpchConfig config;
      config.scale_factor = 0.002;
      config.include_dimension_tables = true;  // Q14 joins against part
      auto catalog = tpch::Generate(config);
      ADAMANT_CHECK(catalog.ok()) << catalog.status().ToString();
      fixture->catalog = *catalog;
      return fixture;
    }();
    return *kFixture;
  }
};

class QueryMatrixTest
    : public ::testing::TestWithParam<
          std::tuple<sim::DriverKind, ExecutionModelKind>> {
 protected:
  void SetUp() override {
    manager_ = std::make_unique<DeviceManager>();
    auto device = manager_->AddDriver(std::get<0>(GetParam()));
    ASSERT_TRUE(device.ok()) << device.status().ToString();
    device_ = *device;
    ASSERT_TRUE(BindStandardKernels(manager_->device(device_)).ok());
    options_.model = std::get<1>(GetParam());
    options_.chunk_elems = 512;  // many chunks even on the tiny test scale
    options_.fusion = FusionMode::kOff;
  }

  // Prepares registry query `name` and checks its run under this
  // parameter's driver and model against the query's tpch reference.
  void ExpectMatchesReference(const std::string& name) {
    auto prepared = sql::Prepare(name, *TpchFixture::Get().catalog,
                                 manager_.get(), device_, options_);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    QueryExecutor executor(manager_.get());
    auto exec = executor.Run(prepared->bundle.graph.get(), options_);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    const Status verdict = prepared->Verify(*exec);
    EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  }

  std::unique_ptr<DeviceManager> manager_;
  DeviceId device_ = 0;
  ExecutionOptions options_;
};

TEST_P(QueryMatrixTest, Q6MatchesReference) { ExpectMatchesReference("6"); }
TEST_P(QueryMatrixTest, Q4MatchesReference) { ExpectMatchesReference("4"); }
TEST_P(QueryMatrixTest, Q3MatchesReference) { ExpectMatchesReference("3"); }
TEST_P(QueryMatrixTest, Q1MatchesReference) { ExpectMatchesReference("1"); }
TEST_P(QueryMatrixTest, Q5MatchesReference) { ExpectMatchesReference("5"); }
TEST_P(QueryMatrixTest, Q10MatchesReference) { ExpectMatchesReference("10"); }
TEST_P(QueryMatrixTest, Q12MatchesReference) { ExpectMatchesReference("12"); }
TEST_P(QueryMatrixTest, Q14MatchesReference) { ExpectMatchesReference("14"); }

INSTANTIATE_TEST_SUITE_P(
    AllDriversAllModels, QueryMatrixTest,
    ::testing::Combine(
        ::testing::Values(sim::DriverKind::kOpenClGpu,
                          sim::DriverKind::kCudaGpu,
                          sim::DriverKind::kOpenClCpu,
                          sim::DriverKind::kOpenMpCpu),
        ::testing::Values(ExecutionModelKind::kOperatorAtATime,
                          ExecutionModelKind::kChunked,
                          ExecutionModelKind::kPipelined,
                          ExecutionModelKind::kFourPhaseChunked,
                          ExecutionModelKind::kFourPhasePipelined)),
    [](const auto& info) {
      return std::string(sim::DriverKindName(std::get<0>(info.param))) + "_" +
             [](ExecutionModelKind m) {
               switch (m) {
                 case ExecutionModelKind::kOperatorAtATime:
                   return "oaat";
                 case ExecutionModelKind::kChunked:
                   return "chunked";
                 case ExecutionModelKind::kPipelined:
                   return "pipelined";
                 case ExecutionModelKind::kFourPhaseChunked:
                   return "fourphase";
                 case ExecutionModelKind::kFourPhasePipelined:
                   return "fourphasepipe";
                 case ExecutionModelKind::kDeviceParallel:
                   return "deviceparallel";
               }
               return "unknown";
             }(std::get<1>(info.param));
    });

}  // namespace
}  // namespace adamant
