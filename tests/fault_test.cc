// Fault-tolerance tests: the fault-injecting device decorator, typed error
// unwinding in the executor (ledger drains to zero), scan-cache lease
// invalidation on half-filled buffers, retry with re-placement, device
// quarantine with probe-based re-admission, and the seeded soak whose
// results must match a fault-free run.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "adamant/adamant.h"
#include "test_util.h"

namespace adamant {
namespace {

struct FaultFixture {
  std::shared_ptr<Catalog> catalog;
  std::unique_ptr<test::ServeMix> mix;

  static const FaultFixture& Get() {
    static const FaultFixture* const kFixture = [] {
      auto* fixture = new FaultFixture();
      tpch::TpchConfig config;
      config.scale_factor = 0.002;
      auto catalog = tpch::Generate(config);
      ADAMANT_CHECK(catalog.ok()) << catalog.status().ToString();
      fixture->catalog = *catalog;
      fixture->mix = std::make_unique<test::ServeMix>(**catalog);
      return fixture;
    }();
    return *kFixture;
  }
};

// --- Status classification -------------------------------------------------

TEST(StatusFaultTest, TransienceAndDeviceTagging) {
  Status transient = Status::DeviceUnavailable("dma engine hung");
  EXPECT_TRUE(transient.IsTransient());
  EXPECT_TRUE(transient.IsDeviceUnavailable());
  EXPECT_FALSE(Status::ExecutionError("bad plan").IsTransient());
  EXPECT_TRUE(Status::Unavailable("stopping").IsTransient());

  EXPECT_EQ(transient.device_id(), -1);
  Status tagged = transient.WithDevice(2);
  EXPECT_EQ(tagged.device_id(), 2);
  EXPECT_NE(tagged.ToString().find("[device 2]"), std::string::npos);
  // First tagger wins: the closest frame to the failing call knows best.
  EXPECT_EQ(tagged.WithDevice(5).device_id(), 2);
  // Context wrapping preserves the tag.
  EXPECT_EQ(tagged.WithContext("loading chunk").device_id(), 2);
  // OK stays untagged.
  EXPECT_EQ(Status::OK().WithDevice(3).device_id(), -1);
}

// --- FaultInjector decision engine -----------------------------------------

TEST(FaultInjectorTest, SameSeedSameDecisions) {
  const FaultPlan plan = FaultPlan::TransientRate(0.3, 99);
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 200; ++i) {
    const auto call = static_cast<InterfaceCall>(i % 10);
    const auto da = a.OnCall(call, "dev");
    const auto db = b.OnCall(call, "dev");
    EXPECT_EQ(da.status.ok(), db.status.ok()) << "call " << i;
  }
  EXPECT_EQ(a.injected_faults(), b.injected_faults());
  EXPECT_GT(a.injected_faults(), 0u);  // p = 0.3 over 80 faultable calls
}

TEST(FaultInjectorTest, FailNthFiresExactlyOnce) {
  FaultInjector injector(FaultPlan::FailNth(InterfaceCall::kExecute, 3));
  for (int i = 1; i <= 6; ++i) {
    const auto decision = injector.OnCall(InterfaceCall::kExecute, "dev");
    if (i == 3) {
      EXPECT_TRUE(decision.status.IsDeviceUnavailable()) << "call " << i;
    } else {
      EXPECT_TRUE(decision.status.ok()) << "call " << i;
    }
  }
  EXPECT_EQ(injector.injected_faults(), 1u);
  EXPECT_EQ(injector.calls_seen(InterfaceCall::kExecute), 6u);
}

TEST(FaultInjectorTest, StickyPersistsUntilCleared) {
  FaultInjector injector(FaultPlan::Sticky(InterfaceCall::kPlaceData, 2));
  EXPECT_TRUE(injector.OnCall(InterfaceCall::kPlaceData, "dev").status.ok());
  EXPECT_FALSE(injector.OnCall(InterfaceCall::kPlaceData, "dev").status.ok());
  EXPECT_FALSE(injector.OnCall(InterfaceCall::kPlaceData, "dev").status.ok());
  injector.ClearSticky();  // the driver reset a probe models
  EXPECT_TRUE(injector.OnCall(InterfaceCall::kPlaceData, "dev").status.ok());
}

TEST(FaultInjectorTest, LatencySpikeWithoutFailure) {
  FaultPlan plan;
  FaultSpec spec;
  spec.call = InterfaceCall::kExecute;
  spec.nth_call = 1;
  spec.latency_spike_us = 500;
  spec.code = StatusCode::kOk;  // slow, not broken
  plan.specs.push_back(spec);
  FaultInjector injector(plan);
  const auto decision = injector.OnCall(InterfaceCall::kExecute, "dev");
  EXPECT_TRUE(decision.status.ok());
  EXPECT_EQ(decision.latency_us, 500u);
  EXPECT_EQ(injector.injected_faults(), 0u);
}

// --- DeviceHealth circuit breaker ------------------------------------------

TEST(DeviceHealthTest, QuarantineAndProbeCycle) {
  DeviceHealthConfig config;
  config.quarantine_threshold = 2;
  config.probe_cooldown_ms = 10.0;
  config.cooldown_multiplier = 2.0;
  config.cooldown_max_ms = 100.0;
  DeviceHealth health(2, config);
  const auto t0 = std::chrono::steady_clock::now();

  EXPECT_TRUE(health.Placeable(0, t0));
  EXPECT_FALSE(health.OnFailure(0, t0));  // 1 of 2
  EXPECT_TRUE(health.Placeable(0, t0));
  EXPECT_TRUE(health.OnFailure(0, t0));  // threshold: quarantined
  EXPECT_TRUE(health.quarantined(0));
  EXPECT_FALSE(health.Placeable(0, t0));  // cooling down
  EXPECT_TRUE(health.Placeable(1, t0));   // the sibling is untouched

  const auto after_cooldown = t0 + std::chrono::milliseconds(11);
  EXPECT_TRUE(health.Placeable(0, after_cooldown));  // probe is due
  EXPECT_TRUE(health.OnPlaced(0));                   // probe claimed
  EXPECT_FALSE(health.Placeable(0, after_cooldown)); // one probe at a time

  // Failed probe: still quarantined, cooldown doubled.
  EXPECT_TRUE(health.OnFailure(0, after_cooldown));
  EXPECT_FALSE(health.Placeable(0, after_cooldown +
                                       std::chrono::milliseconds(11)));
  const auto after_backoff = after_cooldown + std::chrono::milliseconds(21);
  EXPECT_TRUE(health.Placeable(0, after_backoff));
  EXPECT_TRUE(health.OnPlaced(0));
  EXPECT_TRUE(health.OnSuccess(0));  // probe passed: re-admitted
  EXPECT_FALSE(health.quarantined(0));
  EXPECT_EQ(health.consecutive_failures(0), 0u);
  EXPECT_TRUE(health.Placeable(0, after_backoff));
}

// --- Executor unwind: the ledger drains to zero ----------------------------

TEST(ExecutorFaultTest, UnwindDrainsLedgerToZero) {
  const auto& fixture = FaultFixture::Get();
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu, "gpu.0",
                                  FaultPlan::FailNth(InterfaceCall::kExecute, 2));
  ASSERT_TRUE(device.ok()) << device.status().ToString();
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  MemoryLedger ledger(&manager, 0);
  auto graph = fixture.mix->query(2).GraphFactory()(0);
  ASSERT_TRUE(graph.ok());
  ExecutionOptions options;
  options.memory_listener = &ledger;
  QueryExecutor executor(&manager);
  auto result = executor.Run(graph->get(), options);

  // The injected failure surfaced typed and device-tagged...
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsTransient()) << result.status().ToString();
  EXPECT_EQ(result.status().device_id(), 0) << result.status().ToString();
  // ...and the unwind gave every charged byte back: no phantom charge
  // survives onto the next query's budget.
  EXPECT_EQ(ledger.budget(0).live_bytes(), 0u);
  EXPECT_GT(ledger.budget(0).live_high_water(), 0u);  // it did allocate
}

TEST(ExecutorFaultTest, PlaceDataFailureAlsoDrainsLedger) {
  const auto& fixture = FaultFixture::Get();
  DeviceManager manager;
  auto device = manager.AddDriver(
      sim::DriverKind::kCudaGpu, "gpu.0",
      FaultPlan::FailNth(InterfaceCall::kPlaceData, 2));
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  MemoryLedger ledger(&manager, 0);
  auto bundle = plan::BuildQ3(*fixture.catalog, {}, 0);
  ASSERT_TRUE(bundle.ok());
  ExecutionOptions options;
  options.memory_listener = &ledger;
  QueryExecutor executor(&manager);
  auto result = executor.Run(bundle->graph.get(), options);

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().device_id(), 0);
  EXPECT_EQ(ledger.budget(0).live_bytes(), 0u);
}

// --- Scan cache: a half-filled lease must not be served --------------------

TEST(CacheFaultTest, FailedPlaceInvalidatesLease) {
  DeviceManager manager;
  auto device = manager.AddDriver(
      sim::DriverKind::kCudaGpu, "gpu.0",
      FaultPlan::FailNth(InterfaceCall::kPlaceData, 1));
  ASSERT_TRUE(device.ok());

  auto column = std::make_shared<Column>("c", ElementType::kInt32);
  column->Resize(64);
  for (int i = 0; i < 64; ++i) column->mutable_data<int32_t>()[i] = i * 7;
  const size_t bytes = column->byte_size();

  DeviceColumnCache cache(&manager, bytes * 4);
  DataTransferHub hub(&manager, DataContainer::WithDefaultTransforms());
  hub.set_scan_cache(&cache);

  // First load: the cache allocates, the fill's PlaceData fails. The lease
  // must be dropped — the half-filled buffer must never be served.
  auto first = hub.LoadColumnChunk(0, column, 0, 64, sizeof(int32_t));
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().device_id(), 0);
  EXPECT_EQ(cache.GetStats().invalidations, 1u);
  EXPECT_EQ(cache.GetStats().entries, 0u);

  // Second load (the transient fault has passed): a fresh miss, filled
  // correctly end to end.
  auto second = hub.LoadColumnChunk(0, column, 0, 64, sizeof(int32_t));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE(second->hit);
  std::vector<int32_t> readback(64);
  ASSERT_TRUE(manager.device(0)
                  ->RetrieveData(second->buffer, readback.data(), bytes, 0)
                  .ok());
  for (int i = 0; i < 64; ++i) EXPECT_EQ(readback[i], i * 7) << i;
}

// --- Service: typed rejection after Stop -----------------------------------

TEST(ServiceFaultTest, SubmitAfterStopIsUnavailable) {
  const auto& fixture = FaultFixture::Get();
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  QueryService service(&manager, {});
  service.Stop();
  auto ticket = service.Submit(fixture.mix->Spec(2));
  ASSERT_FALSE(ticket.ok());
  EXPECT_TRUE(ticket.status().IsUnavailable()) << ticket.status().ToString();
  EXPECT_TRUE(ticket.status().IsTransient());
  EXPECT_EQ(service.GetStats().rejected, 1u);
}

// --- Service: retry with re-placement --------------------------------------

TEST(ServiceFaultTest, TransientFaultRetriesOnSameOnlyDevice) {
  const auto& fixture = FaultFixture::Get();
  DeviceManager manager;
  auto device = manager.AddDriver(
      sim::DriverKind::kCudaGpu, "gpu.0",
      FaultPlan::FailNth(InterfaceCall::kExecute, 1));
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  ServiceConfig config;
  config.workers = 1;
  QueryService service(&manager, config);

  auto ticket = service.Submit(fixture.mix->Spec(2));
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  const Result<QueryExecution>& result = (*ticket)->Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Attempt 1 failed; the exclusion of the only device was dropped and the
  // retry ran on it again.
  EXPECT_EQ((*ticket)->attempts(), 2u);
  service.Drain();

  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.requeues, 1u);
  EXPECT_EQ(stats.fault_unwinds, 1u);
  EXPECT_EQ(service.ledger().budget(0).live_bytes(), 0u);
}

TEST(ServiceFaultTest, PermanentErrorFailsWithoutRetry) {
  const auto& fixture = FaultFixture::Get();
  DeviceManager manager;
  FaultPlan plan = FaultPlan::FailNth(InterfaceCall::kExecute, 1);
  plan.specs[0].code = StatusCode::kExecutionError;  // not transient
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu, "gpu.0",
                                  std::move(plan));
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  ServiceConfig config;
  config.workers = 1;
  QueryService service(&manager, config);
  auto ticket = service.Submit(fixture.mix->Spec(2));
  ASSERT_TRUE(ticket.ok());
  const Result<QueryExecution>& result = (*ticket)->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_FALSE(result.status().IsTransient());
  EXPECT_EQ((*ticket)->attempts(), 1u);
  service.Drain();
  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.retries, 0u);
  // The unwind still ran and the device still takes the health hit.
  EXPECT_EQ(stats.fault_unwinds, 1u);
  EXPECT_EQ(service.ledger().budget(0).live_bytes(), 0u);
}

// --- Service: quarantine and survivors -------------------------------------

TEST(ServiceFaultTest, StickyDeviceQuarantinedSurvivorsComplete) {
  const auto& fixture = FaultFixture::Get();
  DeviceManager manager;
  // gpu.0 dies on its first Execute and stays dead; gpu.1 is healthy.
  auto sick = manager.AddDriver(sim::DriverKind::kCudaGpu, "gpu.0",
                                FaultPlan::Sticky(InterfaceCall::kExecute));
  auto healthy = manager.AddDriver(sim::DriverKind::kCudaGpu, "gpu.1");
  ASSERT_TRUE(sick.ok() && healthy.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*sick)).ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*healthy)).ok());

  ServiceConfig config;
  config.workers = 2;
  config.retry.max_attempts = 5;
  config.health.quarantine_threshold = 2;
  // No probe during the test: the dead device must stay out of rotation.
  config.health.probe_cooldown_ms = 60000.0;
  QueryService service(&manager, config);

  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int i = 0; i < 8; ++i) {
    auto ticket = service.Submit(fixture.mix->Spec(i % 3));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(*ticket);
  }
  for (const auto& ticket : tickets) {
    EXPECT_TRUE(ticket->Wait().ok()) << ticket->Wait().status().ToString();
  }
  service.Drain();

  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.quarantines, 1u);
  EXPECT_TRUE(stats.devices[0].quarantined);
  EXPECT_FALSE(stats.devices[1].quarantined);
  // Every completion ran on the healthy sibling.
  EXPECT_EQ(stats.devices[0].completed, 0u);
  EXPECT_EQ(stats.devices[1].completed, 8u);
  EXPECT_EQ(service.ledger().budget(0).live_bytes(), 0u);
  EXPECT_EQ(service.ledger().budget(1).live_bytes(), 0u);
}

TEST(ServiceFaultTest, ProbeReadmitsRecoveredDevice) {
  const auto& fixture = FaultFixture::Get();
  DeviceManager manager;
  auto device = MakeFaultInjectingDriver(
      sim::DriverKind::kCudaGpu, manager.setup(), manager.sim_context(),
      FaultPlan::Sticky(InterfaceCall::kExecute));
  FaultInjectingDevice* handle = device.get();
  handle->set_name("gpu.0");
  auto id = manager.AddDevice(std::move(device));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*id)).ok());

  ServiceConfig config;
  config.workers = 1;
  config.retry.max_attempts = 8;
  config.health.quarantine_threshold = 1;
  config.health.probe_cooldown_ms = 5.0;
  QueryService service(&manager, config);

  auto ticket = service.Submit(fixture.mix->Spec(2));
  ASSERT_TRUE(ticket.ok());
  // Wait for the quarantine, then "reset the driver": the next probe finds
  // a healthy device and re-admits it.
  for (int i = 0; i < 2000 && service.GetStats().quarantines == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(service.GetStats().quarantines, 1u);
  handle->injector().ClearSticky();

  const Result<QueryExecution>& result = (*ticket)->Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  service.Drain();

  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_GE(stats.probes, 1u);
  EXPECT_FALSE(stats.devices[0].quarantined);
  EXPECT_EQ(stats.devices[0].consecutive_failures, 0u);
}

// --- The headline soak: faulty run matches the fault-free baseline ---------

TEST(ServiceFaultTest, SeededSoakMatchesFaultFreeBaseline) {
  const auto& fixture = FaultFixture::Get();

  // Fault-free baseline on a separate, clean manager.
  DeviceManager clean;
  auto baseline_dev = clean.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(baseline_dev.ok());
  ASSERT_TRUE(BindStandardKernels(clean.device(*baseline_dev)).ok());
  std::vector<sql::SqlResultSet> refs;
  for (int kind = 0; kind < 3; ++kind) {
    auto rows = fixture.mix->RunSerial(kind, &clean);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    refs.push_back(std::move(*rows));
  }

  // Two devices, each with ~10% per-attempt transient fault rate spread
  // over the ~15 fault-prone interface calls a query makes.
  DeviceManager manager;
  for (int i = 0; i < 2; ++i) {
    auto device = manager.AddDriver(
        sim::DriverKind::kCudaGpu, "gpu." + std::to_string(i),
        FaultPlan::TransientRate(0.007, 13 + static_cast<uint64_t>(i)));
    ASSERT_TRUE(device.ok()) << device.status().ToString();
    ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());
  }

  ServiceConfig config;
  config.workers = 4;
  config.retry.max_attempts = 8;
  QueryService service(&manager, config);

  std::mt19937 rng(7);
  std::uniform_int_distribution<int> pick(0, 2);
  std::vector<int> kinds;
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int i = 0; i < 200; ++i) {
    const int kind = pick(rng);
    auto ticket = service.Submit(fixture.mix->Spec(kind));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    kinds.push_back(kind);
    tickets.push_back(*ticket);
  }

  for (size_t i = 0; i < tickets.size(); ++i) {
    const Result<QueryExecution>& result = tickets[i]->Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto rows = fixture.mix->query(kinds[i]).Results(*result);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->rows, refs[static_cast<size_t>(kinds[i])].rows)
        << "query " << i;
  }
  service.Drain();  // must terminate: no retry loop may hang the queue

  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.completed, 200u);
  EXPECT_EQ(stats.failed, 0u);
  // The soak is meaningless if nothing actually went wrong.
  EXPECT_GT(stats.fault_unwinds, 0u);
  EXPECT_EQ(stats.retries, stats.requeues);
  // Every unwind drained its charges: the ledger is at zero on both devices.
  EXPECT_EQ(service.ledger().budget(0).live_bytes(), 0u);
  EXPECT_EQ(service.ledger().budget(1).live_bytes(), 0u);
}

// --- Determinism: same seed, same failure counters -------------------------

TEST(ServiceFaultTest, SameSeedSameCountersSequential) {
  const auto& fixture = FaultFixture::Get();
  auto run_once = [&fixture]() {
    DeviceManager manager;
    auto device = manager.AddDriver(sim::DriverKind::kCudaGpu, "gpu.0",
                                    FaultPlan::TransientRate(0.02, 21));
    ADAMANT_CHECK(device.ok());
    ADAMANT_CHECK(BindStandardKernels(manager.device(*device)).ok());
    ServiceConfig config;
    config.workers = 1;  // one worker + sequential submits = one call order
    config.retry.max_attempts = 8;
    QueryService service(&manager, config);
    std::mt19937 rng(7);
    std::uniform_int_distribution<int> pick(0, 2);
    for (int i = 0; i < 40; ++i) {
      auto ticket = service.Submit(fixture.mix->Spec(pick(rng)));
      ADAMANT_CHECK(ticket.ok());
      (*ticket)->Wait();
    }
    service.Drain();
    return service.GetStats();
  };

  const ServiceStats a = run_once();
  const ServiceStats b = run_once();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.requeues, b.requeues);
  EXPECT_EQ(a.quarantines, b.quarantines);
  EXPECT_EQ(a.fault_unwinds, b.fault_unwinds);
  EXPECT_GT(a.fault_unwinds, 0u);  // the comparison must compare something
}

// --- Observability of injected faults --------------------------------------

TEST(FaultObservabilityTest, InjectedFailureEmitsTraceEventAndMetric) {
  const auto& fixture = FaultFixture::Get();
  obs::Counter* injected =
      obs::GlobalMetrics().GetCounter("adamant_faults_injected_total");
  const double injected_before = injected->Value();

  DeviceManager manager;
  auto device = manager.AddDriver(
      sim::DriverKind::kCudaGpu, "gpu.flaky",
      FaultPlan::FailNth(InterfaceCall::kExecute, 1));
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Enable();
  {
    ServiceConfig config;
    config.workers = 1;
    QueryService service(&manager, config);
    auto ticket = service.Submit(fixture.mix->Spec(2));
    ASSERT_TRUE(ticket.ok());
    ASSERT_TRUE((*ticket)->Wait().ok());  // retried past the injected fault
    service.Drain();
  }
  const std::string json = recorder.ExportChromeJson();
  recorder.Disable();

  // The global counter moved by exactly the injected failure, and both the
  // unlabeled and the per-device series see it.
  EXPECT_EQ(injected->Value(), injected_before + 1);
  EXPECT_GE(obs::GlobalMetrics()
                .GetCounter("adamant_faults_injected_total", "device",
                            "gpu.flaky")
                ->Value(),
            1.0);

  // The trace names the injected fault distinctly — "fault:execute", with
  // the device in args — so it cannot be mistaken for an organic failure,
  // and the service's reaction (requeue) is on the same timeline.
  EXPECT_NE(json.find("\"name\":\"fault:execute\""), std::string::npos);
  EXPECT_NE(json.find("gpu.flaky"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"requeue\""), std::string::npos);
  // No latency spike was configured, so none may be reported.
  EXPECT_EQ(json.find("fault_latency:"), std::string::npos);

  obs::TraceCheckResult check = obs::ValidateChromeTrace(json);
  EXPECT_TRUE(check.ok) << check.Summary();
}

TEST(FaultObservabilityTest, LatencySpikeDistinguishableFromFailure) {
  obs::Counter* spikes =
      obs::GlobalMetrics().GetCounter("adamant_fault_latency_spikes_total");
  obs::Counter* injected =
      obs::GlobalMetrics().GetCounter("adamant_faults_injected_total");
  const double spikes_before = spikes->Value();
  const double injected_before = injected->Value();

  DeviceManager manager;
  FaultPlan plan;
  FaultSpec spec;
  spec.call = InterfaceCall::kPlaceData;
  spec.nth_call = 1;
  spec.latency_spike_us = 200;
  spec.code = StatusCode::kOk;  // a pure slowdown, not a failure
  plan.specs.push_back(spec);
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu, "gpu.slow",
                                  std::move(plan));
  ASSERT_TRUE(device.ok());
  SimulatedDevice* dev = manager.device(*device);  // AddDriver initialized it

  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Enable();
  auto buf = dev->PrepareMemory(64);
  ASSERT_TRUE(buf.ok());
  std::vector<uint8_t> data(64, 0);
  ASSERT_TRUE(dev->PlaceData(*buf, data.data(), data.size(), 0).ok());
  const std::string json = recorder.ExportChromeJson();
  recorder.Disable();

  // A spike is a span (it has duration), named "fault_latency:..." — never
  // "fault:..." — and bumps only the spike counter.
  EXPECT_EQ(spikes->Value(), spikes_before + 1);
  EXPECT_EQ(injected->Value(), injected_before);
  EXPECT_NE(json.find("\"name\":\"fault_latency:place_data\""),
            std::string::npos);
  EXPECT_NE(json.find("\"latency_us\":200"), std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"fault:place_data\""), std::string::npos);
}

}  // namespace
}  // namespace adamant
