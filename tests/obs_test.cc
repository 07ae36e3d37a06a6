// Observability subsystem tests: metrics registry exactness and exposition,
// histogram quantiles against exact percentiles, the trace recorder under
// concurrency, trace validation (positive on real executor output, negative
// on hand-broken documents), and per-query phase profiles.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "adamant/adamant.h"
#include "test_util.h"

namespace adamant {
namespace {

// --- Metrics ----------------------------------------------------------------

TEST(MetricsTest, CounterIsExactUnderConcurrency) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), static_cast<double>(kThreads * kPerThread));
}

TEST(MetricsTest, RegistryReturnsStablePointersPerSeries) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("requests_total");
  obs::Counter* b = registry.GetCounter("requests_total");
  obs::Counter* labeled =
      registry.GetCounter("requests_total", "device", "gpu0");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, labeled);
  a->Add(3);
  labeled->Add(2);
  EXPECT_EQ(registry.GetCounter("requests_total")->Value(), 3.0);
  EXPECT_EQ(registry.GetCounter("requests_total", "device", "gpu0")->Value(),
            2.0);
}

TEST(MetricsTest, PrometheusTextExposition) {
  obs::MetricsRegistry registry;
  registry.GetCounter("adamant_widgets_total")->Add(5);
  registry.GetCounter("adamant_widgets_total", "device", "gpu0")->Add(2);
  registry.GetGauge("adamant_depth")->Set(3.5);
  obs::Histogram* hist = registry.GetHistogram("adamant_lat_ms", {1, 10, 100});
  hist->Observe(0.5);
  hist->Observe(50);

  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE adamant_widgets_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("adamant_widgets_total 5"), std::string::npos);
  EXPECT_NE(text.find("adamant_widgets_total{device=\"gpu0\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE adamant_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("adamant_depth 3.5"), std::string::npos);
  // Histogram: cumulative buckets, +Inf, _sum and _count series.
  EXPECT_NE(text.find("# TYPE adamant_lat_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("adamant_lat_ms_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("adamant_lat_ms_bucket{le=\"100\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("adamant_lat_ms_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("adamant_lat_ms_sum 50.5"), std::string::npos);
  EXPECT_NE(text.find("adamant_lat_ms_count 2"), std::string::npos);
}

TEST(MetricsTest, JsonExposition) {
  obs::MetricsRegistry registry;
  registry.GetCounter("a_total")->Add(7);
  registry.GetCounter("a_total", "device", "gpu0")->Add(1);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"a_total\":7"), std::string::npos);
  EXPECT_NE(json.find("\"a_total{device=\\\"gpu0\\\"}\":1"),
            std::string::npos);
}

// --- Histogram quantiles vs exact percentiles -------------------------------

double ExactPercentile(std::vector<double> values, double p) {
  // The estimator ServiceStats used before histograms: sort, take rank
  // p*(n-1), interpolate between neighbours.
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

TEST(HistogramTest, QuantileTracksExactPercentileWithinBucketWidth) {
  // Uniform buckets of width 1 over [0,100]: the histogram estimate may be
  // off by at most one bucket width from the exact sample percentile.
  std::vector<double> bounds;
  for (int i = 1; i <= 100; ++i) bounds.push_back(i);
  obs::Histogram hist(bounds);

  // A deterministic skewed sample set (quadratic ramp: many small values,
  // few large — the shape queue-wait distributions actually have).
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) {
    const double v = (i * i) % 9973 % 100 + 0.5;
    samples.push_back(v);
    hist.Observe(v);
  }

  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const double exact = ExactPercentile(samples, q);
    const double estimate = hist.Quantile(q);
    EXPECT_NEAR(estimate, exact, 1.0)
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
}

TEST(HistogramTest, QuantileEdgeCases) {
  obs::Histogram empty({1, 10});
  EXPECT_EQ(empty.Quantile(0.5), 0.0);

  obs::Histogram one({1, 10, 100});
  one.Observe(42);
  // A single observation: every quantile is that observation (clamped to
  // the observed min == max).
  EXPECT_EQ(one.Quantile(0.0), 42.0);
  EXPECT_EQ(one.Quantile(0.5), 42.0);
  EXPECT_EQ(one.Quantile(1.0), 42.0);

  obs::Histogram over({1});
  over.Observe(1000);  // overflow bucket
  EXPECT_EQ(over.Quantile(0.5), 1000.0);  // clamped to observed max
  EXPECT_EQ(over.Min(), 1000.0);
  EXPECT_EQ(over.Max(), 1000.0);
}

TEST(HistogramTest, ServiceStatsPercentilesComeFromHistograms) {
  // End-to-end: run a few queries through a service and check the reported
  // p50/p95 are consistent with the per-ticket latencies the tickets carry,
  // to within the latency-bucket resolution (~2.5x steps ⇒ the estimate
  // must land between min and max of the sample, and near the exact
  // percentile's bucket).
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto catalog = tpch::Generate(config);
  ASSERT_TRUE(catalog.ok());

  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());
  ServiceConfig service_config;
  service_config.workers = 2;
  QueryService service(&manager, service_config);

  auto q6 = test::PrepareUnfused("6", **catalog, &manager);
  ASSERT_TRUE(q6.ok());
  std::vector<double> run_ms;
  for (int i = 0; i < 8; ++i) {
    QuerySpec spec;
    spec.name = "Q6";
    spec.make_graph = q6->GraphFactory();
    auto ticket = service.Submit(std::move(spec));
    ASSERT_TRUE(ticket.ok());
    ASSERT_TRUE((*ticket)->Wait().ok());
    run_ms.push_back((*ticket)->run_ms());
  }
  service.Drain();

  const ServiceStats stats = service.GetStats();
  const double lo = *std::min_element(run_ms.begin(), run_ms.end());
  const double hi = *std::max_element(run_ms.begin(), run_ms.end());
  EXPECT_GE(stats.run_p50_ms, lo);
  EXPECT_LE(stats.run_p50_ms, hi);
  EXPECT_GE(stats.run_p95_ms, stats.run_p50_ms);
  EXPECT_LE(stats.run_p95_ms, hi);

  // Single source of truth: the Prometheus view of the same registry must
  // report the same completion count ServiceStats does.
  const std::string prom = service.metrics().ToPrometheusText();
  EXPECT_NE(prom.find("adamant_service_completed_total " +
                      std::to_string(stats.completed)),
            std::string::npos);
  EXPECT_NE(prom.find("adamant_service_run_ms_count 8"), std::string::npos);
}

// --- Trace recorder ---------------------------------------------------------

TEST(TraceRecorderTest, DisabledRecordsNothing) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Disable();
  recorder.Clear();
  {
    obs::TraceSpan span;
    if (obs::TracingEnabled()) span.Start(0, "never");
  }
  obs::TraceInstant(0, "never");
  EXPECT_EQ(recorder.TotalEvents(), 0u);
}

TEST(TraceRecorderTest, ConcurrentSpansAllExport) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Enable();
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::TraceSpan span;
        span.Start(t, "op" + std::to_string(i));
        span.End();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(recorder.TotalEvents(),
            static_cast<size_t>(kThreads * kSpansPerThread));
  const std::string json = recorder.ExportChromeJson();
  recorder.Disable();

  obs::TraceCheckResult check = obs::ValidateChromeTrace(json);
  EXPECT_TRUE(check.ok) << check.Summary();
  EXPECT_EQ(check.event_count,
            static_cast<size_t>(kThreads * kSpansPerThread));
  EXPECT_EQ(check.track_count, static_cast<size_t>(kThreads));
}

TEST(TraceRecorderTest, EnableClearsAndRestartsEpoch) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Enable();
  obs::TraceInstant(0, "first");
  EXPECT_EQ(recorder.TotalEvents(), 1u);
  recorder.Enable();  // re-enable: prior events must be gone
  EXPECT_EQ(recorder.TotalEvents(), 0u);
  recorder.Disable();
}

// --- Trace validation on real executor output -------------------------------

TEST(TraceValidationTest, DeviceParallelTracedRunIsValid) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto catalog = tpch::Generate(config);
  ASSERT_TRUE(catalog.ok());

  DeviceManager manager;
  for (int i = 0; i < 2; ++i) {
    auto device = manager.AddDriver(sim::DriverKind::kCudaGpu,
                                    "gpu." + std::to_string(i));
    ASSERT_TRUE(device.ok());
    ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());
  }

  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Enable();
  recorder.SetTrackName(0, "gpu.0");
  recorder.SetTrackName(1, "gpu.1");

  auto bundle = test::PrepareUnfused("6", **catalog, &manager, 0);
  ASSERT_TRUE(bundle.ok());
  ExecutionOptions options;
  options.model = ExecutionModelKind::kDeviceParallel;
  options.device_set = {0, 1};
  options.chunk_elems = 4096;  // several chunks per device
  QueryExecutor executor(&manager);
  auto exec = executor.Run(bundle->bundle.graph.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();

  const std::string json = recorder.ExportChromeJson();
  recorder.Disable();

  // The validator enforces: per-track monotonic timestamps, balanced and
  // complete events only, chunk spans nested in pipeline spans.
  obs::TraceCheckResult check = obs::ValidateChromeTrace(json);
  EXPECT_TRUE(check.ok) << check.Summary();
  EXPECT_GE(check.track_count, 3u);  // two devices + host

  // Both device tracks carried chunk work, and the standard span families
  // are all present.
  EXPECT_NE(json.find("\"tid\":0,"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1,"), std::string::npos);
  for (const char* want : {"pipeline:", "chunk:", "kernel:", "h2d",
                           "query:device-parallel"}) {
    EXPECT_NE(json.find(want), std::string::npos) << want;
  }
}

// --- Trace validation: negatives --------------------------------------------

TEST(TraceValidationTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(obs::ValidateChromeTrace("not json").ok);
  EXPECT_FALSE(obs::ValidateChromeTrace("{}").ok);
  EXPECT_FALSE(obs::ValidateChromeTrace("{\"traceEvents\":3}").ok);
  // Trailing garbage after a valid document.
  EXPECT_FALSE(
      obs::ValidateChromeTrace("{\"traceEvents\":[]} extra").ok);
  // Valid but empty is fine.
  EXPECT_TRUE(obs::ValidateChromeTrace("{\"traceEvents\":[]}").ok);
}

TEST(TraceValidationTest, RejectsBackwardsTimestamps) {
  const std::string json =
      "{\"traceEvents\":["
      "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":100,\"dur\":5,\"name\":\"a\"},"
      "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":50,\"dur\":5,\"name\":\"b\"}"
      "]}";
  obs::TraceCheckResult check = obs::ValidateChromeTrace(json);
  EXPECT_FALSE(check.ok);
  ASSERT_FALSE(check.errors.empty());
  EXPECT_NE(check.errors[0].find("backwards"), std::string::npos);
  // Same timestamps on different tracks are fine.
  const std::string two_tracks =
      "{\"traceEvents\":["
      "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":100,\"dur\":5,\"name\":\"a\"},"
      "{\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":50,\"dur\":5,\"name\":\"b\"}"
      "]}";
  EXPECT_TRUE(obs::ValidateChromeTrace(two_tracks).ok);
}

TEST(TraceValidationTest, RejectsUnbalancedBeginEnd) {
  const std::string unbalanced =
      "{\"traceEvents\":["
      "{\"ph\":\"B\",\"pid\":0,\"tid\":0,\"ts\":1,\"name\":\"open\"}"
      "]}";
  EXPECT_FALSE(obs::ValidateChromeTrace(unbalanced).ok);
  const std::string mismatched =
      "{\"traceEvents\":["
      "{\"ph\":\"B\",\"pid\":0,\"tid\":0,\"ts\":1,\"name\":\"a\"},"
      "{\"ph\":\"E\",\"pid\":0,\"tid\":0,\"ts\":2,\"name\":\"b\"}"
      "]}";
  EXPECT_FALSE(obs::ValidateChromeTrace(mismatched).ok);
}

TEST(TraceValidationTest, RejectsChunkOutsidePipeline) {
  const std::string orphan_chunk =
      "{\"traceEvents\":["
      "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0,\"dur\":10,"
      "\"name\":\"pipeline:0\"},"
      "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":20,\"dur\":10,"
      "\"name\":\"chunk:0\"}"
      "]}";
  obs::TraceCheckResult check = obs::ValidateChromeTrace(orphan_chunk);
  EXPECT_FALSE(check.ok);
  const std::string nested =
      "{\"traceEvents\":["
      "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0,\"dur\":100,"
      "\"name\":\"pipeline:0\"},"
      "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":20,\"dur\":10,"
      "\"name\":\"chunk:0\"}"
      "]}";
  EXPECT_TRUE(obs::ValidateChromeTrace(nested).ok);
}

// --- Per-query phase profiles -----------------------------------------------

TEST(ProfileTest, DirectRunCollectsPhaseBreakdown) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto catalog = tpch::Generate(config);
  ASSERT_TRUE(catalog.ok());

  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  auto bundle = plan::BuildQ3(**catalog, {}, 0);
  ASSERT_TRUE(bundle.ok());
  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  QueryExecutor executor(&manager);
  auto exec = executor.Run(bundle->graph.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();

  const obs::QueryProfile& profile = exec->stats.profile;
  EXPECT_GT(profile.run_ms, 0.0);
  ASSERT_FALSE(profile.pipelines.empty());  // Q3 is multi-pipeline
  EXPECT_GT(profile.pipelines.size(), 1u);
  size_t chunks = 0;
  for (const auto& pipeline : profile.pipelines) chunks += pipeline.chunks;
  EXPECT_EQ(chunks, exec->stats.chunks);
  ASSERT_EQ(exec->stats.devices.size(), 1u);
  const DeviceRunStats& device_stats = exec->stats.devices[0];
  EXPECT_GT(device_stats.compute_busy_us, 0.0);
  EXPECT_GT(device_stats.h2d_busy_us, 0.0);
  EXPECT_GT(device_stats.execute_calls, 0u);
  // Every pipeline carries its device's busy slice.
  for (const auto& pipeline : profile.pipelines) {
    ASSERT_EQ(pipeline.devices.size(), 1u);
  }

  const std::string json = profile.ToJson(exec->stats.devices);
  for (const char* want :
       {"\"queue_wait_ms\"", "\"run_ms\"", "\"merge_host_ms\"",
        "\"pipelines\"", "\"devices\"", "\"transfer_ms\"", "\"compute_ms\"",
        "\"d2h_ms\"", "\"kernel_body_ms\"", "\"kernel_launches\"",
        "\"fused_launches\"", "\"fused_body_ms\"", "\"name\""}) {
    EXPECT_NE(json.find(want), std::string::npos) << want;
  }
}

TEST(ProfileTest, EveryRunIsProfiledAndServiceTicketCarriesIt) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto catalog = tpch::Generate(config);
  ASSERT_TRUE(catalog.ok());

  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  // A direct run with default options carries its profile.
  {
    auto bundle = test::PrepareUnfused("6", **catalog, &manager, 0);
    ASSERT_TRUE(bundle.ok());
    QueryExecutor executor(&manager);
    auto exec = executor.Run(bundle->bundle.graph.get(), {});
    ASSERT_TRUE(exec.ok());
    EXPECT_FALSE(exec->stats.profile.pipelines.empty());
    EXPECT_GT(exec->stats.profile.run_ms, 0.0);
  }

  // Through the service too, with the queue wait stamped in.
  ServiceConfig service_config;
  service_config.workers = 1;
  QueryService service(&manager, service_config);
  auto q6 = test::PrepareUnfused("6", **catalog, &manager);
  ASSERT_TRUE(q6.ok());
  QuerySpec spec;
  spec.name = "Q6";
  spec.make_graph = q6->GraphFactory();
  auto ticket = service.Submit(std::move(spec));
  ASSERT_TRUE(ticket.ok());
  const Result<QueryExecution>& result = (*ticket)->Wait();
  ASSERT_TRUE(result.ok());
  const obs::QueryProfile& profile = result->stats.profile;
  EXPECT_EQ(profile.queue_wait_ms, (*ticket)->queue_wait_ms());
  EXPECT_FALSE(profile.pipelines.empty());
  service.Drain();
}

// --- EXPLAIN ANALYZE operator stats ----------------------------------------

TEST(OperatorStatsTest, CollectedTreeAlignsWithGraphAndResultsBitIdentical) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto catalog = tpch::Generate(config);
  ASSERT_TRUE(catalog.ok());

  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());
  QueryExecutor executor(&manager);

  // Baseline: plain run.
  auto plain_bundle = plan::BuildQ3(**catalog, {}, 0);
  ASSERT_TRUE(plain_bundle.ok());
  auto plain = executor.Run(plain_bundle->graph.get(), {});
  ASSERT_TRUE(plain.ok());
  auto plain_rows = plan::ExtractQ3(*plain_bundle, *plain, **catalog, {});
  ASSERT_TRUE(plain_rows.ok());
  EXPECT_TRUE(plain->stats.profile.operators.empty());

  // Analyze run: same plan, operator stats on.
  auto bundle = plan::BuildQ3(**catalog, {}, 0);
  ASSERT_TRUE(bundle.ok());
  ExecutionOptions options;
  options.collect_operator_stats = true;
  auto exec = executor.Run(bundle->graph.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();

  // Bit-identical results despite the instrumentation.
  auto rows = plan::ExtractQ3(*bundle, *exec, **catalog, {});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, *plain_rows);

  // The tree covers every graph node, in node-id order, with consistent
  // measurements: rows flowed, kernels launched, filters filtered.
  const std::vector<obs::OperatorStats>& ops = exec->stats.profile.operators;
  ASSERT_EQ(ops.size(), bundle->graph->nodes().size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const obs::OperatorStats& op = ops[i];
    const GraphNode& node = bundle->graph->nodes()[i];
    EXPECT_EQ(op.node_id, node.id);
    EXPECT_EQ(op.label, node.label);
    EXPECT_GT(op.launches, 0u);
    EXPECT_GT(op.rows_in, 0u);
    EXPECT_GE(op.kernel_ms, 0.0);
    if (op.selective) {
      EXPECT_LE(op.rows_out, op.rows_in);
      EXPECT_FALSE(op.feedback_key.empty()) << op.label;
      EXPECT_GT(op.predicted_selectivity, 0.0);
      EXPECT_GT(op.max_chunk_selectivity, 0.0);
    }
    EXPECT_GT(op.predicted_cost_us, 0.0);
    ASSERT_EQ(op.devices.size(), 1u);
    EXPECT_EQ(op.devices[0].rows_in, op.rows_in);
    EXPECT_EQ(op.devices[0].rows_out, op.rows_out);
  }
  // Q3's probes are far more selective than the data flowing in.
  bool saw_selective_probe = false;
  for (const obs::OperatorStats& op : ops) {
    if (op.kind == "hash_probe" && op.rows_out < op.rows_in) {
      saw_selective_probe = true;
    }
  }
  EXPECT_TRUE(saw_selective_probe);

  // The serialized profile carries the tree.
  const std::string json = exec->stats.profile.ToJson();
  for (const char* want : {"\"operators\"", "\"feedback_key\"",
                           "\"selectivity_qerror\"", "\"predicted_cost_us\""}) {
    EXPECT_NE(json.find(want), std::string::npos) << want;
  }
}

TEST(OperatorStatsTest, FusedRunAttributesFusedLaunchesInDeviceStats) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto catalog = tpch::Generate(config);
  ASSERT_TRUE(catalog.ok());

  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  auto bundle = test::PrepareUnfused("6", **catalog, &manager, 0);
  ASSERT_TRUE(bundle.ok());
  ExecutionOptions options;
  options.fusion = FusionMode::kOn;
  options.collect_operator_stats = true;
  auto fusion = plan::ApplyFusion(&bundle->bundle, options, &manager);
  ASSERT_TRUE(fusion.ok());
  ASSERT_GT(fusion->groups, 0);

  QueryExecutor executor(&manager);
  auto exec = executor.Run(bundle->bundle.graph.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();

  // The fused launch count and body-time share surface in the device stats
  // and the profile JSON, and the operator tree attributes the wall time to
  // the fused variant bucket.
  ASSERT_EQ(exec->stats.devices.size(), 1u);
  const DeviceRunStats& dev = exec->stats.devices[0];
  EXPECT_GT(dev.fused_launches, 0u);
  EXPECT_GT(dev.execute_calls, 0u);
  EXPECT_LE(dev.fused_launches, dev.execute_calls);
  EXPECT_GE(dev.fused_body_us, 0.0);
  EXPECT_LE(dev.fused_body_us, dev.kernel_body_us);
  const std::string json = exec->stats.profile.ToJson(exec->stats.devices);
  EXPECT_NE(json.find("\"fused_launches\""), std::string::npos);
  EXPECT_NE(json.find("\"fused_body_ms\""), std::string::npos);

  bool saw_fused_op = false;
  for (const obs::OperatorStats& op : exec->stats.profile.operators) {
    if (op.kind == "fused" || op.kind == "fused_agg") {
      saw_fused_op = true;
      EXPECT_GT(op.fused_ms, 0.0);
      EXPECT_NEAR(op.fused_ms, op.kernel_ms, 1e-9);
    }
  }
  EXPECT_TRUE(saw_fused_op);
}

TEST(QErrorTest, SymmetricWithFloors) {
  EXPECT_DOUBLE_EQ(obs::QError(2.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(obs::QError(1.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(obs::QError(0.5, 0.5), 1.0);
  // Zero-sided estimates clamp to a floor: large finite, never inf/nan.
  EXPECT_DOUBLE_EQ(obs::QError(0.0, 0.0), 1.0);
  const double zero_vs_one = obs::QError(0.0, 1.0);
  EXPECT_GT(zero_vs_one, 1e6);
  EXPECT_TRUE(std::isfinite(zero_vs_one));
  // Bucket layout starts at the perfect estimate and is sorted.
  const std::vector<double> buckets = obs::QErrorBuckets();
  ASSERT_FALSE(buckets.empty());
  EXPECT_DOUBLE_EQ(buckets.front(), 1.0);
  EXPECT_TRUE(std::is_sorted(buckets.begin(), buckets.end()));
}

TEST(QErrorTest, RecordPlanQErrorsFillsHistograms) {
  obs::MetricsRegistry registry;
  obs::OperatorStats filter;
  filter.selective = true;
  filter.predicted_selectivity = 0.5;
  filter.rows_in = 100;
  filter.rows_out = 25;  // actual 0.25 → q-error 2
  filter.predicted_cost_us = 10;
  filter.kernel_ms = 1;
  filter.launches = 1;
  obs::OperatorStats scan;
  scan.predicted_cost_us = 10;
  scan.kernel_ms = 1;
  scan.launches = 1;
  obs::RecordPlanQErrors(&registry, "Q3", {filter, scan});

  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("adamant_plan_qerror_selectivity_count{query=\"Q3\"} 1"),
            std::string::npos)
      << text;
  // Equal cost shares on both sides → both cost q-errors are exactly 1.
  EXPECT_NE(text.find("adamant_plan_qerror_cost_bucket{query=\"Q3\",le=\"1\"}"
                      " 2"),
            std::string::npos)
      << text;
}

// --- Heterogeneous split metrics ---------------------------------------------

// A device-parallel run with a deliberately mis-set split must expose the
// per-device planned split ratio gauge and bump the process-wide steal
// counter through the standard Prometheus exposition.
TEST(MetricsTest, SplitRatioGaugeAndStealCounterExposed) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto catalog = tpch::Generate(config);
  ASSERT_TRUE(catalog.ok());

  DeviceManager manager;
  for (int i = 0; i < 2; ++i) {
    auto device = manager.AddDriver(sim::DriverKind::kCudaGpu,
                                    "split_gpu." + std::to_string(i));
    ASSERT_TRUE(device.ok());
    ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());
  }

  const double stolen_before = obs::GlobalMetrics()
                                   .GetCounter("adamant_chunks_stolen_total")
                                   ->Value();
  auto bundle = test::PrepareUnfused("6", **catalog, &manager, 0);
  ASSERT_TRUE(bundle.ok());
  ExecutionOptions options;
  options.model = ExecutionModelKind::kDeviceParallel;
  options.device_set = {0, 1};
  options.device_split = {0.1, 0.9};  // mis-set: device 0 must steal
  options.chunk_elems = 1024;         // many chunks → guaranteed stealing
  QueryExecutor executor(&manager);
  auto exec = executor.Run(bundle->bundle.graph.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();

  const std::string text = obs::GlobalMetrics().ToPrometheusText();
  EXPECT_NE(text.find("# TYPE adamant_split_ratio gauge"), std::string::npos)
      << text;
  EXPECT_NE(text.find("adamant_split_ratio{device=\"split_gpu.0\"} 0.1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("adamant_split_ratio{device=\"split_gpu.1\"} 0.9"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE adamant_chunks_stolen_total counter"),
            std::string::npos)
      << text;
  const double stolen_after = obs::GlobalMetrics()
                                  .GetCounter("adamant_chunks_stolen_total")
                                  ->Value();
  EXPECT_GT(stolen_after, stolen_before);
  size_t stolen_stats = 0;
  for (const auto& [device, stolen] : exec->stats.chunks_stolen_by_device) {
    stolen_stats += stolen;
  }
  EXPECT_DOUBLE_EQ(stolen_after - stolen_before,
                   static_cast<double>(stolen_stats));
}

// --- Counter ('C') trace events ---------------------------------------------

TEST(TraceValidationTest, CounterSeriesMustBeMonotonic) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Enable();
  obs::TraceCounter(obs::kServiceTrack, "service.queries",
                    "{\"finished\":1,\"slow\":0}");
  obs::TraceCounter(obs::kServiceTrack, "service.queries",
                    "{\"finished\":2,\"slow\":1}");
  const std::string good = recorder.ExportChromeJson();
  recorder.Disable();
  EXPECT_TRUE(obs::ValidateChromeTrace(good).ok);

  // A decreasing sample of the same series is flagged.
  recorder.Enable();
  obs::TraceCounter(obs::kServiceTrack, "service.queries",
                    "{\"finished\":5}");
  obs::TraceCounter(obs::kServiceTrack, "service.queries",
                    "{\"finished\":4}");
  const std::string bad = recorder.ExportChromeJson();
  recorder.Disable();
  const obs::TraceCheckResult result = obs::ValidateChromeTrace(bad);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.errors.empty());
  EXPECT_NE(result.errors[0].find("decreases"), std::string::npos);
}

}  // namespace
}  // namespace adamant
