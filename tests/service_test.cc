// Service-layer tests: scheduler determinism against serial runs, memory
// budgets (queue instead of OOM), the cross-query device column cache, and
// the scheduler building blocks.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "adamant/adamant.h"
#include "test_util.h"

namespace adamant {
namespace {

struct ServiceFixture {
  std::shared_ptr<Catalog> catalog;
  std::unique_ptr<test::ServeMix> mix;

  static const ServiceFixture& Get() {
    static const ServiceFixture* const kFixture = [] {
      auto* fixture = new ServiceFixture();
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

// --- Scheduler building blocks -------------------------------------------

TEST(MemoryBudgetTest, ReserveWithinCapacity) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.TryReserve(60));
  EXPECT_FALSE(budget.TryReserve(50));  // 60 + 50 > 100, untouched
  EXPECT_EQ(budget.reserved(), 60u);
  EXPECT_TRUE(budget.TryReserve(40));
  budget.Release(60);
  EXPECT_EQ(budget.reserved(), 40u);
  EXPECT_TRUE(budget.TryReserve(60));
}

TEST(MemoryBudgetTest, LiveChargeTracksHighWater) {
  MemoryBudget budget(100);
  budget.Charge(30);
  budget.Charge(50);
  budget.Credit(40);
  EXPECT_EQ(budget.live_bytes(), 40u);
  EXPECT_EQ(budget.live_high_water(), 80u);
}

TEST(AdmissionQueueTest, PriorityThenFifo) {
  AdmissionQueue queue(8);
  auto make = [](const std::string& name, QueryPriority priority) {
    auto query = std::make_shared<QueuedQuery>();
    query->spec.name = name;
    query->spec.priority = priority;
    return query;
  };
  queue.Push(make("n1", QueryPriority::kNormal));
  queue.Push(make("n2", QueryPriority::kNormal));
  queue.Push(make("h1", QueryPriority::kHigh));

  auto any = [](const QueuedQuery&) { return true; };
  EXPECT_EQ(queue.PopFirst(any)->spec.name, "h1");
  EXPECT_EQ(queue.PopFirst(any)->spec.name, "n1");
  EXPECT_EQ(queue.PopFirst(any)->spec.name, "n2");
  EXPECT_EQ(queue.PopFirst(any), nullptr);
}

TEST(AdmissionQueueTest, PopFirstSkipsInadmissible) {
  AdmissionQueue queue(8);
  for (const char* name : {"a", "b", "c"}) {
    auto query = std::make_shared<QueuedQuery>();
    query->spec.name = name;
    queue.Push(std::move(query));
  }
  auto picked = queue.PopFirst(
      [](const QueuedQuery& query) { return query.spec.name == "b"; });
  ASSERT_NE(picked, nullptr);
  EXPECT_EQ(picked->spec.name, "b");
  EXPECT_EQ(queue.size(), 2u);  // a and c keep their places
}

TEST(DeviceSlotTableTest, LeastLoadedPlacement) {
  DeviceSlotTable slots(3, 2);
  EXPECT_EQ(slots.PickLeastLoaded({}), 0);
  slots.Acquire(0);
  EXPECT_EQ(slots.PickLeastLoaded({}), 1);
  slots.Acquire(1);
  slots.Acquire(1);  // device 1 full
  EXPECT_EQ(slots.PickLeastLoaded({1}), -1);
  EXPECT_EQ(slots.PickLeastLoaded({1, 2}), 2);
  slots.Release(1);
  EXPECT_EQ(slots.PickLeastLoaded({1}), 1);
}

TEST(DeviceSlotTableTest, PredicateFallsThroughToNextLeastLoaded) {
  DeviceSlotTable slots(3, 1);
  // Device 0 is least loaded, but the predicate (no budget headroom, say)
  // rejects it: placement must fall through to the next candidate instead
  // of giving up.
  bool had_free_slot = false;
  EXPECT_EQ(slots.PickLeastLoaded(
                {}, [](DeviceId device) { return device != 0; },
                &had_free_slot),
            1);
  EXPECT_TRUE(had_free_slot);
  // Every candidate rejected: -1, but free slots were seen (deferral).
  EXPECT_EQ(slots.PickLeastLoaded({}, [](DeviceId) { return false; },
                                  &had_free_slot),
            -1);
  EXPECT_TRUE(had_free_slot);
  // Every device full: -1 with no free slot (not a budget deferral).
  slots.Acquire(0);
  slots.Acquire(1);
  slots.Acquire(2);
  EXPECT_EQ(slots.PickLeastLoaded({}, [](DeviceId) { return true; },
                                  &had_free_slot),
            -1);
  EXPECT_FALSE(had_free_slot);
}

// --- The seeded mixed workload matches serial execution -------------------

TEST(QueryServiceTest, SeededMixedWorkloadMatchesSerial) {
  const auto& fixture = ServiceFixture::Get();
  DeviceManager manager;
  for (int i = 0; i < 2; ++i) {
    auto device = manager.AddDriver(sim::DriverKind::kCudaGpu,
                                    "gpu." + std::to_string(i));
    ASSERT_TRUE(device.ok()) << device.status().ToString();
    ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());
  }

  // Serial references, one per query kind.
  std::vector<sql::SqlResultSet> refs;
  for (int kind = 0; kind < 3; ++kind) {
    auto rows = fixture.mix->RunSerial(kind, &manager);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    refs.push_back(std::move(*rows));
  }

  ServiceConfig config;
  config.workers = 4;
  QueryService service(&manager, config);

  std::mt19937 rng(7);
  std::uniform_int_distribution<int> pick(0, 2);
  std::vector<int> kinds;
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int i = 0; i < 50; ++i) {
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
  service.Drain();

  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.admitted, 50u);
  EXPECT_EQ(stats.completed, 50u);
  EXPECT_EQ(stats.failed, 0u);
  size_t by_device = 0;
  for (const auto& device : stats.devices) by_device += device.completed;
  EXPECT_EQ(by_device, 50u);
  EXPECT_FALSE(stats.ToJson().empty());
}

// --- Selectivity feedback: repeated served runs tighten predictions -------

// Mean selectivity q-error over the selective operators of one run's
// EXPLAIN ANALYZE tree.
double MeanSelectivityQError(const std::vector<obs::OperatorStats>& ops) {
  double sum = 0;
  size_t n = 0;
  for (const obs::OperatorStats& op : ops) {
    if (!op.selective || op.rows_in == 0) continue;
    sum += obs::QError(op.predicted_selectivity, op.ActualSelectivity());
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 1.0;
}

TEST(QueryServiceTest, RepeatedServedRunsTightenPredictions) {
  const auto& fixture = ServiceFixture::Get();
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu, "gpu.0");
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  ServiceConfig config;
  config.workers = 1;  // sequential: run N's feedback applies to run N+1
  QueryService service(&manager, config);

  // Four identical served Q3 runs. The ticket result carries the operator
  // tree, so each run's predicted-vs-actual gap is directly measurable.
  std::vector<double> run_qerror;
  std::vector<std::vector<int32_t>> run_orderkeys;
  auto q3_bundle = plan::BuildQ3(*fixture.catalog, {}, 0);
  ASSERT_TRUE(q3_bundle.ok());
  for (int run = 0; run < 4; ++run) {
    auto ticket = service.Submit(fixture.mix->Spec(0));
    ASSERT_TRUE(ticket.ok());
    const Result<QueryExecution>& result = (*ticket)->Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::vector<obs::OperatorStats>& ops =
        result->stats.profile.operators;
    ASSERT_FALSE(ops.empty()) << "run " << run;
    run_qerror.push_back(MeanSelectivityQError(ops));
    auto rows = plan::ExtractQ3(*q3_bundle, *result, *fixture.catalog, {});
    ASSERT_TRUE(rows.ok());
    std::vector<int32_t> keys;
    for (const auto& row : *rows) keys.push_back(row.orderkey);
    run_orderkeys.push_back(std::move(keys));
  }
  service.Drain();

  // Feedback observed every clean completion...
  EXPECT_EQ(service.feedback().RunsObserved("Q3"), 4u);
  // ...and the later runs' predictions are measurably tighter than the
  // first (cold) run's. Q3's cold probe estimate is off by >10x, so the
  // tightening is far beyond noise.
  EXPECT_LT(run_qerror.back(), run_qerror.front() * 0.5)
      << "cold " << run_qerror.front() << " warm " << run_qerror.back();
  EXPECT_LT(run_qerror.back(), 2.0);
  // The feedback override must never change the answer.
  for (size_t i = 1; i < run_orderkeys.size(); ++i) {
    EXPECT_EQ(run_orderkeys[i], run_orderkeys[0]) << "run " << i;
  }

  // The cache's view is directly queryable, and applying it to a freshly
  // lowered graph moves the stamped selectivities.
  auto fresh = plan::BuildQ3(*fixture.catalog, {}, 0);
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(service.feedback().ApplyToGraph("Q3", fresh->graph.get()), 0);
  // An unknown query name leaves graphs untouched.
  auto other = plan::BuildQ3(*fixture.catalog, {}, 0);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(service.feedback().ApplyToGraph("nope", other->graph.get()), 0);
}

// --- Served SQL runs the unfused Prepare graph ----------------------------

// A QuerySpec::sql submission runs exactly the graph sql::Prepare builds
// with fusion off on the placed device, so a client that prepares the same
// text unfused reads the served results through its own bundle.
TEST(QueryServiceTest, ServedSqlRunsTheUnfusedPreparedGraph) {
  const auto& fixture = ServiceFixture::Get();
  DeviceManager manager;
  for (int i = 0; i < 2; ++i) {
    auto device = manager.AddDriver(sim::DriverKind::kCudaGpu,
                                    "gpu." + std::to_string(i));
    ASSERT_TRUE(device.ok());
    ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());
  }
  ServiceConfig config;
  config.workers = 2;
  QueryService service(&manager, config);
  for (const char* name : {"q4", "q6"}) {
    SCOPED_TRACE(name);
    QuerySpec spec;
    spec.sql = sql::FindBuiltinQuery(name)->sql;
    spec.sql_catalog = fixture.catalog.get();
    spec.options.fusion = FusionMode::kAuto;  // the service ignores it
    spec.options.collect_operator_stats = true;
    auto ticket = service.Submit(std::move(spec));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    const Result<QueryExecution>& result = (*ticket)->Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    auto prepared =
        test::PrepareUnfused(name, *fixture.catalog, &manager,
                             (*ticket)->placed_device());
    ASSERT_TRUE(prepared.ok());
    const std::vector<GraphNode>& nodes = prepared->bundle.graph->nodes();
    const std::vector<obs::OperatorStats>& ops =
        result->stats.profile.operators;
    ASSERT_EQ(ops.size(), nodes.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ(ops[i].node_id, nodes[i].id);
      EXPECT_EQ(ops[i].kind, GetSignature(nodes[i].kind).kernel_name);
      EXPECT_EQ(ops[i].label, nodes[i].label);
    }
    auto served = prepared->Results(*result);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    auto local = test::PrepareUnfused(name, *fixture.catalog, &manager);
    ASSERT_TRUE(local.ok());
    QueryExecutor executor(&manager);
    auto exec = executor.Run(local->bundle.graph.get(), local->options);
    ASSERT_TRUE(exec.ok());
    auto want = local->Results(*exec);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(served->rows, want->rows);
  }
  service.Stop();
}

// --- Query history ring + slow-query retention ----------------------------

TEST(QueryServiceTest, HistoryRingIsBoundedAndNonSlowEntriesDropOperators) {
  const auto& fixture = ServiceFixture::Get();
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu, "gpu.0");
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  ServiceConfig config;
  config.workers = 1;
  config.history_capacity = 4;
  // run_ms can never exceed 2x a generous deadline: nothing is slow.
  config.slow_query_fraction = 2.0;
  QueryService service(&manager, config);
  for (int i = 0; i < 10; ++i) {
    QuerySpec spec = fixture.mix->Spec(2);
    spec.deadline_ms = 60000;
    auto ticket = service.Submit(std::move(spec));
    ASSERT_TRUE(ticket.ok());
    ASSERT_TRUE((*ticket)->Wait().ok());
  }
  service.Drain();

  const std::string json = service.HistoryJson();
  EXPECT_NE(json.find("\"capacity\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"finished\":10"), std::string::npos) << json;
  // Ring trimmed to capacity: oldest ids gone, newest (id 10) first.
  EXPECT_EQ(json.find("\"id\":1,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"id\":10,"), std::string::npos) << json;
  size_t entries = 0;
  for (size_t pos = json.find("\"id\":"); pos != std::string::npos;
       pos = json.find("\"id\":", pos + 1)) {
    ++entries;
  }
  EXPECT_EQ(entries, 4u);
  // Non-slow entries drop the operator tree (bounded memory).
  EXPECT_EQ(json.find("\"operators\""), std::string::npos);
  EXPECT_EQ(service.GetStats().slow_queries, 0u);
}

TEST(QueryServiceTest, SlowQueryRetainsOperatorTreeInHistory) {
  const auto& fixture = ServiceFixture::Get();
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu, "gpu.0");
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  ServiceConfig config;
  config.workers = 1;
  // Any nonzero run time exceeds 0 x deadline: every query is "slow".
  config.slow_query_fraction = 0.0;
  QueryService service(&manager, config);
  QuerySpec spec = fixture.mix->Spec(0);
  spec.deadline_ms = 60000;
  auto ticket = service.Submit(std::move(spec));
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE((*ticket)->Wait().ok());
  service.Drain();

  const std::string json = service.HistoryJson();
  EXPECT_NE(json.find("\"slow\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"operators\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"feedback\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"predicted_ms\""), std::string::npos) << json;
  EXPECT_EQ(service.GetStats().slow_queries, 1u);
}

// --- Memory budgets: queue, don't fail ------------------------------------

TEST(QueryServiceTest, BudgetExceedingQueryQueuesInsteadOfFailing) {
  const auto& fixture = ServiceFixture::Get();
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  auto estimate = EstimateDeviceMemoryBytes(
      *fixture.mix->query(2).bundle.graph, {}, manager.data_scale());
  ASSERT_TRUE(estimate.ok());
  ASSERT_GT(*estimate, 0u);

  // Budget fits one Q6 at a time but the device offers four slots: queries
  // beyond the budget must wait for a completion, not OOM.
  ServiceConfig config;
  config.workers = 4;
  config.slots_per_device = 4;
  config.query_budget_bytes = *estimate + *estimate / 2;
  QueryService service(&manager, config);

  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int i = 0; i < 6; ++i) {
    auto ticket = service.Submit(fixture.mix->Spec(2));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(*ticket);
  }
  for (const auto& ticket : tickets) {
    EXPECT_TRUE(ticket->Wait().ok()) << ticket->Wait().status().ToString();
  }
  service.Drain();

  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  // The reservation ceiling held: live allocations never exceeded the
  // budget even though four slots were open.
  EXPECT_LE(service.ledger().budget(0).live_high_water(),
            config.query_budget_bytes);
  // Deferrals count distinct blocked-query/epoch events, not queue scans:
  // with 6 queries dispatching one at a time, at most sum(1..5) + the
  // initial epoch's blocked queries can be counted.
  EXPECT_LE(stats.budget_deferrals, 21u);
}

TEST(QueryServiceTest, PlacesQueryOnDeviceWithBudgetHeadroom) {
  const auto& fixture = ServiceFixture::Get();
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);    // 11 GiB arena
  auto cpu = manager.AddDriver(sim::DriverKind::kOpenMpCpu);  // 64 GiB arena
  ASSERT_TRUE(gpu.ok() && cpu.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*gpu)).ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*cpu)).ok());

  auto estimate = EstimateDeviceMemoryBytes(
      *fixture.mix->query(2).bundle.graph, {}, manager.data_scale());
  ASSERT_TRUE(estimate.ok());
  ASSERT_GT(*estimate, 1u);

  // Default budgets are arena capacity minus the cache budget. Size the
  // cache so device 0 — the tie-break winner when everything is idle —
  // ends up with less headroom than the query needs while device 1 keeps
  // plenty: the scheduler must fall through to device 1 rather than park
  // the query on device 0 forever (it would never dispatch).
  const size_t gpu_arena = manager.device(0)->device_arena().capacity();
  ASSERT_GT(gpu_arena, *estimate);
  ServiceConfig config;
  config.workers = 2;
  config.cache_budget_bytes = gpu_arena - *estimate / 2;
  QueryService service(&manager, config);

  auto ticket = service.Submit(fixture.mix->Spec(2));
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  ASSERT_TRUE((*ticket)->Wait().ok())
      << (*ticket)->Wait().status().ToString();
  EXPECT_EQ((*ticket)->placed_device(), 1);
  service.Drain();
  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(QueryServiceTest, RejectsQueryLargerThanEveryBudget) {
  const auto& fixture = ServiceFixture::Get();
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  ServiceConfig config;
  config.query_budget_bytes = 1;  // nothing fits
  QueryService service(&manager, config);
  auto ticket = service.Submit(fixture.mix->Spec(2));
  ASSERT_FALSE(ticket.ok());
  EXPECT_EQ(ticket.status().code(), StatusCode::kOutOfMemory);
  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.rejected, 1u);
}

// --- Cross-query column cache ---------------------------------------------

TEST(QueryServiceTest, SecondRunHitsColumnCache) {
  const auto& fixture = ServiceFixture::Get();
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  ServiceConfig config;
  config.workers = 1;
  QueryService service(&manager, config);

  auto first = service.Submit(fixture.mix->Spec(2));
  ASSERT_TRUE(first.ok());
  const Result<QueryExecution>& first_result = (*first)->Wait();
  ASSERT_TRUE(first_result.ok());
  const size_t hits_after_first = service.GetStats().cache.hits;

  auto second = service.Submit(fixture.mix->Spec(2));
  ASSERT_TRUE(second.ok());
  const Result<QueryExecution>& second_result = (*second)->Wait();
  ASSERT_TRUE(second_result.ok());

  ServiceStats stats = service.GetStats();
  EXPECT_GT(stats.cache.hits, hits_after_first);
  EXPECT_GT(stats.cache.bytes_saved, 0u);
  // The cached run produced the same answer.
  const plan::PlanBundle& bundle = fixture.mix->query(2).bundle;
  auto a = plan::ExtractQ6(bundle, *first_result);
  auto b = plan::ExtractQ6(bundle, *second_result);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
  // The executor surfaced the hits in its own stats too.
  EXPECT_GT(second_result->stats.scan_cache_hits, 0u);
  EXPECT_GT(second_result->stats.bytes_h2d_saved, 0u);
}

// --- Multi-device leases (device-parallel model) ---------------------------

TEST(QueryServiceTest, MultiDeviceLeaseRunsDeviceParallel) {
  const auto& fixture = ServiceFixture::Get();
  DeviceManager manager;
  for (int i = 0; i < 2; ++i) {
    auto device = manager.AddDriver(sim::DriverKind::kCudaGpu,
                                    "gpu." + std::to_string(i));
    ASSERT_TRUE(device.ok());
    ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());
  }

  auto ref = fixture.mix->RunSerial(2, &manager);
  ASSERT_TRUE(ref.ok());

  ServiceConfig config;
  config.workers = 2;
  QueryService service(&manager, config);

  QuerySpec spec = fixture.mix->Spec(2);
  spec.options.model = ExecutionModelKind::kDeviceParallel;
  spec.options.chunk_elems = 2048;  // several chunks so both devices split
  spec.parallel_devices = 2;
  auto ticket = service.Submit(spec);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  const Result<QueryExecution>& result = (*ticket)->Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Same answer as the serial run, and the lease covered both devices.
  auto got = fixture.mix->query(2).Results(*result);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->rows, ref->rows);
  EXPECT_EQ((*ticket)->placed_devices().size(), 2u);
  size_t split_chunks = 0;
  for (const auto& [device, chunks] : result->stats.chunks_by_device) {
    split_chunks += chunks;
  }
  EXPECT_EQ(split_chunks, result->stats.chunks);
  EXPECT_EQ(result->stats.chunks_by_device.size(), 2u);

  service.Drain();
  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  // Both leases released their budget reservations.
  for (const auto& entry : stats.devices) {
    EXPECT_EQ(entry.budget_reserved, 0u);
  }
}

TEST(QueryServiceTest, MultiDeviceLeaseValidatesSpec) {
  const auto& fixture = ServiceFixture::Get();
  DeviceManager manager;
  for (int i = 0; i < 2; ++i) {
    auto device = manager.AddDriver(sim::DriverKind::kCudaGpu,
                                    "gpu." + std::to_string(i));
    ASSERT_TRUE(device.ok());
    ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());
  }
  QueryService service(&manager, {});

  // parallel_devices > 1 without the device-parallel model is a spec error.
  QuerySpec wrong_model = fixture.mix->Spec(2);
  wrong_model.parallel_devices = 2;
  EXPECT_TRUE(service.Submit(wrong_model).status().IsInvalidArgument());

  // More devices than the eligible pool can never dispatch.
  QuerySpec too_many = fixture.mix->Spec(2);
  too_many.options.model = ExecutionModelKind::kDeviceParallel;
  too_many.parallel_devices = 3;
  EXPECT_TRUE(service.Submit(too_many).status().IsInvalidArgument());
}

TEST(ColumnCacheTest, EvictionSkipsPinnedEntries) {
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(device.ok());

  auto column_a = std::make_shared<Column>("a", ElementType::kInt32);
  auto column_b = std::make_shared<Column>("b", ElementType::kInt32);
  column_a->Resize(256);
  column_b->Resize(256);
  const size_t bytes = column_a->byte_size();

  // Budget holds exactly one chunk.
  DeviceColumnCache cache(&manager, bytes);

  auto lease_a = cache.Acquire(0, column_a, 0, 256, bytes);
  ASSERT_TRUE(lease_a.ok());
  ASSERT_TRUE(lease_a->cached);
  EXPECT_FALSE(lease_a->hit);

  // While A is pinned the budget is exhausted and nothing is evictable:
  // B must be declined, not evict A.
  auto lease_b = cache.Acquire(0, column_b, 0, 256, bytes);
  ASSERT_TRUE(lease_b.ok());
  EXPECT_FALSE(lease_b->cached);
  EXPECT_EQ(cache.GetStats().bypasses, 1u);
  EXPECT_EQ(cache.GetStats().evictions, 0u);

  // Unpinned (and filled), A becomes the LRU victim.
  cache.Release(lease_a->token);
  auto lease_b2 = cache.Acquire(0, column_b, 0, 256, bytes);
  ASSERT_TRUE(lease_b2.ok());
  EXPECT_TRUE(lease_b2->cached);
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  cache.Release(lease_b2->token);

  // A re-acquire of A is a miss again (it was evicted), and a re-acquire of
  // B hits.
  auto lease_b3 = cache.Acquire(0, column_b, 0, 256, bytes);
  ASSERT_TRUE(lease_b3.ok());
  EXPECT_TRUE(lease_b3->hit);
  cache.Release(lease_b3->token);
}

TEST(ColumnCacheTest, HubEvictsUnpinnedEntriesBeforeOom) {
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(device.ok());

  // Scale so one 4 KiB chunk charges ~60% of the device arena: the cached
  // chunk and a second allocation cannot both be resident.
  const size_t capacity = manager.device(0)->device_arena().capacity();
  const size_t chunk = 4096;
  manager.SetDataScale(static_cast<double>(capacity) * 0.6 /
                       static_cast<double>(chunk));

  auto column = std::make_shared<Column>("c", ElementType::kInt32);
  column->Resize(chunk / sizeof(int32_t));
  DeviceColumnCache cache(&manager, capacity);  // arena, not cache, binds
  DataTransferHub hub(&manager, DataContainer::WithDefaultTransforms());
  hub.set_scan_cache(&cache);

  auto lease = cache.Acquire(0, column, 0, chunk / sizeof(int32_t), chunk);
  ASSERT_TRUE(lease.ok());
  ASSERT_TRUE(lease->cached);
  cache.Release(lease->token);  // unpinned but still resident

  // A query allocation that no longer fits next to the cached chunk must
  // evict it and succeed instead of surfacing the arena's OutOfMemory.
  std::vector<uint8_t> src(chunk, 0);
  auto buf = hub.LoadData(0, src.data(), chunk);
  ASSERT_TRUE(buf.ok()) << buf.status().ToString();
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(ColumnCacheTest, InvalidateDropsEntry) {
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(device.ok());

  auto column = std::make_shared<Column>("c", ElementType::kInt32);
  column->Resize(64);
  const size_t bytes = column->byte_size();
  DeviceColumnCache cache(&manager, bytes * 4);

  auto lease = cache.Acquire(0, column, 0, 64, bytes);
  ASSERT_TRUE(lease.ok());
  ASSERT_TRUE(lease->cached);
  cache.Invalidate(lease->token);

  auto again = cache.Acquire(0, column, 0, 64, bytes);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->hit);  // the poisoned entry did not survive
  cache.Release(again->token);
  EXPECT_EQ(cache.GetStats().invalidations, 1u);
}

}  // namespace
}  // namespace adamant
