#ifndef ADAMANT_TESTS_TEST_UTIL_H_
#define ADAMANT_TESTS_TEST_UTIL_H_

// Shared test scaffolding over sql::Prepare (sql/prepare.h).

#include <memory>
#include <string>
#include <vector>

#include "adamant/adamant.h"

namespace adamant::test {

/// Registry query `name` prepared unfused: the tests exercise individual
/// primitives unless they ask for fusion themselves.
inline Result<sql::PreparedQuery> PrepareUnfused(const std::string& name,
                                                 const Catalog& catalog,
                                                 DeviceManager* manager,
                                                 DeviceId device = 0) {
  ExecutionOptions options;
  options.fusion = FusionMode::kOff;
  return sql::Prepare(name, catalog, manager, device, options);
}

/// The service tests' workload: registry queries 3, 4 and 6 (kinds 0, 1,
/// 2), prepared unfused once on a private GPU. Unfused factories never
/// consult that manager, so any service can run the graphs they make, and
/// each query's bundle reads the results of every such run.
class ServeMix {
 public:
  explicit ServeMix(const Catalog& catalog) {
    auto gpu = planner_.AddDriver(sim::DriverKind::kCudaGpu);
    ADAMANT_CHECK(gpu.ok()) << gpu.status().ToString();
    for (const char* name : {"3", "4", "6"}) {
      auto query = PrepareUnfused(name, catalog, &planner_, *gpu);
      ADAMANT_CHECK(query.ok()) << query.status().ToString();
      queries_.push_back(std::move(*query));
    }
  }
  ServeMix(const ServeMix&) = delete;
  ServeMix& operator=(const ServeMix&) = delete;

  const sql::PreparedQuery& query(int kind) const {
    return queries_.at(static_cast<size_t>(kind));
  }

  /// Runs a fresh graph of `kind` on device 0 of `manager` and reads it.
  Result<sql::SqlResultSet> RunSerial(int kind, DeviceManager* manager,
                                      const ExecutionOptions& options =
                                          {}) const {
    ADAMANT_ASSIGN_OR_RETURN(std::unique_ptr<PrimitiveGraph> graph,
                             query(kind).GraphFactory()(0));
    QueryExecutor executor(manager);
    ADAMANT_ASSIGN_OR_RETURN(QueryExecution exec,
                             executor.Run(graph.get(), options));
    return query(kind).Results(exec);
  }

  QuerySpec Spec(int kind) const {
    QuerySpec spec;
    spec.name = query(kind).label;
    spec.make_graph = query(kind).GraphFactory();
    return spec;
  }

 private:
  DeviceManager planner_;
  std::vector<sql::PreparedQuery> queries_;
};

}  // namespace adamant::test

#endif  // ADAMANT_TESTS_TEST_UTIL_H_
