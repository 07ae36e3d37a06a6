#ifndef ADAMANT_SQL_PREPARE_H_
#define ADAMANT_SQL_PREPARE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "device/device_manager.h"
#include "plan/fusion.h"
#include "plan/tpch_plans.h"
#include "runtime/executor.h"
#include "sql/engine.h"
#include "sql/planner.h"

namespace adamant::sql {

/// One named query of the registry (`run_tpch --query=N` takes these
/// names). Each query is defined once: as a SQL builtin where the SQL
/// frontend expresses it, otherwise as a hand-built primitive graph from
/// plan/tpch_plans.h. Either way it carries the tpch::Q*Reference that
/// checks it, converted to the layout of the query's result set.
struct RegisteredQuery {
  std::string name;
  /// The SQL builtin (FindBuiltinQuery) the name compiles; empty when the
  /// query is hand-built.
  std::string builtin;
  /// A table beyond the TPC-H core the query needs ("part", "region"), or
  /// empty; catalogs generated without dimension tables lack it.
  std::string needs_table;
  /// Hand-built queries only: the primitive graph, and its results in the
  /// reference layout.
  std::function<Result<plan::PlanBundle>(const Catalog&, DeviceId)> build;
  std::function<Result<SqlResultSet>(const plan::PlanBundle&,
                                     const QueryExecution&, const Catalog&)>
      extract;
  /// The host reference answer in the query's result layout.
  std::function<Result<SqlResultSet>(const Catalog&)> reference;
  /// Hand-built queries only: terminal lines for a result set, with money
  /// in currency units and keys decoded where the query names them.
  std::function<std::string(const SqlResultSet&, const Catalog&)> format;
};

/// The registry in `run_tpch --query=all` order.
const std::vector<RegisteredQuery>& RegisteredQueries();

/// nullptr when `name` is not registered.
const RegisteredQuery* FindRegisteredQuery(const std::string& name);

/// What an optimizer hands the runtime (Fig. 2): one annotated primitive
/// graph, plus what is needed to run it again, read its results and explain
/// it.
struct PreparedQuery {
  /// Display name: "Q6" for a registry name, the builtin's name, or "sql".
  std::string label;
  /// SQL text; empty for a hand-built registry query.
  std::string text;
  /// Set when the source named a registry entry.
  const RegisteredQuery* registered = nullptr;
  /// The planned SQL query; empty for a hand-built registry query.
  std::optional<CompiledQuery> compiled;
  /// Lowered on the prepared device and fused per `options.fusion`.
  plan::PlanBundle bundle;
  plan::FusionReport fusion;
  /// The caller's options with `chunk_elems` resolved.
  ExecutionOptions options;
  const Catalog* catalog = nullptr;
  DeviceManager* manager = nullptr;

  /// A QuerySpec::make_graph factory: lowers and fuses this query again for
  /// any device, yielding the same node ids as `bundle` (so `bundle` reads
  /// the results of a run of any graph it makes). Borrows the catalog and
  /// the manager.
  std::function<Result<std::unique_ptr<PrimitiveGraph>>(DeviceId)>
  GraphFactory() const;

  /// The result set of an execution of `bundle` (or of a GraphFactory
  /// graph): sql::ExtractResults for SQL, the registry's extraction for a
  /// hand-built query.
  Result<SqlResultSet> Results(const QueryExecution& exec) const;

  /// Terminal lines for `results`: sql::FormatResultSet for SQL, the
  /// registry's formatter for a hand-built query.
  std::string Format(const SqlResultSet& results) const;

  /// Checks an execution: a registry query against its tpch reference, any
  /// other SQL against the host interpreter (sql::VerifyAgainstInterpreter).
  Status Verify(const QueryExecution& exec) const;

  /// EXPLAIN text: for SQL the compiled plan (sql::ExplainCompiled), then
  /// one line per primitive of the fused graph with the kernel variant and
  /// thread budget the run would resolve.
  std::string Explain() const;
};

/// The one prepare pipeline behind every entry point (CLI, service, benches,
/// tests). `source` is a registry name ("6"), a SQL builtin name ("q6") or
/// SQL text. SQL is compiled with `planner` (when it names no manager, the
/// join order is priced on `manager`/`device`). Then, in this order: lower
/// onto `device`, fuse per `options.fusion`, and resolve `chunk_elems` —
/// 0 asks for SuggestChunkElems on the fused graph.
Result<PreparedQuery> Prepare(const std::string& source,
                              const Catalog& catalog, DeviceManager* manager,
                              DeviceId device, const ExecutionOptions& options,
                              PlannerOptions planner = {});

}  // namespace adamant::sql

#endif  // ADAMANT_SQL_PREPARE_H_
