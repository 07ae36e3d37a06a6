#include "sql/prepare.h"

#include <cstdio>
#include <map>

#include "common/units.h"
#include "plan/lowering.h"
#include "runtime/chunk_tuner.h"
#include "sql/builtin_queries.h"

namespace adamant::sql {

namespace {

SqlValue Int(int64_t v) { return SqlValue{v, 0, false}; }

SqlResultSet ToResultSet(const std::vector<tpch::Q1Row>& rows) {
  SqlResultSet out{{"l_returnflag", "l_linestatus", "sum_qty", "sum_base",
                    "sum_disc_price", "sum_charge", "avg_qty", "count"},
                   {}};
  for (const tpch::Q1Row& r : rows) {
    const double avg = r.count > 0 ? static_cast<double>(r.sum_qty) /
                                         static_cast<double>(r.count)
                                   : 0;
    out.rows.push_back({Int(r.returnflag), Int(r.linestatus), Int(r.sum_qty),
                        Int(r.sum_base_price), Int(r.sum_disc_price),
                        Int(r.sum_charge), SqlValue{0, avg, true},
                        Int(r.count)});
  }
  return out;
}

SqlResultSet ToResultSet(const std::vector<tpch::Q3Row>& rows) {
  SqlResultSet out{{"l_orderkey", "revenue", "o_orderdate", "o_shippriority"},
                   {}};
  for (const tpch::Q3Row& r : rows) {
    out.rows.push_back({Int(r.orderkey), Int(r.revenue), Int(r.orderdate),
                        Int(r.shippriority)});
  }
  return out;
}

SqlResultSet ToResultSet(const std::vector<tpch::Q4Row>& rows) {
  SqlResultSet out{{"o_orderpriority", "order_count"}, {}};
  for (const tpch::Q4Row& r : rows) {
    out.rows.push_back({Int(r.priority), Int(r.order_count)});
  }
  return out;
}

SqlResultSet ToResultSet(const std::vector<tpch::Q5Row>& rows) {
  SqlResultSet out{{"n_nationkey", "revenue"}, {}};
  for (const tpch::Q5Row& r : rows) {
    out.rows.push_back({Int(r.nationkey), Int(r.revenue)});
  }
  return out;
}

SqlResultSet ToResultSet(int64_t q6_revenue) {
  return SqlResultSet{{"revenue"}, {{Int(q6_revenue)}}};
}

SqlResultSet ToResultSet(const std::vector<tpch::Q10Row>& rows) {
  SqlResultSet out{{"c_custkey", "revenue"}, {}};
  for (const tpch::Q10Row& r : rows) {
    out.rows.push_back({Int(r.custkey), Int(r.revenue)});
  }
  return out;
}

SqlResultSet ToResultSet(const std::vector<tpch::Q12Row>& rows) {
  SqlResultSet out{{"l_shipmode", "high_line_count", "low_line_count"}, {}};
  for (const tpch::Q12Row& r : rows) {
    out.rows.push_back(
        {Int(r.shipmode), Int(r.high_line_count), Int(r.low_line_count)});
  }
  return out;
}

SqlResultSet ToResultSet(const tpch::Q14Result& r) {
  return SqlResultSet{{"promo_revenue", "total_revenue"},
                      {{Int(r.promo_revenue_cents),
                        Int(r.total_revenue_cents)}}};
}

template <typename T>
Result<SqlResultSet> ToResultSet(Result<T> rows) {
  ADAMANT_RETURN_NOT_OK(rows.status());
  return ToResultSet(*rows);
}

// Helpers for the hand-built entries' terminal formatters.
template <typename... Args>
std::string Line(const char* format, Args... args) {
  char line[160];
  std::snprintf(line, sizeof(line), format, args...);
  return line;
}

long long I(const SqlValue& v) { return static_cast<long long>(v.i); }
double Money(const SqlValue& v) { return MoneyToDouble(v.i); }

RegisteredQuery SqlEntry(
    std::string name, std::string builtin,
    std::function<Result<SqlResultSet>(const Catalog&)> reference) {
  return {std::move(name), std::move(builtin), "", nullptr, nullptr,
          std::move(reference), nullptr};
}

// Lowers `compiled_plan` — or, when it is null, builds the registry
// query's hand-built graph — onto `device`, then fuses per
// `options.fusion`.
Result<plan::PlanBundle> LowerAndFuse(const plan::LogicalNode* compiled_plan,
                                      const RegisteredQuery* registered,
                                      const Catalog& catalog,
                                      DeviceManager* manager, DeviceId device,
                                      const ExecutionOptions& options,
                                      plan::FusionReport* fusion) {
  Result<plan::PlanBundle> bundle =
      compiled_plan != nullptr
          ? plan::LowerPlan(*compiled_plan, catalog, device)
          : registered->build(catalog, device);
  ADAMANT_RETURN_NOT_OK(bundle.status());
  ADAMANT_ASSIGN_OR_RETURN(plan::FusionReport report,
                           plan::ApplyFusion(&*bundle, options, manager));
  if (fusion != nullptr) *fusion = std::move(report);
  return bundle;
}

}  // namespace

const std::vector<RegisteredQuery>& RegisteredQueries() {
  static const std::vector<RegisteredQuery>* const kQueries = [] {
    auto* q = new std::vector<RegisteredQuery>();
    q->push_back(SqlEntry("1", "q1", [](const Catalog& c) {
      return ToResultSet(tpch::Q1Reference(c, {}));
    }));
    // Hand-built until the planner estimates Q3's group count from
    // statistics: the SQL q3 under-sizes its hash table at SF >= 0.05
    // (docs/sql.md, "Known limitations").
    q->push_back(
        {"3", "", "",
         [](const Catalog& c, DeviceId d) { return plan::BuildQ3(c, {}, d); },
         [](const plan::PlanBundle& b, const QueryExecution& e,
            const Catalog& c) {
           return ToResultSet(plan::ExtractQ3(b, e, c, {}));
         },
         [](const Catalog& c) {
           return ToResultSet(tpch::Q3Reference(c, {}));
         },
         [](const SqlResultSet& r, const Catalog&) {
           std::string out;
           for (size_t i = 0; i < r.rows.size() && i < 3; ++i) {
             out += Line("    order %lld: revenue %.2f\n", I(r.rows[i][0]),
                         Money(r.rows[i][1]));
           }
           return out;
         }});
    q->push_back(SqlEntry("4", "q4", [](const Catalog& c) {
      return ToResultSet(tpch::Q4Reference(c, {}));
    }));
    // Q5/Q10/Q12/Q14 use constructs the SQL frontend lacks (build-side
    // payloads, CASE, LIKE).
    q->push_back(
        {"5", "", "region",
         [](const Catalog& c, DeviceId d) { return plan::BuildQ5(c, {}, d); },
         [](const plan::PlanBundle& b, const QueryExecution& e,
            const Catalog& c) {
           return ToResultSet(plan::ExtractQ5(b, e, c));
         },
         [](const Catalog& c) {
           return ToResultSet(tpch::Q5Reference(c, {}));
         },
         [](const SqlResultSet& r, const Catalog& c) {
           const Result<std::map<int32_t, std::string>> names =
               plan::NationNames(c);
           std::string out;
           for (const std::vector<SqlValue>& row : r.rows) {
             const auto key = static_cast<int32_t>(row[0].i);
             const std::string name = names.ok() && names->count(key)
                                          ? names->at(key)
                                          : "nation " + std::to_string(key);
             out += Line("    %-16s revenue %.2f\n", name.c_str(),
                         Money(row[1]));
           }
           return out;
         }});
    q->push_back(SqlEntry("6", "q6", [](const Catalog& c) {
      return ToResultSet(tpch::Q6Reference(c, {}));
    }));
    q->push_back(
        {"10", "", "",
         [](const Catalog& c, DeviceId d) { return plan::BuildQ10(c, {}, d); },
         [](const plan::PlanBundle& b, const QueryExecution& e,
            const Catalog&) {
           return ToResultSet(plan::ExtractQ10(b, e, {}));
         },
         [](const Catalog& c) {
           return ToResultSet(tpch::Q10Reference(c, {}));
         },
         [](const SqlResultSet& r, const Catalog&) {
           std::string out;
           for (size_t i = 0; i < r.rows.size() && i < 3; ++i) {
             out += Line("    customer %lld: lost revenue %.2f\n",
                         I(r.rows[i][0]), Money(r.rows[i][1]));
           }
           return out;
         }});
    q->push_back(
        {"12", "", "",
         [](const Catalog& c, DeviceId d) { return plan::BuildQ12(c, {}, d); },
         [](const plan::PlanBundle& b, const QueryExecution& e,
            const Catalog&) { return ToResultSet(plan::ExtractQ12(b, e)); },
         [](const Catalog& c) {
           return ToResultSet(tpch::Q12Reference(c, {}));
         },
         [](const SqlResultSet& r, const Catalog&) {
           std::string out;
           for (const std::vector<SqlValue>& row : r.rows) {
             out += Line("    shipmode %lld: high %lld, low %lld\n", I(row[0]),
                         I(row[1]), I(row[2]));
           }
           return out;
         }});
    q->push_back(
        {"14", "", "part",
         [](const Catalog& c, DeviceId d) { return plan::BuildQ14(c, {}, d); },
         [](const plan::PlanBundle& b, const QueryExecution& e,
            const Catalog&) { return ToResultSet(plan::ExtractQ14(b, e)); },
         [](const Catalog& c) {
           return ToResultSet(tpch::Q14Reference(c, {}));
         },
         [](const SqlResultSet& r, const Catalog&) {
           const tpch::Q14Result q14{r.rows[0][0].i, r.rows[0][1].i};
           return Line("    promo revenue = %.2f%%\n", q14.promo_pct());
         }});
    return q;
  }();
  return *kQueries;
}

const RegisteredQuery* FindRegisteredQuery(const std::string& name) {
  for (const RegisteredQuery& query : RegisteredQueries()) {
    if (query.name == name) return &query;
  }
  return nullptr;
}

Result<PreparedQuery> Prepare(const std::string& source,
                              const Catalog& catalog, DeviceManager* manager,
                              DeviceId device, const ExecutionOptions& options,
                              PlannerOptions planner) {
  if (manager == nullptr || device < 0 ||
      static_cast<size_t>(device) >= manager->num_devices()) {
    return Status::InvalidArgument("Prepare needs a plugged device");
  }
  PreparedQuery q;
  q.options = options;
  q.catalog = &catalog;
  q.manager = manager;
  q.registered = FindRegisteredQuery(source);
  const BuiltinQuery* builtin = FindBuiltinQuery(
      q.registered != nullptr ? q.registered->builtin : source);
  if (q.registered != nullptr) {
    q.label = "Q" + source;
    if (builtin != nullptr) q.text = builtin->sql;
  } else if (builtin != nullptr) {
    q.label = builtin->name;
    q.text = builtin->sql;
  } else {
    q.label = "sql";
    q.text = source;
  }
  if (!q.text.empty()) {
    if (planner.manager == nullptr) {
      planner.manager = manager;
      planner.cost_device = device;
    }
    ADAMANT_ASSIGN_OR_RETURN(q.compiled, Compile(q.text, catalog, planner));
  }
  ADAMANT_ASSIGN_OR_RETURN(
      q.bundle,
      LowerAndFuse(q.compiled ? q.compiled->plan.get() : nullptr,
                   q.registered, catalog, manager, device, options,
                   &q.fusion));
  if (q.options.chunk_elems == 0) {
    ADAMANT_ASSIGN_OR_RETURN(
        q.options.chunk_elems,
        SuggestChunkElems(*manager->device(device), *q.bundle.graph));
  }
  return q;
}

std::function<Result<std::unique_ptr<PrimitiveGraph>>(DeviceId)>
PreparedQuery::GraphFactory() const {
  return [logical = compiled ? compiled->plan : nullptr,
          registered = registered, catalog = catalog, manager = manager,
          options = options](
             DeviceId device) -> Result<std::unique_ptr<PrimitiveGraph>> {
    ADAMANT_ASSIGN_OR_RETURN(
        plan::PlanBundle bundle,
        LowerAndFuse(logical.get(), registered, *catalog, manager, device,
                     options, nullptr));
    return std::move(bundle.graph);
  };
}

Result<SqlResultSet> PreparedQuery::Results(const QueryExecution& exec) const {
  if (compiled) return ExtractResults(*compiled, bundle, exec);
  return registered->extract(bundle, exec, *catalog);
}

std::string PreparedQuery::Format(const SqlResultSet& results) const {
  if (compiled) return FormatResultSet(results, *compiled, *catalog);
  return registered->format(results, *catalog);
}

Status PreparedQuery::Verify(const QueryExecution& exec) const {
  if (registered == nullptr) {
    return VerifyAgainstInterpreter(*compiled, bundle, exec, *catalog);
  }
  ADAMANT_ASSIGN_OR_RETURN(SqlResultSet got, Results(exec));
  ADAMANT_ASSIGN_OR_RETURN(SqlResultSet want, registered->reference(*catalog));
  if (got.rows != want.rows) {
    return Status::ExecutionError(label + " differs from the tpch reference");
  }
  return Status::OK();
}

std::string PreparedQuery::Explain() const {
  std::string out;
  if (compiled) out = label + ": " + text + "\n" + ExplainCompiled(*compiled);
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s primitive graph (fusion %s: %d group(s), %d primitive(s) "
                "fused):\n",
                label.c_str(), FusionModeName(options.fusion), fusion.groups,
                fusion.nodes_fused);
  out += line;
  for (const GraphNode& node : bundle.graph->nodes()) {
    // A forced --kernel-variant wins; kAuto means the owning device's native
    // policy (mirrors RunContext::FinalizeStats).
    const SimulatedDevice* dev = manager->device(node.device);
    const KernelVariant effective =
        options.kernel_variant == KernelVariantRequest::kScalar
            ? KernelVariant::kScalar
        : options.kernel_variant == KernelVariantRequest::kParallel
            ? KernelVariant::kParallel
            : dev->default_kernel_variant();
    const int threads =
        effective == KernelVariant::kParallel
            ? (options.kernel_threads > 0 ? options.kernel_threads
                                          : dev->kernel_threads())
            : 1;
    const bool fused_node = node.kind == PrimitiveKind::kFused ||
                            node.kind == PrimitiveKind::kFusedAgg;
    const std::string variant = std::string(fused_node ? "fused/" : "") +
                                KernelVariantName(effective);
    std::snprintf(line, sizeof(line),
                  "  [%2d] %-22s %-36s variant=%s threads=%d\n", node.id,
                  PrimitiveKindName(node.kind), node.label.c_str(),
                  variant.c_str(), threads);
    out += line;
  }
  return out;
}

}  // namespace adamant::sql
