#ifndef ADAMANT_ADAMANT_H_
#define ADAMANT_ADAMANT_H_

/// Umbrella header for the ADAMANT library — a query executor with plug-in
/// interfaces for easy co-processor integration (Gurumurthy et al., ICDE
/// 2023 reproduction).
///
/// Layer map (Fig. 2 of the paper):
///   device/  — the ten pluggable device-interface functions + drivers
///   task/    — primitive definitions (Table I), kernels, containers
///   runtime/ — primitive graph, transfer hub, execution models
///   plan/    — TPC-H plans as primitive graphs
///   sql/     — SQL frontend: lexer → parser → binder → cost-based planner
///              onto the logical-plan IR (see docs/sql.md)
///   service/ — serving layer: concurrent scheduler, per-device memory
///              budgets, cross-query device column cache
///   sim/     — calibrated co-processor performance models (substitution
///              for physical GPUs; see DESIGN.md §2)
///   obs/     — observability: query tracing, metrics registry, per-query
///              phase profiles (see docs/observability.md)

#include "baseline/heavydb_model.h"
#include "common/date.h"
#include "common/result.h"
#include "common/status.h"
#include "common/units.h"
#include "device/device.h"
#include "device/device_manager.h"
#include "device/drivers.h"
#include "device/fault_injector.h"
#include "device/sim_device.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "plan/fusion.h"
#include "plan/logical_plan.h"
#include "plan/lowering.h"
#include "plan/placement_optimizer.h"
#include "plan/tpch_plans.h"
#include "runtime/chunk_tuner.h"
#include "runtime/exec/hetero_split.h"
#include "runtime/executor.h"
#include "runtime/primitive_graph.h"
#include "runtime/runtime_hooks.h"
#include "runtime/transfer_hub.h"
#include "service/column_cache.h"
#include "service/device_health.h"
#include "service/memory_budget.h"
#include "service/query_service.h"
#include "service/scheduler.h"
#include "sim/presets.h"
#include "sql/builtin_queries.h"
#include "sql/engine.h"
#include "sql/prepare.h"
#include "sim/trace_export.h"
#include "storage/table.h"
#include "task/containers.h"
#include "task/kernel_registry.h"
#include "task/kernels.h"
#include "task/primitive.h"
#include "tpch/reference.h"
#include "tpch/tpch_gen.h"

#endif  // ADAMANT_ADAMANT_H_
