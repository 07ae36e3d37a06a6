#include "runtime/executor.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "obs/trace.h"
#include "runtime/exec/model_driver.h"
#include "task/hash_table.h"

namespace adamant {

const char* ExecutionModelName(ExecutionModelKind kind) {
  switch (kind) {
    case ExecutionModelKind::kOperatorAtATime:
      return "operator-at-a-time";
    case ExecutionModelKind::kChunked:
      return "chunked";
    case ExecutionModelKind::kPipelined:
      return "pipelined";
    case ExecutionModelKind::kFourPhaseChunked:
      return "4-phase";
    case ExecutionModelKind::kFourPhasePipelined:
      return "4-phase-pipelined";
    case ExecutionModelKind::kDeviceParallel:
      return "device-parallel";
  }
  return "?";
}

const char* FusionModeName(FusionMode mode) {
  switch (mode) {
    case FusionMode::kOff:
      return "off";
    case FusionMode::kOn:
      return "on";
    case FusionMode::kAuto:
      return "auto";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Knob validation: the single authority for ExecutionOptions enums/ranges.
// ---------------------------------------------------------------------------

Status ValidateExecutionOptions(const ExecutionOptions& options) {
  switch (options.model) {
    case ExecutionModelKind::kOperatorAtATime:
    case ExecutionModelKind::kChunked:
    case ExecutionModelKind::kPipelined:
    case ExecutionModelKind::kFourPhaseChunked:
    case ExecutionModelKind::kFourPhasePipelined:
    case ExecutionModelKind::kDeviceParallel:
      break;
    default:
      return Status::InvalidArgument(
          "unknown execution model " +
          std::to_string(static_cast<int>(options.model)));
  }
  switch (options.kernel_variant) {
    case KernelVariantRequest::kAuto:
    case KernelVariantRequest::kScalar:
    case KernelVariantRequest::kParallel:
      break;
    default:
      return Status::InvalidArgument(
          "unknown kernel variant " +
          std::to_string(static_cast<int>(options.kernel_variant)));
  }
  switch (options.fusion) {
    case FusionMode::kOff:
    case FusionMode::kOn:
    case FusionMode::kAuto:
      break;
    default:
      return Status::InvalidArgument(
          "unknown fusion mode " +
          std::to_string(static_cast<int>(options.fusion)));
  }
  if (options.kernel_threads < 0 || options.kernel_threads > 1024) {
    return Status::InvalidArgument(
        "kernel_threads must be in [0, 1024], got " +
        std::to_string(options.kernel_threads));
  }
  if (options.chunk_elems == 0) {
    return Status::InvalidArgument("chunk_elems must be positive");
  }
  if (options.pipeline_depth > 1024) {
    return Status::InvalidArgument(
        "pipeline_depth must be at most 1024, got " +
        std::to_string(options.pipeline_depth));
  }
  if (!options.device_split.empty()) {
    if (options.model != ExecutionModelKind::kDeviceParallel) {
      return Status::InvalidArgument(
          "device_split only applies to the device-parallel model");
    }
    if (options.device_set.empty() ||
        options.device_split.size() != options.device_set.size()) {
      return Status::InvalidArgument(
          "device_split must name one share per device_set entry (" +
          std::to_string(options.device_split.size()) + " shares for " +
          std::to_string(options.device_set.size()) + " devices)");
    }
    for (double share : options.device_split) {
      if (!(share > 0) || share > 1e9) {
        return Status::InvalidArgument(
            "device_split shares must be positive finite values");
      }
    }
  }
  return Status::OK();
}

Result<KernelVariantRequest> ParseKernelVariant(const std::string& value) {
  if (value == "auto") return KernelVariantRequest::kAuto;
  if (value == "scalar") return KernelVariantRequest::kScalar;
  if (value == "parallel") return KernelVariantRequest::kParallel;
  return Status::InvalidArgument(
      "unknown kernel variant '" + value +
      "' (expected auto|scalar|parallel)");
}

Result<FusionMode> ParseFusionMode(const std::string& value) {
  if (value == "off") return FusionMode::kOff;
  if (value == "on") return FusionMode::kOn;
  if (value == "auto") return FusionMode::kAuto;
  return Status::InvalidArgument("unknown fusion mode '" + value +
                                 "' (expected off|on|auto)");
}

Result<ExecutionModelKind> ParseExecutionModel(const std::string& value) {
  if (value == "oaat") return ExecutionModelKind::kOperatorAtATime;
  if (value == "chunked") return ExecutionModelKind::kChunked;
  if (value == "pipelined") return ExecutionModelKind::kPipelined;
  if (value == "4phase") return ExecutionModelKind::kFourPhaseChunked;
  if (value == "4phase-pipelined") {
    return ExecutionModelKind::kFourPhasePipelined;
  }
  if (value == "device-parallel") return ExecutionModelKind::kDeviceParallel;
  return Status::InvalidArgument(
      "unknown execution model '" + value +
      "' (expected oaat|chunked|pipelined|4phase|4phase-pipelined|"
      "device-parallel)");
}

// ---------------------------------------------------------------------------
// QueryExecution result accessors.
// ---------------------------------------------------------------------------

Result<const QueryExecution::NodeOutput*> QueryExecution::Output(
    int node_id) const {
  auto it = outputs_.find(node_id);
  if (it == outputs_.end()) {
    return Status::NotFound("no output for node " + std::to_string(node_id));
  }
  return &it->second;
}

Result<int64_t> QueryExecution::AggValue(int node_id) const {
  ADAMANT_ASSIGN_OR_RETURN(const NodeOutput* output, Output(node_id));
  const bool agg_kind = output->kind == PrimitiveKind::kAggBlock ||
                        output->kind == PrimitiveKind::kFusedAgg;
  if (!agg_kind || output->bytes.size() != sizeof(int64_t)) {
    return Status::InvalidArgument("node " + std::to_string(node_id) +
                                   " is not an AGG_BLOCK result");
  }
  int64_t value;
  std::memcpy(&value, output->bytes.data(), sizeof(value));
  return value;
}

Result<std::vector<std::pair<int32_t, int64_t>>> QueryExecution::GroupResults(
    int node_id) const {
  ADAMANT_ASSIGN_OR_RETURN(const NodeOutput* output, Output(node_id));
  if (output->kind != PrimitiveKind::kHashAgg) {
    return Status::InvalidArgument("node " + std::to_string(node_id) +
                                   " is not a HASH_AGG result");
  }
  const auto* slots =
      reinterpret_cast<const HashTableLayout::AggSlot*>(output->bytes.data());
  const size_t n = output->bytes.size() / sizeof(HashTableLayout::AggSlot);
  std::vector<std::pair<int32_t, int64_t>> groups;
  for (size_t i = 0; i < n; ++i) {
    if (slots[i].key != HashTableLayout::kEmptyKey) {
      groups.emplace_back(slots[i].key, slots[i].value);
    }
  }
  std::sort(groups.begin(), groups.end());
  return groups;
}

Result<std::vector<std::pair<int32_t, int32_t>>> QueryExecution::BuildEntries(
    int node_id) const {
  ADAMANT_ASSIGN_OR_RETURN(const NodeOutput* output, Output(node_id));
  if (output->kind != PrimitiveKind::kHashBuild) {
    return Status::InvalidArgument("node " + std::to_string(node_id) +
                                   " is not a HASH_BUILD result");
  }
  const auto* slots = reinterpret_cast<const HashTableLayout::BuildSlot*>(
      output->bytes.data());
  const size_t n = output->bytes.size() / sizeof(HashTableLayout::BuildSlot);
  std::vector<std::pair<int32_t, int32_t>> entries;
  for (size_t i = 0; i < n; ++i) {
    if (slots[i].key != HashTableLayout::kEmptyKey) {
      entries.emplace_back(slots[i].key, slots[i].payload);
    }
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

Result<std::vector<int64_t>> QueryExecution::SortAggValues(int node_id) const {
  ADAMANT_ASSIGN_OR_RETURN(const NodeOutput* output, Output(node_id));
  if (output->kind != PrimitiveKind::kSortAgg) {
    return Status::InvalidArgument("node " + std::to_string(node_id) +
                                   " is not a SORT_AGG result");
  }
  std::vector<int64_t> values(output->bytes.size() / sizeof(int64_t));
  std::memcpy(values.data(), output->bytes.data(), output->bytes.size());
  return values;
}

// ---------------------------------------------------------------------------
// Executor: setup + driver dispatch + cleanup + stats finalization. All
// per-model control flow lives in the drivers under src/runtime/exec/.
// ---------------------------------------------------------------------------

Result<QueryExecution> QueryExecutor::Run(PrimitiveGraph* graph,
                                          const ExecutionOptions& options) {
  if (graph == nullptr) return Status::InvalidArgument("null graph");
  if (manager_ == nullptr || manager_->num_devices() == 0) {
    return Status::InvalidArgument("no devices plugged");
  }
  ADAMANT_RETURN_NOT_OK(ValidateExecutionOptions(options));
  ADAMANT_ASSIGN_OR_RETURN(std::unique_ptr<exec::ModelDriver> driver,
                           exec::MakeModelDriver(options.model));
  obs::TraceSpan query_span;
  if (obs::TracingEnabled()) {
    query_span.Start(obs::kHostTrack,
                     std::string("query:") + ExecutionModelName(options.model));
  }
  exec::RunContext context(manager_, graph, options);
  // Every device call this thread issues for the run — cleanup included —
  // charges the run's ledger.
  RunLedger::Scope charge_to(&context.ledger());
  Status st = driver->Execute(context);
  // Delete phase / error cleanup: give every allocation back. Stats are
  // finalized on the error path too, so a stats_sink observes the partial
  // profile/operator tree of a cancelled or failed run.
  context.ReleaseAll();
  context.FinalizeStats();
  if (options.stats_sink != nullptr) *options.stats_sink = context.exec().stats;
  if (!st.ok()) return st;
  return context.TakeExecution();
}

}  // namespace adamant
