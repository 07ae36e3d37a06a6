#ifndef ADAMANT_RUNTIME_EXECUTOR_H_
#define ADAMANT_RUNTIME_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "device/device_manager.h"
#include "obs/profile.h"
#include "runtime/primitive_graph.h"
#include "runtime/runtime_hooks.h"
#include "runtime/transfer_hub.h"
#include "sim/sim_time.h"
#include "task/containers.h"

namespace adamant {

/// The execution models of Section IV.
enum class ExecutionModelKind {
  /// Full inputs resident in device memory, one primitive at a time; fails
  /// with OutOfMemory beyond device capacity (Section IV-A).
  kOperatorAtATime,
  /// Algorithm 1: per chunk, run the whole pipeline; the next chunk's
  /// transfer waits for the current chunk's execution (synchronous).
  kChunked,
  /// Algorithm 2: a transfer thread streams chunks ahead of the execution
  /// thread (fetched_until / processed_until synchronization); pageable
  /// memory.
  kPipelined,
  /// Algorithm 3 without overlap: stage (pinned double buffers + staged
  /// allocations) / copy / compute / delete.
  kFourPhaseChunked,
  /// Algorithm 3 with copy-compute overlap.
  kFourPhasePipelined,
  /// Intra-query device parallelism: the chunk range of each pipeline is
  /// partitioned across a *set* of devices (ExecutionOptions::device_set),
  /// each running the chunked model over its partition concurrently;
  /// pipeline-breaker outputs are merged at the task layer (partial-sum /
  /// hash-table union) and streaming terminal parts are ordered by
  /// base_row, so results are bit-identical to a single-device run.
  kDeviceParallel,
};

const char* ExecutionModelName(ExecutionModelKind kind);

/// Whether plan::ApplyFusion rewrites fusable chains into FUSED composite
/// primitives. kAuto fuses a group only when the device's cost model says
/// the single-pass kernel beats the unfused chain.
enum class FusionMode {
  kOff = 0,
  kOn,
  kAuto,
};

const char* FusionModeName(FusionMode mode);

struct QueryStats;

struct ExecutionOptions {
  ExecutionModelKind model = ExecutionModelKind::kChunked;
  /// Chunk size in *nominal* elements (the paper uses 2^25 int values); the
  /// executor divides by the manager's data scale so the chunk *count*
  /// matches the nominal run.
  size_t chunk_elems = size_t{1} << 25;
  /// When false, SDK-format conversions fall back to host round-trips
  /// (ablation of the transform_memory interface).
  bool use_transform = true;
  /// Pipelined model only: number of in-flight chunk staging buffers per
  /// scan column. 0 = allocate per chunk (the transfer thread may run
  /// arbitrarily far ahead, Algorithm 2's unbounded form); N > 0 = a ring
  /// of N buffers, bounding both lookahead and staging memory (N = 1
  /// degenerates to chunked-like serialization, N = 2 is classic double
  /// buffering).
  size_t pipeline_depth = 0;
  /// Device-parallel model only: the devices the chunk range is split
  /// across. Empty = every plugged device. Other models ignore it (their
  /// placement comes from the graph's node annotations).
  std::vector<DeviceId> device_set;
  /// Device-parallel model only: explicit per-device split shares, parallel
  /// to `device_set` (same order; need not sum to 1 — they are normalized).
  /// Empty = the driver derives throughput-proportional shares from each
  /// device's perf model (exec::EstimateDeviceCosts). The planner/service
  /// set this when their ratio search (possibly feedback-calibrated) has a
  /// better answer than the raw model.
  std::vector<double> device_split;
  /// Device-parallel model only: bounded runtime rebalancing. When a
  /// partition exhausts its chunk range ahead of the others on the
  /// *simulated* clock, it steals whole chunks from the slowest partition's
  /// unclaimed tail, keeping every range contiguous. Results stay
  /// bit-identical either way; only the schedule (and the simulated elapsed
  /// time) changes. On by default — a correct static split steals nothing.
  bool split_rebalance = true;
  /// Task-layer kernel variant stamped onto every launch: kAuto defers to
  /// each device's policy (CPU drivers run parallel natively, GPU drivers
  /// scalar); kScalar/kParallel force one variant engine-wide. Kernels
  /// without a parallel implementation always run scalar.
  KernelVariantRequest kernel_variant = KernelVariantRequest::kAuto;
  /// Thread budget per parallel kernel launch; 0 = each device's policy
  /// count (kDefaultKernelThreads for CPU drivers).
  int kernel_threads = 0;
  /// Kernel-fusion mode consumed by plan::ApplyFusion (the executor itself
  /// runs whatever graph it is handed — fusion is a plan-level rewrite
  /// applied before placement/execution by the CLI, the placement search
  /// and tests).
  FusionMode fusion = FusionMode::kAuto;

  // --- Service-layer hooks (see src/service/). All default to off; a bare
  //     QueryExecutor::Run behaves exactly as in the single-query engine. ---

  /// Cross-query device column cache consulted for scan chunks (models
  /// without per-run staging rings, i.e. oaat / chunked / unbounded
  /// pipelined). Must outlive the run.
  ScanBufferCache* scan_cache = nullptr;
  /// Charged/credited for the run's device-memory allocations.
  MemoryChargeListener* memory_listener = nullptr;
  /// EXPLAIN ANALYZE: collect the per-operator obs::OperatorStats tree
  /// (rows in/out, kernel wall ms by variant, launches, bytes, cache hits,
  /// per-device slices) into QueryStats::profile.operators. Safe under
  /// shared devices — the collection uses only wall clocks and this run's
  /// own counters. Results stay bit-identical to an uninstrumented run.
  bool collect_operator_stats = false;
  /// When set, the executor copies the run's QueryStats here on *every*
  /// exit path — including error and cancellation unwinds, where Run()
  /// returns a Status and the QueryExecution (with its stats) is otherwise
  /// lost. Lets the service retain the profile/operator tree of a query
  /// that blew its deadline. Not owned; must outlive the run.
  QueryStats* stats_sink = nullptr;
  /// Cooperative cancellation / deadline token for this run; not owned, may
  /// be null. Checked at pipeline and chunk boundaries in every ModelDriver,
  /// per tile in the WorkerPool claim loop, and around DataTransferHub
  /// H2D/D2H calls. A tripped token unwinds through the same deterministic
  /// teardown as a device fault: MemoryLedger back to zero, cache leases
  /// invalidated, pinned rings freed.
  CancelToken* cancel_token = nullptr;
};

struct QueryStats {
  /// Simulated elapsed time: the longest span, over the run's devices, from
  /// the device clock where the run joined to its last booked completion.
  sim::SimTime elapsed_us = 0;
  /// Sum of pure kernel-body time across devices — the "total sum of
  /// processing time of the individual primitives" of Fig. 10; elapsed -
  /// kernel_body is the abstraction/transfer overhead.
  sim::SimTime kernel_body_us = 0;
  sim::SimTime transfer_wire_us = 0;
  size_t chunks = 0;
  /// Device-parallel model: chunks executed per device (the split the
  /// driver chose), and host-side wall-clock spent merging partition
  /// breaker outputs. Empty / 0 for single-device models.
  std::map<int, size_t> chunks_by_device;
  double merge_host_ms = 0;
  /// Device-parallel model: the planned split share per device (normalized,
  /// before any runtime rebalancing), chunks each device took from another
  /// partition's tail, and the predicted vs observed per-chunk simulated
  /// cost per device. The observed/predicted pair is what the service feeds
  /// into plan::SplitCalibration so the next compile's ratio search
  /// converges toward measured speed. Empty for single-device models.
  std::map<int, double> split_ratio_by_device;
  std::map<int, size_t> chunks_stolen_by_device;
  std::map<int, double> split_predicted_chunk_us;
  std::map<int, double> split_observed_chunk_us;
  size_t bytes_h2d = 0;
  size_t bytes_d2h = 0;
  /// Scan-cache effect on this run (0 when no cache is attached).
  size_t scan_cache_hits = 0;
  size_t scan_cache_misses = 0;
  size_t bytes_h2d_saved = 0;
  /// One entry per plugged device, indexed by DeviceId, read from the run's
  /// ledger (device/run_ledger.h): every cost the devices booked for *this*
  /// run and nothing a concurrent neighbour booked, so the numbers are the
  /// same whether the run had its devices to itself or shared them. Devices
  /// the run did not touch hold just their name.
  std::vector<DeviceRunStats> devices;
  /// Phase breakdown, filled on every run; queue_wait_ms is stamped by the
  /// service layer, everything else by the executor. Its JSON renders the
  /// device totals from `devices`: profile.ToJson(devices).
  obs::QueryProfile profile;
};

/// Results + statistics of one query run. Terminal pipeline-breaker outputs
/// are retrieved to the host at the end of execution; terminal streaming
/// outputs (e.g. a bare filter) are collected per chunk.
class QueryExecution {
 public:
  struct ChunkPart {
    size_t base_row = 0;   // global row offset of the chunk
    int64_t count = 0;     // valid elements
    std::vector<uint8_t> data;
    std::vector<uint8_t> data2;  // second output (hash_probe right payloads)
  };
  struct NodeOutput {
    PrimitiveKind kind = PrimitiveKind::kMap;
    ElementType elem_type = ElementType::kInt32;
    std::vector<uint8_t> bytes;     // breaker payload (acc / table / array)
    std::vector<ChunkPart> parts;   // streaming terminal outputs
    size_t num_slots = 0;           // hash tables
  };

  QueryStats stats;

  Result<const NodeOutput*> Output(int node_id) const;

  /// AGG_BLOCK result.
  Result<int64_t> AggValue(int node_id) const;

  /// HASH_AGG groups, sorted by key.
  Result<std::vector<std::pair<int32_t, int64_t>>> GroupResults(
      int node_id) const;

  /// HASH_BUILD entries (key, payload), sorted by (key, payload).
  Result<std::vector<std::pair<int32_t, int32_t>>> BuildEntries(
      int node_id) const;

  /// SORT_AGG per-group values.
  Result<std::vector<int64_t>> SortAggValues(int node_id) const;

  std::map<int, NodeOutput>& mutable_outputs() { return outputs_; }

 private:
  std::map<int, NodeOutput> outputs_;
};

// ---------------------------------------------------------------------------
// ExecutionOptions knob validation. One authority for every enum/range
// check so the CLI, the service layer and QueryExecutor::Run reject bad
// values with the same messages instead of scattering per-site checks.
// ---------------------------------------------------------------------------

/// Validates the cross-field knobs of `options` (kernel_variant,
/// kernel_threads, model, fusion, chunk_elems, pipeline_depth). Returns
/// InvalidArgument with a descriptive message on the first violation.
Status ValidateExecutionOptions(const ExecutionOptions& options);

/// String parsers for the CLI-facing knobs. Accepted values:
/// kernel variant "auto"|"scalar"|"parallel"; fusion "off"|"on"|"auto";
/// model "oaat"|"chunked"|"pipelined"|"4phase"|"4phase-pipelined"|
/// "device-parallel".
Result<KernelVariantRequest> ParseKernelVariant(const std::string& value);
Result<FusionMode> ParseFusionMode(const std::string& value);
Result<ExecutionModelKind> ParseExecutionModel(const std::string& value);

/// Conservative estimate, in *nominal* bytes (see SimContext::data_scale),
/// of the peak device-memory footprint of running `graph` under `options`:
/// scan staging, per-chunk intermediate outputs, and pipeline-breaker
/// persists. The service layer's admission control compares this against a
/// device's MemoryBudget before dispatching, so a query that would OOM
/// mid-run queues instead. Under kDeviceParallel the estimate is *per
/// device* of the split: every partition device holds the full breaker
/// persists (its own copy of each table) plus the same per-chunk
/// transients, so the single-device bound applies to each device and the
/// scheduler must reserve it on every leased device.
Result<size_t> EstimateDeviceMemoryBytes(const PrimitiveGraph& graph,
                                         const ExecutionOptions& options,
                                         double data_scale);

/// The ADAMANT query executor: interprets a primitive graph and runs it on
/// the plugged devices under the chosen execution model. All device
/// interaction goes through the ten pluggable interface functions.
///
/// Run() is re-entrant across threads as long as each concurrent run's graph
/// targets its own device(s): all per-run mutable state lives in a private
/// RunContext, and the executor only touches the devices its graph names.
class QueryExecutor {
 public:
  explicit QueryExecutor(DeviceManager* manager) : manager_(manager) {}

  Result<QueryExecution> Run(PrimitiveGraph* graph,
                             const ExecutionOptions& options);

 private:
  DeviceManager* manager_;
};

}  // namespace adamant

#endif  // ADAMANT_RUNTIME_EXECUTOR_H_
