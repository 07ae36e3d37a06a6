#include "task/kernels.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/bit_util.h"
#include "common/logging.h"
#include "task/hash_table.h"
#include "task/kernels_fused.h"
#include "task/kernels_internal.h"

namespace adamant::kernels {

namespace {

// Shared decode/arithmetic helpers live in kernels_internal.h so the
// parallel variants (kernels_parallel.cc) reuse them bit-for-bit.
using internal::AggCombine;
using internal::AggIdentity;
using internal::CheckCapacity;
using internal::CheckIntType;
using internal::Compare;
using internal::Frame;
using internal::LoadAs64;
using internal::StoreFrom64;

// ---------------------------------------------------------------------------
// Kernel implementations. The per-kernel scalar lists are documented in
// kernels.h; scalar k lives at index frame.scalar_base + k.
// ---------------------------------------------------------------------------

// Data: in0[, in1], out. Scalars: op, in_type, out_type, imm, has_count.
Status MapKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 5));
  if (f.num_data != 2 && f.num_data != 3) {
    return Status::InvalidArgument("map expects 2 or 3 data buffers");
  }
  const bool col_col = f.num_data == 3;
  const auto op = static_cast<MapOp>(ctx->scalar(f.scalar_base));
  const auto in_type = static_cast<ElementType>(ctx->scalar(f.scalar_base + 1));
  const auto out_type =
      static_cast<ElementType>(ctx->scalar(f.scalar_base + 2));
  const int64_t imm = ctx->scalar(f.scalar_base + 3);
  ADAMANT_RETURN_NOT_OK(CheckIntType(in_type));
  ADAMANT_RETURN_NOT_OK(CheckIntType(out_type));

  const void* in0 = ctx->ptr(f.data_base);
  const void* in1 = col_col ? ctx->ptr(f.data_base + 1) : nullptr;
  const size_t out_arg = f.data_base + f.num_data - 1;
  void* out = ctx->ptr(out_arg);
  ADAMANT_RETURN_NOT_OK(
      CheckCapacity(*ctx, out_arg, f.n * ElementSize(out_type), "map out"));
  ADAMANT_RETURN_NOT_OK(
      CheckCapacity(*ctx, f.data_base, f.n * ElementSize(in_type), "map in"));

  const bool needs_col = op == MapOp::kAddCol || op == MapOp::kSubCol ||
                         op == MapOp::kMulCol ||
                         op == MapOp::kMulPctComplement ||
                         op == MapOp::kMulPct || op == MapOp::kMulPctPlus;
  if (needs_col != col_col) {
    return Status::InvalidArgument(
        "map operand mismatch: column-column op requires exactly 3 buffers");
  }

  for (size_t i = 0; i < f.n; ++i) {
    int64_t a = LoadAs64(in0, in_type, i);
    int64_t r = 0;
    switch (op) {
      case MapOp::kAddScalar:
        r = a + imm;
        break;
      case MapOp::kSubScalar:
        r = a - imm;
        break;
      case MapOp::kMulScalar:
        r = a * imm;
        break;
      case MapOp::kAddCol:
        r = a + LoadAs64(in1, in_type, i);
        break;
      case MapOp::kSubCol:
        r = a - LoadAs64(in1, in_type, i);
        break;
      case MapOp::kMulCol:
        r = a * LoadAs64(in1, in_type, i);
        break;
      case MapOp::kMulPctComplement:
        // Fixed-point price * (1 - discount); in1 is an int32 percentage.
        r = a * (100 - static_cast<const int32_t*>(in1)[i]) / 100;
        break;
      case MapOp::kMulPct:
        r = a * static_cast<const int32_t*>(in1)[i] / 100;
        break;
      case MapOp::kMulPctPlus:
        r = a * (100 + static_cast<const int32_t*>(in1)[i]) / 100;
        break;
      case MapOp::kIdentity:
        r = a;
        break;
      case MapOp::kNeqPrev:
        r = i > 0 && a != LoadAs64(in0, in_type, i - 1) ? 1 : 0;
        break;
    }
    StoreFrom64(out, out_type, i, r);
  }
  return Status::OK();
}

// Data: in, bitmap. Scalars: cmp, type, lo, hi, combine_and, has_count.
Status FilterBitmapKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 6));
  if (f.num_data != 2) {
    return Status::InvalidArgument("filter_bitmap expects 2 data buffers");
  }
  const auto op = static_cast<CmpOp>(ctx->scalar(f.scalar_base));
  const auto type = static_cast<ElementType>(ctx->scalar(f.scalar_base + 1));
  const int64_t lo = ctx->scalar(f.scalar_base + 2);
  const int64_t hi = ctx->scalar(f.scalar_base + 3);
  const bool combine_and = ctx->scalar(f.scalar_base + 4) != 0;
  ADAMANT_RETURN_NOT_OK(CheckIntType(type));

  const void* in = ctx->ptr(f.data_base);
  auto* bitmap = ctx->ptr_as<uint64_t>(f.data_base + 1);
  ADAMANT_RETURN_NOT_OK(CheckCapacity(
      *ctx, f.data_base + 1, bit_util::BytesForBits(f.n), "filter bitmap"));
  ADAMANT_RETURN_NOT_OK(CheckCapacity(*ctx, f.data_base,
                                      f.n * ElementSize(type), "filter in"));

  for (size_t i = 0; i < f.n; ++i) {
    bool pred = Compare(op, LoadAs64(in, type, i), lo, hi);
    if (combine_and) pred = pred && bit_util::GetBit(bitmap, i);
    bit_util::SetBitTo(bitmap, i, pred);
  }
  return Status::OK();
}

// Data: in, positions, count_out. Scalars: cmp, type, lo, hi, has_count.
Status FilterPositionKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 5));
  if (f.num_data != 3) {
    return Status::InvalidArgument("filter_position expects 3 data buffers");
  }
  const auto op = static_cast<CmpOp>(ctx->scalar(f.scalar_base));
  const auto type = static_cast<ElementType>(ctx->scalar(f.scalar_base + 1));
  const int64_t lo = ctx->scalar(f.scalar_base + 2);
  const int64_t hi = ctx->scalar(f.scalar_base + 3);
  ADAMANT_RETURN_NOT_OK(CheckIntType(type));

  const void* in = ctx->ptr(f.data_base);
  auto* positions = ctx->ptr_as<int32_t>(f.data_base + 1);
  auto* count = ctx->ptr_as<int64_t>(f.data_base + 2);
  const size_t cap = ctx->arg_bytes(f.data_base + 1) / sizeof(int32_t);
  ADAMANT_RETURN_NOT_OK(
      CheckCapacity(*ctx, f.data_base + 2, sizeof(int64_t), "count"));

  size_t k = 0;
  for (size_t i = 0; i < f.n; ++i) {
    if (Compare(op, LoadAs64(in, type, i), lo, hi)) {
      // The result size is estimated up-front (Table I); overflowing the
      // estimate is an execution error the runtime surfaces.
      if (k >= cap) {
        return Status::ExecutionError("position list overflow at row " +
                                      std::to_string(i));
      }
      positions[k++] = static_cast<int32_t>(i);
    }
  }
  count[0] = static_cast<int64_t>(k);
  return Status::OK();
}

// Data: in, bitmap, out, count_out. Scalars: type, has_count.
Status MaterializeKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 2));
  if (f.num_data != 4) {
    return Status::InvalidArgument("materialize expects 4 data buffers");
  }
  const auto type = static_cast<ElementType>(ctx->scalar(f.scalar_base));
  ADAMANT_RETURN_NOT_OK(CheckIntType(type));

  const void* in = ctx->ptr(f.data_base);
  const auto* bitmap = ctx->ptr_as<const uint64_t>(f.data_base + 1);
  void* out = ctx->ptr(f.data_base + 2);
  auto* count = ctx->ptr_as<int64_t>(f.data_base + 3);
  const size_t cap = ctx->arg_bytes(f.data_base + 2) / ElementSize(type);
  ADAMANT_RETURN_NOT_OK(CheckCapacity(
      *ctx, f.data_base + 1, bit_util::BytesForBits(f.n), "bitmap"));
  ADAMANT_RETURN_NOT_OK(
      CheckCapacity(*ctx, f.data_base + 3, sizeof(int64_t), "count"));

  size_t k = 0;
  for (size_t i = 0; i < f.n; ++i) {
    if (bit_util::GetBit(bitmap, i)) {
      if (k >= cap) {
        return Status::ExecutionError("materialize overflow at row " +
                                      std::to_string(i));
      }
      StoreFrom64(out, type, k++, LoadAs64(in, type, i));
    }
  }
  count[0] = static_cast<int64_t>(k);
  return Status::OK();
}

// Data: in, positions, out. Scalars: type, has_count.
Status MaterializePositionKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 2));
  if (f.num_data != 3) {
    return Status::InvalidArgument(
        "materialize_position expects 3 data buffers");
  }
  const auto type = static_cast<ElementType>(ctx->scalar(f.scalar_base));
  ADAMANT_RETURN_NOT_OK(CheckIntType(type));

  const void* in = ctx->ptr(f.data_base);
  const auto* positions = ctx->ptr_as<const int32_t>(f.data_base + 1);
  void* out = ctx->ptr(f.data_base + 2);
  const size_t in_len = ctx->arg_bytes(f.data_base) / ElementSize(type);
  ADAMANT_RETURN_NOT_OK(CheckCapacity(*ctx, f.data_base + 2,
                                      f.n * ElementSize(type), "gather out"));

  for (size_t i = 0; i < f.n; ++i) {
    const auto p = static_cast<size_t>(positions[i]);
    if (p >= in_len) {
      return Status::ExecutionError("gather position " + std::to_string(p) +
                                    " out of range " + std::to_string(in_len));
    }
    StoreFrom64(out, type, i, LoadAs64(in, type, p));
  }
  return Status::OK();
}

// Data: in, out (both int32). Scalars: exclusive, has_count.
Status PrefixSumKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 2));
  if (f.num_data != 2) {
    return Status::InvalidArgument("prefix_sum expects 2 data buffers");
  }
  const bool exclusive = ctx->scalar(f.scalar_base) != 0;
  const auto* in = ctx->ptr_as<const int32_t>(f.data_base);
  auto* out = ctx->ptr_as<int32_t>(f.data_base + 1);
  ADAMANT_RETURN_NOT_OK(
      CheckCapacity(*ctx, f.data_base + 1, f.n * 4, "prefix_sum out"));

  // Wrapping two's-complement sum: accumulate unsigned (signed overflow is
  // UB) and cast on store, exactly as the parallel variant does.
  uint32_t acc = 0;
  for (size_t i = 0; i < f.n; ++i) {
    if (exclusive) {
      out[i] = static_cast<int32_t>(acc);
      acc += static_cast<uint32_t>(in[i]);
    } else {
      acc += static_cast<uint32_t>(in[i]);
      out[i] = static_cast<int32_t>(acc);
    }
  }
  return Status::OK();
}

// Data: in, acc(int64[1]). Scalars: op, type, init, has_count.
Status AggBlockKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 4));
  if (f.num_data != 2) {
    return Status::InvalidArgument("agg_block expects 2 data buffers");
  }
  const auto op = static_cast<AggOp>(ctx->scalar(f.scalar_base));
  const auto type = static_cast<ElementType>(ctx->scalar(f.scalar_base + 1));
  const bool init = ctx->scalar(f.scalar_base + 2) != 0;
  ADAMANT_RETURN_NOT_OK(CheckIntType(type));

  const void* in = ctx->ptr(f.data_base);
  auto* acc = ctx->ptr_as<int64_t>(f.data_base + 1);
  ADAMANT_RETURN_NOT_OK(
      CheckCapacity(*ctx, f.data_base + 1, sizeof(int64_t), "acc"));

  int64_t a = init ? AggIdentity(op) : acc[0];
  for (size_t i = 0; i < f.n; ++i) {
    a = AggCombine(op, a, op == AggOp::kCount ? 0 : LoadAs64(in, type, i));
  }
  acc[0] = a;
  return Status::OK();
}

// Data: keys[, payload], table. Scalars: num_slots, pos_base, has_count.
Status HashBuildKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 3));
  if (f.num_data != 2 && f.num_data != 3) {
    return Status::InvalidArgument("hash_build expects 2 or 3 data buffers");
  }
  const bool has_payload = f.num_data == 3;
  const auto num_slots = static_cast<size_t>(ctx->scalar(f.scalar_base));
  const int64_t pos_base = ctx->scalar(f.scalar_base + 1);
  if (!bit_util::IsPowerOfTwo(num_slots)) {
    return Status::InvalidArgument("num_slots must be a power of two");
  }

  const auto* keys = ctx->ptr_as<const int32_t>(f.data_base);
  const int32_t* payload =
      has_payload ? ctx->ptr_as<const int32_t>(f.data_base + 1) : nullptr;
  const size_t table_arg = f.data_base + f.num_data - 1;
  auto* table = static_cast<HashTableLayout::BuildSlot*>(ctx->ptr(table_arg));
  ADAMANT_RETURN_NOT_OK(CheckCapacity(
      *ctx, table_arg, HashTableLayout::BuildTableBytes(num_slots), "table"));

  const size_t mask = num_slots - 1;
  for (size_t i = 0; i < f.n; ++i) {
    const int32_t key = keys[i];
    if (key == HashTableLayout::kEmptyKey) {
      return Status::InvalidArgument("key collides with empty sentinel");
    }
    size_t slot = HashTableLayout::Hash(key) & mask;
    size_t attempts = 0;
    // Linear probing; duplicates occupy their own slots within the cluster.
    while (table[slot].key != HashTableLayout::kEmptyKey) {
      slot = (slot + 1) & mask;
      if (++attempts >= num_slots) {
        return Status::ExecutionError("hash table full (" +
                                      std::to_string(num_slots) + " slots)");
      }
    }
    table[slot].key = key;
    table[slot].payload =
        has_payload ? payload[i]
                    : static_cast<int32_t>(pos_base + static_cast<int64_t>(i));
  }
  return Status::OK();
}

// Data: keys, table, left_pos, right_payload, count_out.
// Scalars: num_slots, mode, pos_base, has_count.
Status HashProbeKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 4));
  if (f.num_data != 5) {
    return Status::InvalidArgument("hash_probe expects 5 data buffers");
  }
  const auto num_slots = static_cast<size_t>(ctx->scalar(f.scalar_base));
  const auto mode = static_cast<ProbeMode>(ctx->scalar(f.scalar_base + 1));
  const int64_t pos_base = ctx->scalar(f.scalar_base + 2);
  if (!bit_util::IsPowerOfTwo(num_slots)) {
    return Status::InvalidArgument("num_slots must be a power of two");
  }

  const auto* keys = ctx->ptr_as<const int32_t>(f.data_base);
  const auto* table =
      static_cast<const HashTableLayout::BuildSlot*>(ctx->ptr(f.data_base + 1));
  auto* left = ctx->ptr_as<int32_t>(f.data_base + 2);
  auto* right = ctx->ptr_as<int32_t>(f.data_base + 3);
  auto* count = ctx->ptr_as<int64_t>(f.data_base + 4);
  ADAMANT_RETURN_NOT_OK(CheckCapacity(
      *ctx, f.data_base + 1, HashTableLayout::BuildTableBytes(num_slots),
      "table"));
  ADAMANT_RETURN_NOT_OK(
      CheckCapacity(*ctx, f.data_base + 4, sizeof(int64_t), "count"));
  const size_t cap = std::min(ctx->arg_bytes(f.data_base + 2),
                              ctx->arg_bytes(f.data_base + 3)) /
                     sizeof(int32_t);

  const size_t mask = num_slots - 1;
  size_t k = 0;
  for (size_t i = 0; i < f.n; ++i) {
    const int32_t key = keys[i];
    size_t slot = HashTableLayout::Hash(key) & mask;
    size_t attempts = 0;
    while (table[slot].key != HashTableLayout::kEmptyKey &&
           attempts < num_slots) {
      if (table[slot].key == key) {
        if (k >= cap) {
          return Status::ExecutionError("join result overflow at row " +
                                        std::to_string(i));
        }
        left[k] = static_cast<int32_t>(pos_base + static_cast<int64_t>(i));
        right[k] = table[slot].payload;
        ++k;
        if (mode == ProbeMode::kSemi) break;
      }
      slot = (slot + 1) & mask;
      ++attempts;
    }
  }
  count[0] = static_cast<int64_t>(k);
  return Status::OK();
}

// Data: keys[, values], table. Scalars: num_slots, op, value_type, has_count.
Status HashAggKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 4));
  if (f.num_data != 2 && f.num_data != 3) {
    return Status::InvalidArgument("hash_agg expects 2 or 3 data buffers");
  }
  const bool has_values = f.num_data == 3;
  const auto num_slots = static_cast<size_t>(ctx->scalar(f.scalar_base));
  const auto op = static_cast<AggOp>(ctx->scalar(f.scalar_base + 1));
  const auto value_type =
      static_cast<ElementType>(ctx->scalar(f.scalar_base + 2));
  if (!bit_util::IsPowerOfTwo(num_slots)) {
    return Status::InvalidArgument("num_slots must be a power of two");
  }
  if (op == AggOp::kCount && has_values) {
    return Status::InvalidArgument("COUNT takes no values buffer (Table I)");
  }
  if (op != AggOp::kCount && !has_values) {
    return Status::InvalidArgument("aggregate needs a values buffer");
  }
  if (has_values) ADAMANT_RETURN_NOT_OK(CheckIntType(value_type));

  const auto* keys = ctx->ptr_as<const int32_t>(f.data_base);
  const void* values = has_values ? ctx->ptr(f.data_base + 1) : nullptr;
  const size_t table_arg = f.data_base + f.num_data - 1;
  auto* table = static_cast<HashTableLayout::AggSlot*>(ctx->ptr(table_arg));
  ADAMANT_RETURN_NOT_OK(CheckCapacity(
      *ctx, table_arg, HashTableLayout::AggTableBytes(num_slots), "table"));

  const size_t mask = num_slots - 1;
  for (size_t i = 0; i < f.n; ++i) {
    const int32_t key = keys[i];
    if (key == HashTableLayout::kEmptyKey) {
      return Status::InvalidArgument("key collides with empty sentinel");
    }
    size_t slot = HashTableLayout::Hash(key) & mask;
    size_t attempts = 0;
    while (table[slot].key != HashTableLayout::kEmptyKey &&
           table[slot].key != key) {
      slot = (slot + 1) & mask;
      if (++attempts >= num_slots) {
        return Status::ExecutionError("aggregation hash table full");
      }
    }
    if (table[slot].key == HashTableLayout::kEmptyKey) {
      table[slot].key = key;
      table[slot].value = AggIdentity(op);
    }
    const int64_t v = has_values ? LoadAs64(values, value_type, i) : 0;
    table[slot].value = AggCombine(op, table[slot].value, v);
  }
  return Status::OK();
}

// Data: values, pxsum, agg. Scalars: op, value_type, num_groups, init,
// has_count.
Status SortAggKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 5));
  if (f.num_data != 3) {
    return Status::InvalidArgument("sort_agg expects 3 data buffers");
  }
  const auto op = static_cast<AggOp>(ctx->scalar(f.scalar_base));
  const auto value_type =
      static_cast<ElementType>(ctx->scalar(f.scalar_base + 1));
  const auto num_groups = static_cast<size_t>(ctx->scalar(f.scalar_base + 2));
  const bool init = ctx->scalar(f.scalar_base + 3) != 0;
  if (op == AggOp::kMin || op == AggOp::kMax) {
    return Status::NotSupported("sort_agg supports SUM and COUNT");
  }
  ADAMANT_RETURN_NOT_OK(CheckIntType(value_type));

  const void* values = ctx->ptr(f.data_base);
  const auto* pxsum = ctx->ptr_as<const int32_t>(f.data_base + 1);
  auto* agg = ctx->ptr_as<int64_t>(f.data_base + 2);
  ADAMANT_RETURN_NOT_OK(CheckCapacity(*ctx, f.data_base + 2,
                                      num_groups * sizeof(int64_t),
                                      "aggregates"));

  if (init) std::memset(agg, 0, num_groups * sizeof(int64_t));
  for (size_t i = 0; i < f.n; ++i) {
    const auto g = static_cast<size_t>(pxsum[i]);
    if (g >= num_groups) {
      return Status::ExecutionError("group index " + std::to_string(g) +
                                    " out of range " +
                                    std::to_string(num_groups));
    }
    agg[g] = AggCombine(
        op, agg[g], op == AggOp::kCount ? 0 : LoadAs64(values, value_type, i));
  }
  return Status::OK();
}

// Data: out. Scalars: pattern, has_count. Fills work_items int32 words —
// infrastructure kernel (cudaMemset analog) used by prepare_output_buffer to
// initialize hash tables to the empty-key sentinel.
Status FillKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 2));
  if (f.num_data != 1) {
    return Status::InvalidArgument("fill expects 1 data buffer");
  }
  const auto pattern = static_cast<int32_t>(ctx->scalar(f.scalar_base));
  auto* out = ctx->ptr_as<int32_t>(f.data_base);
  ADAMANT_RETURN_NOT_OK(CheckCapacity(*ctx, f.data_base, f.n * 4, "fill out"));
  for (size_t i = 0; i < f.n; ++i) out[i] = pattern;
  return Status::OK();
}

const std::map<std::string, HostKernelFn>& KernelTable() {
  static const std::map<std::string, HostKernelFn>* const kTable =
      new std::map<std::string, HostKernelFn>{
          {"map", MapKernel},
          {"filter_bitmap", FilterBitmapKernel},
          {"filter_position", FilterPositionKernel},
          {"materialize", MaterializeKernel},
          {"materialize_position", MaterializePositionKernel},
          {"prefix_sum", PrefixSumKernel},
          {"agg_block", AggBlockKernel},
          {"hash_build", HashBuildKernel},
          {"hash_probe", HashProbeKernel},
          {"hash_agg", HashAggKernel},
          {"sort_agg", SortAggKernel},
          {"fill", FillKernel},
          {"fused", FusedKernel},
      };
  return *kTable;
}

}  // namespace

HostKernelFn GetKernelFn(const std::string& name) {
  auto it = KernelTable().find(name);
  ADAMANT_CHECK(it != KernelTable().end()) << "unknown kernel '" << name << "'";
  return it->second;
}

bool HasKernel(const std::string& name) {
  return KernelTable().count(name) > 0;
}

const std::vector<std::string>& AllKernelNames() {
  static const std::vector<std::string>* const kNames = [] {
    auto* names = new std::vector<std::string>();
    for (const auto& [name, fn] : KernelTable()) names->push_back(name);
    return names;
  }();
  return *kNames;
}

std::string KernelSourceText(const std::string& name) {
  // Models the OpenCL kernel string that prepare_kernel would compile.
  return "__kernel void " + name +
         "(__global const int* in, __global int* out, const int n) { "
         "int gid = get_global_id(0); if (gid < n) { /* " +
         name + " body */ } }";
}

// ---------------------------------------------------------------------------
// Launch builders.
// ---------------------------------------------------------------------------

namespace {
KernelLaunch BaseLaunch(const char* name, size_t work_items,
                        BufferId count_in) {
  KernelLaunch launch;
  launch.kernel_name = name;
  launch.work_items = work_items;
  if (count_in != kInvalidBuffer) {
    launch.args.push_back(KernelArg::In(count_in));
  }
  return launch;
}

void FinishCount(KernelLaunch* launch, BufferId count_in) {
  launch->args.push_back(KernelArg::Scalar(count_in != kInvalidBuffer ? 1 : 0));
}
}  // namespace

KernelLaunch MakeMap(BufferId in0, BufferId in1, BufferId out, MapOp op,
                     ElementType in_type, ElementType out_type, int64_t imm,
                     size_t n, BufferId count_in) {
  KernelLaunch launch = BaseLaunch("map", n, count_in);
  launch.args.push_back(KernelArg::In(in0));
  if (in1 != kInvalidBuffer) launch.args.push_back(KernelArg::In(in1));
  launch.args.push_back(KernelArg::Out(out));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(op)));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(in_type)));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(out_type)));
  launch.args.push_back(KernelArg::Scalar(imm));
  FinishCount(&launch, count_in);
  return launch;
}

KernelLaunch MakeFilterBitmap(BufferId in, BufferId bitmap, CmpOp op,
                              ElementType type, int64_t lo, int64_t hi,
                              bool combine_and, size_t n, BufferId count_in) {
  KernelLaunch launch = BaseLaunch("filter_bitmap", n, count_in);
  launch.args.push_back(KernelArg::In(in));
  launch.args.push_back(combine_and ? KernelArg::InOut(bitmap)
                                    : KernelArg::Out(bitmap));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(op)));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(type)));
  launch.args.push_back(KernelArg::Scalar(lo));
  launch.args.push_back(KernelArg::Scalar(hi));
  launch.args.push_back(KernelArg::Scalar(combine_and ? 1 : 0));
  FinishCount(&launch, count_in);
  return launch;
}

KernelLaunch MakeFilterPosition(BufferId in, BufferId positions,
                                BufferId count, CmpOp op, ElementType type,
                                int64_t lo, int64_t hi, size_t n,
                                BufferId count_in) {
  KernelLaunch launch = BaseLaunch("filter_position", n, count_in);
  launch.args.push_back(KernelArg::In(in));
  launch.args.push_back(KernelArg::Out(positions));
  launch.args.push_back(KernelArg::Out(count));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(op)));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(type)));
  launch.args.push_back(KernelArg::Scalar(lo));
  launch.args.push_back(KernelArg::Scalar(hi));
  FinishCount(&launch, count_in);
  return launch;
}

KernelLaunch MakeMaterialize(BufferId in, BufferId bitmap, BufferId out,
                             BufferId count, ElementType type, size_t n,
                             BufferId count_in) {
  KernelLaunch launch = BaseLaunch("materialize", n, count_in);
  launch.args.push_back(KernelArg::In(in));
  launch.args.push_back(KernelArg::In(bitmap));
  launch.args.push_back(KernelArg::Out(out));
  launch.args.push_back(KernelArg::Out(count));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(type)));
  FinishCount(&launch, count_in);
  return launch;
}

KernelLaunch MakeMaterializePosition(BufferId in, BufferId positions,
                                     BufferId out, ElementType type,
                                     size_t n_positions, BufferId count_in) {
  KernelLaunch launch = BaseLaunch("materialize_position", n_positions,
                                   count_in);
  launch.args.push_back(KernelArg::In(in));
  launch.args.push_back(KernelArg::In(positions));
  launch.args.push_back(KernelArg::Out(out));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(type)));
  FinishCount(&launch, count_in);
  return launch;
}

KernelLaunch MakePrefixSum(BufferId in, BufferId out, bool exclusive, size_t n,
                           BufferId count_in) {
  KernelLaunch launch = BaseLaunch("prefix_sum", n, count_in);
  launch.args.push_back(KernelArg::In(in));
  launch.args.push_back(KernelArg::Out(out));
  launch.args.push_back(KernelArg::Scalar(exclusive ? 1 : 0));
  FinishCount(&launch, count_in);
  return launch;
}

KernelLaunch MakeAggBlock(BufferId in, BufferId acc, AggOp op,
                          ElementType type, bool init, size_t n,
                          BufferId count_in) {
  KernelLaunch launch = BaseLaunch("agg_block", n, count_in);
  launch.args.push_back(KernelArg::In(in));
  launch.args.push_back(KernelArg::InOut(acc));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(op)));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(type)));
  launch.args.push_back(KernelArg::Scalar(init ? 1 : 0));
  FinishCount(&launch, count_in);
  return launch;
}

KernelLaunch MakeHashBuild(BufferId keys, BufferId payload, BufferId table,
                           size_t num_slots, int64_t pos_base, size_t n,
                           BufferId count_in) {
  KernelLaunch launch = BaseLaunch("hash_build", n, count_in);
  launch.args.push_back(KernelArg::In(keys));
  if (payload != kInvalidBuffer) launch.args.push_back(KernelArg::In(payload));
  launch.args.push_back(KernelArg::InOut(table));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(num_slots)));
  launch.args.push_back(KernelArg::Scalar(pos_base));
  FinishCount(&launch, count_in);
  // Atomic contention grows with the table size, which is data-dependent.
  launch.cost_param = static_cast<double>(num_slots);
  launch.scale_cost_param = true;
  return launch;
}

KernelLaunch MakeHashProbe(BufferId keys, BufferId table, BufferId left_pos,
                           BufferId right_payload, BufferId count,
                           size_t num_slots, ProbeMode mode, int64_t pos_base,
                           size_t n, BufferId count_in) {
  KernelLaunch launch = BaseLaunch("hash_probe", n, count_in);
  launch.args.push_back(KernelArg::In(keys));
  launch.args.push_back(KernelArg::In(table));
  launch.args.push_back(KernelArg::Out(left_pos));
  launch.args.push_back(KernelArg::Out(right_payload));
  launch.args.push_back(KernelArg::Out(count));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(num_slots)));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(mode)));
  launch.args.push_back(KernelArg::Scalar(pos_base));
  FinishCount(&launch, count_in);
  launch.cost_param = static_cast<double>(num_slots);
  launch.scale_cost_param = true;
  return launch;
}

KernelLaunch MakeHashAgg(BufferId keys, BufferId values, BufferId table,
                         size_t num_slots, AggOp op, ElementType value_type,
                         size_t n, double nominal_groups,
                         bool groups_scale_with_data, BufferId count_in) {
  KernelLaunch launch = BaseLaunch("hash_agg", n, count_in);
  launch.args.push_back(KernelArg::In(keys));
  if (values != kInvalidBuffer) launch.args.push_back(KernelArg::In(values));
  launch.args.push_back(KernelArg::InOut(table));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(num_slots)));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(op)));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(value_type)));
  FinishCount(&launch, count_in);
  launch.cost_param = nominal_groups;
  launch.scale_cost_param = groups_scale_with_data;
  return launch;
}

KernelLaunch MakeFill(BufferId out, int32_t pattern, size_t n_words) {
  KernelLaunch launch = BaseLaunch("fill", n_words, kInvalidBuffer);
  launch.args.push_back(KernelArg::Out(out));
  launch.args.push_back(KernelArg::Scalar(pattern));
  FinishCount(&launch, kInvalidBuffer);
  return launch;
}

KernelLaunch MakeSortAgg(BufferId values, BufferId pxsum, BufferId agg,
                         AggOp op, ElementType value_type, size_t num_groups,
                         bool init, size_t n, BufferId count_in) {
  KernelLaunch launch = BaseLaunch("sort_agg", n, count_in);
  launch.args.push_back(KernelArg::In(values));
  launch.args.push_back(KernelArg::In(pxsum));
  launch.args.push_back(KernelArg::InOut(agg));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(op)));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(value_type)));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(num_groups)));
  launch.args.push_back(KernelArg::Scalar(init ? 1 : 0));
  FinishCount(&launch, count_in);
  return launch;
}

}  // namespace adamant::kernels
