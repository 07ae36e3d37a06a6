// bench_e2e: end-to-end + per-layer benchmark of the executor.
//
//   bench_e2e --workload adhoc_sql|served_sql --seed N --seconds S
//             --trace 0|1 [--corrupt-oracle]
//
// --trace 0 prints the end-to-end metrics (tracing off); --trace 1 prints
// the per-layer metrics from a separate run with obs::TraceRecorder on. The
// last line of stdout is the result JSON; progress and failures go to
// stderr. Usually launched through bench_e2e/run.py, which builds it first.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace adamant::bench_e2e {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "adhoc_sql|served_sql --seed N --seconds S --trace 0|1 "
               "[--corrupt-oracle]\n",
               why);
  return 2;
}

bool ParseDouble(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

int Main(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-oracle") {
      args.corrupt_oracle = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      args.workload = value;
      continue;
    }
    if (!ParseDouble(value, &number) || number < 0) {
      return Usage(("bad value for " + flag).c_str());
    }
    if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = number;
      have_seconds = number > 0;
    } else if (flag == "--trace") {
      args.trace = number != 0;
      have_trace = number == 0 || number == 1;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds > 0 and --trace 0|1 are required");
  }

  if (args.workload != "adhoc_sql" && args.workload != "served_sql") {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  Report report;
  RunWorkload(args, &report);
  if (report.attempted == 0) {
    std::fprintf(stderr, "bench_e2e: no request was attempted\n");
    return 1;
  }
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace adamant::bench_e2e

int main(int argc, char** argv) {
  return adamant::bench_e2e::Main(argc, argv);
}
