// ptlbench, the ptldb benchmark binary.
//
//   ptlbench --workload rule-family|server-ingest|time-travel --seed N
//            --seconds S --trace 0|1 [--server-bin PATH] [--work-dir DIR]
//   ptlbench --self-test [--server-bin PATH] [--work-dir DIR]
//
// Each workload does a fixed amount of work, proportional to --seconds and
// independent of how fast the host runs it, checks the program's outputs
// and prints one JSON line: the end-to-end metrics with --trace 0, the
// per-layer metrics from a traced run with --trace 1. perfbench/run.py
// builds this binary and is the command to run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ptlbench --workload rule-family|server-ingest|"
               "time-travel --seed N --seconds S --trace 0|1\n"
               "                [--server-bin PATH] [--work-dir DIR]\n"
               "       ptlbench --self-test [--server-bin PATH] "
               "[--work-dir DIR]\n");
  return 2;
}

bool ParseInt(const char* s, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

void PrintJsonNumber(double v) {
  // Full precision, so no two runs print the same time by rounding.
  std::printf("%.17g", v);
}

int Main(int argc, char** argv) {
  Args args;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    long long n = 0;
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      if (!ParseInt(v, 0, (1LL << 62), &n)) return Usage();
      args.seed = static_cast<uint64_t>(n);
    } else if (a == "--seconds") {
      if (!ParseInt(v, 1, 3600, &n)) return Usage();
      args.seconds = static_cast<int>(n);
    } else if (a == "--trace") {
      if (!ParseInt(v, 0, 1, &n)) return Usage();
      args.trace = n == 1;
    } else if (a == "--server-bin") {
      args.server_bin = v;
    } else if (a == "--work-dir") {
      args.work_dir = v;
    } else {
      return Usage();
    }
  }
  if (self_test) return RunSelfTest(args);

  Outcome out;
  if (args.workload == "rule-family") {
    out = RunRuleFamily(args);
  } else if (args.workload == "server-ingest") {
    out = RunServerIngest(args);
  } else if (args.workload == "time-travel") {
    out = RunTimeTravel(args);
  } else {
    return Usage();
  }
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
  if (out.attempted == 0) {
    std::fprintf(stderr, "no operation was attempted\n");
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", m.name.c_str());
    PrintJsonNumber(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::g_process_start_ns = perfbench::NowNs();
  return perfbench::Main(argc, argv);
}
