// Shared pieces of the benchmark binary: arguments, the seeded generator,
// timers, latency summaries, process memory, the allocation counter and the
// one-line JSON result.

#ifndef PTLDB_PERFBENCH_HARNESS_H_
#define PTLDB_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "rules/engine.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;  // nominal run length; scales the fixed amount of work
  bool trace = false;
  std::string server_bin;  // ptldb-server, for server-ingest
  std::string work_dir;    // scratch space inside the checkout
};

/// splitmix64: the benchmark's only source of randomness, so one seed gives
/// one input sequence on every host.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed * 0x9e3779b97f4a7c15ULL + 1) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }

 private:
  uint64_t s_;
};

using SteadyClock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyClock::now().time_since_epoch())
          .count());
}

/// Monotonic time at which main() began; set-up is measured from here.
extern uint64_t g_process_start_ns;

/// Nearest-rank quantile of `v` (sorted in place). 0 when empty.
inline double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v->size()));
  if (rank >= v->size()) rank = v->size() - 1;
  return (*v)[rank];
}

/// Prints the latency tail to stderr. It is shown, not reported as a metric:
/// on a shared host its run-to-run spread is wider than any bound a gate
/// could use.
void PrintTail(const char* what, std::vector<double>* lat);

/// VmHWM (peak resident set) of `pid` in MB; "self" for this process.
double PeakRssMb(const std::string& pid = "self");

/// Heap allocations counted by the benchmark binary's operator new while
/// counting is switched on (traced runs only).
void SetAllocCounting(bool on);
uint64_t AllocCount();

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main().
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // failed checks, printed to stderr

  void Fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

/// The end-to-end metrics every workload reports with tracing off.
struct EndToEnd {
  double setup_s = 0;
  double ops_per_s = 0;
  double op_p50_us = 0;
  double peak_rss_mb = 0;
  void AddTo(Outcome* out) const;
};

/// Every per-layer metric, in one place so that each traced run prints all of
/// them; a layer the workload bypasses reads 0.
struct PerLayer {
  double rules_gather_us_per_op = 0;
  double rules_step_us_per_op = 0;
  double rules_merge_us_per_op = 0;
  double rules_action_us_per_op = 0;
  double rules_instance_steps_per_op = 0;
  double rules_query_memo_hit_ratio = 0;
  double rules_ic_checks_per_op = 0;
  double rules_register_ms = 0;
  double eval_allocs_per_op = 0;
  double eval_subst_cache_hit_ratio = 0;
  double eval_store_nodes_peak = 0;
  double eval_live_nodes_peak = 0;
  double eval_collections = 0;
  double db_query_us = 0;
  double db_query_sql_asof_us = 0;
  double db_history_states = 0;
  double ptl_parse_us = 0;
  double server_stage_read_us = 0;
  double server_stage_queue_us = 0;
  double server_stage_batch_us = 0;
  double server_stage_apply_us = 0;
  double server_stage_eval_us = 0;
  double server_stage_commit_us = 0;
  double server_stage_ack_us = 0;
  double server_wire_to_ack_us = 0;
  double server_client_gap_us = 0;
  double server_batch_size_mean = 0;
  double storage_wal_bytes_per_op = 0;
  double temporal_bytes_per_commit = 0;
  double temporal_table_asof_us = 0;
  double temporal_commit_us = 0;
  void AddTo(Outcome* out) const;
};

/// Running mean of a timed call, for per-layer figures.
struct MeanTimer {
  uint64_t total_ns = 0;
  uint64_t count = 0;
  void Add(uint64_t ns) {
    total_ns += ns;
    ++count;
  }
  double MeanUs() const {
    return count == 0 ? 0 : static_cast<double>(total_ns) / 1e3 /
                                 static_cast<double>(count);
  }
};

inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Times the operations of the in-process workloads from outside, one call
/// into the program each. Construct it right before the measured phase. In
/// traced runs (every engine reports to `metrics`) it also counts heap
/// allocations inside each call and checks that the engine phase times
/// recorded during a call do not exceed the call itself.
class OpTimer {
 public:
  OpTimer(bool trace, ptldb::Metrics* metrics, uint64_t ops);

  /// The engine's counters from Attach to Detach count toward EngineLayers;
  /// a workload that builds several worlds attaches each world's engine in
  /// turn.
  void Attach(const ptldb::rules::RuleEngine* engine);
  void Detach();

  /// Runs and times one operation, `fn` returning its Status; counts it in
  /// `out`. Returns its duration in ns.
  template <typename Fn>
  uint64_t Run(Fn&& fn, Outcome* out) {
    uint64_t phases0 = 0;
    if (trace_) {
      phases0 = PhaseSumNs();
      SetAllocCounting(true);
    }
    uint64_t t0 = NowNs();
    ptldb::Status s = fn();
    uint64_t dt = NowNs() - t0;
    if (trace_) {
      SetAllocCounting(false);
      if (PhaseSumNs() - phases0 > dt) ++nesting_violations_;
    }
    lat_us_.push_back(static_cast<float>(static_cast<double>(dt) / 1e3));
    in_call_ns_ += dt;
    ++out->attempted;
    if (!s.ok()) {
      ++out->failed;
      out->Fail("operation failed: " + s.ToString());
    }
    return dt;
  }

  /// Fails `out` when some call's phase times exceeded the call.
  void CheckNesting(Outcome* out) const;

  /// Ends a repetition of the workload's unit of work (time-travel's worlds);
  /// the operations since the previous mark form one repetition.
  void EndRepetition();

  /// `ops_per_s` over the time spent inside the program's calls, so the
  /// benchmark's own bookkeeping and checks between operations do not count,
  /// and the median latency. A run of several repetitions reports the median
  /// over repetitions of each, so a burst of host slowness that hits one
  /// repetition does not move the figure. Prints the tail to stderr.
  void Summarize(EndToEnd* e2e);

  /// The engines' per-layer figures over the measured phase, traced runs
  /// only: phase times and instance steps per appended state (`states`),
  /// memo and substitution-cache hit ratios, and IC checks, allocations and
  /// collections.
  void EngineLayers(double states, PerLayer* layer) const;

 private:
  uint64_t PhaseSumNs() const;
  /// Substitution-cache hits and misses of the attached engine.
  std::pair<uint64_t, uint64_t> SubstCache() const;

  bool trace_;
  ptldb::Metrics* metrics_;
  ptldb::Metrics::Histogram* phases_[4] = {nullptr, nullptr, nullptr, nullptr};
  uint64_t phases_before_[4] = {0, 0, 0, 0};
  uint64_t memo0_ = 0, evals0_ = 0, allocs0_ = 0;
  // Attached engine and its counters at Attach; sums over detached engines.
  const ptldb::rules::RuleEngine* engine_ = nullptr;
  ptldb::rules::EngineStats stats0_;
  std::pair<uint64_t, uint64_t> subst0_;
  uint64_t rule_steps_ = 0, ic_checks_ = 0, collections_ = 0;
  uint64_t subst_hits_ = 0, subst_misses_ = 0;
  uint64_t nesting_violations_ = 0;
  uint64_t in_call_ns_ = 0;
  std::vector<float> lat_us_;
  // End (index into lat_us_) and in-call time of each repetition.
  std::vector<std::pair<size_t, uint64_t>> repetitions_;
};

Outcome RunRuleFamily(const Args& args);
Outcome RunServerIngest(const Args& args);
Outcome RunTimeTravel(const Args& args);

/// Feeds every output check a corrupted answer; returns 0 when each rejects.
int RunSelfTest(const Args& args);

}  // namespace perfbench

#endif  // PTLDB_PERFBENCH_HARNESS_H_
