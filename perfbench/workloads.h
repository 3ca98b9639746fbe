// Sized entry points of the three workloads and the answers their checks
// compare, shared with the self-test, which runs each workload small and
// feeds its checks corrupted copies of the answers.

#ifndef PTLDB_PERFBENCH_WORKLOADS_H_
#define PTLDB_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "harness.h"

namespace perfbench {

struct FamilyRun {
  std::vector<FamilyFiring> expected;  // the shadow evaluation
  std::vector<FamilyFiring> actual;    // the family's action invocations
  std::vector<int64_t> state_times;    // every state of the measured phase
  size_t live_nodes_peak = 0;
};
Outcome RunRuleFamilyStates(const Args& args, uint64_t states, FamilyRun* run);

struct IngestPlan {
  uint64_t preload_per_conn = 0;
  uint64_t closed_per_conn = 0;
  uint64_t open = 0;
};
struct IngestRun {
  TicksAnswer acked_inserts;  // the client's own record
  double some_acked_price = 0;
  std::set<RequestId> above_cap;
  std::set<RequestId> vetoed;
  TicksAnswer live_answer;
  TicksAnswer recovered_answer;
  std::string restart_failure;  // why the --recover restart failed, if it did
};
Outcome RunServerIngestPlan(const Args& args, const IngestPlan& plan,
                            IngestRun* run);

struct TimeTravelRun {
  PriceLog log;
  std::vector<std::string> symbols;
  /// Sampled TableAsOf reads: the read time and the program's answer.
  std::vector<std::pair<int64_t, std::map<std::string, double>>> samples;
};
Outcome RunTimeTravelOps(const Args& args, uint64_t ops, TimeTravelRun* run);

}  // namespace perfbench

#endif  // PTLDB_PERFBENCH_WORKLOADS_H_
