// --self-test: runs each workload small, shows that its checks accept the
// program's real answers, then feeds each check a corrupted copy and shows
// that the check rejects it. Exits 0 only when every corruption is caught.

#include <cstdio>
#include <string>

#include "checks.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

class Tally {
 public:
  /// `verdict` is a check's result: empty means it accepted the answer.
  void Accepts(const char* what, const std::string& verdict) {
    Report(verdict.empty(), what, verdict.empty() ? "" : verdict);
  }
  void Rejects(const char* what, const std::string& verdict) {
    Report(!verdict.empty(), what,
           verdict.empty() ? "the corrupted answer was accepted" : "");
  }
  int ExitCode() const { return bad_ == 0 ? 0 : 1; }

 private:
  void Report(bool ok, const char* what, const std::string& why) {
    std::printf("self-test %-58s %s%s%s\n", what, ok ? "ok" : "FAILED",
                why.empty() ? "" : ": ", why.c_str());
    if (!ok) ++bad_;
  }
  int bad_ = 0;
};

void RuleFamilyChecks(const Args& base, Tally* tally) {
  FamilyRun run;
  Outcome out = RunRuleFamilyStates(base, 4000, &run);
  tally->Accepts("rule-family run passes its checks",
                 out.correct ? "" : out.problems.front());
  tally->Accepts("firings accepted as the program gave them",
                 CheckFirings(run.expected, run.actual));
  if (run.actual.size() < 2) {
    tally->Accepts("enough firings to corrupt", "fewer than two firings");
    return;
  }
  auto dropped = run.actual;
  dropped.erase(dropped.begin() + static_cast<long>(dropped.size() / 2));
  tally->Rejects("firings: a dropped firing",
                 CheckFirings(run.expected, dropped));

  auto late = run.actual;
  FamilyFiring& f = late[late.size() / 2];
  for (size_t i = 0; i + 1 < run.state_times.size(); ++i) {
    if (run.state_times[i] == f.time) {
      f.time = run.state_times[i + 1];
      break;
    }
  }
  tally->Rejects("firings: a firing one state late",
                 CheckFirings(run.expected, late));
}

void ServerIngestChecks(const Args& base, Tally* tally) {
  IngestRun run;
  Outcome out = RunServerIngestPlan(base, IngestPlan{200, 2000, 300}, &run);
  tally->Accepts("server-ingest run passes its checks",
                 out.correct ? "" : out.problems.front());
  // A program fault, not a check: shown, and left out of the exit code.
  std::printf("self-test %-58s %s%s\n", "server restart with --recover",
              run.restart_failure.empty() ? "ok" : "FAILED (program fault): ",
              run.restart_failure.c_str());
  tally->Accepts("ticks accepted after kill -9 and recovery",
                 CheckTicks(run.acked_inserts, run.recovered_answer,
                            "recovered"));
  tally->Accepts("ticks answer accepted as the server gave it",
                 CheckTicks(run.acked_inserts, run.live_answer, "live"));
  TicksAnswer lost = run.live_answer;
  lost.count -= 1;
  lost.sum -= run.some_acked_price;
  tally->Rejects("ticks: a lost acked row",
                 CheckTicks(run.acked_inserts, lost, "live"));
  TicksAnswer lost_in_crash = run.recovered_answer;
  lost_in_crash.count -= 1;
  lost_in_crash.sum -= run.some_acked_price;
  tally->Rejects("ticks: an acked row lost in the crash",
                 CheckTicks(run.acked_inserts, lost_in_crash, "recovered"));
  TicksAnswer dup = run.live_answer;
  dup.count += 1;
  dup.sum += run.some_acked_price;
  tally->Rejects("ticks: a duplicated row",
                 CheckTicks(run.acked_inserts, dup, "live"));
  tally->Accepts("vetoes accepted as the server gave them",
                 CheckVetoes(run.above_cap, run.vetoed));
  if (!run.vetoed.empty()) {
    auto missed = run.vetoed;
    missed.erase(missed.begin());
    tally->Rejects("vetoes: an above-cap update let through",
                   CheckVetoes(run.above_cap, missed));
  }
}

void TimeTravelChecks(const Args& base, Tally* tally) {
  TimeTravelRun run;
  Outcome out = RunTimeTravelOps(base, 5 * 2000, &run);
  tally->Accepts("time-travel run passes its checks",
                 out.correct ? "" : out.problems.front());
  bool corrupted = false;
  for (const auto& [t, answer] : run.samples) {
    for (const std::string& sym : run.symbols) {
      int64_t prev = run.log.PreviousCommit(sym, t);
      if (prev < 0) continue;
      auto off = answer;
      run.log.PriceAsOf(sym, prev, &off[sym]);
      tally->Accepts("AS OF answer accepted as the program gave it",
                     CheckAsOf(run.log, t, answer, run.symbols));
      tally->Rejects("AS OF: an answer one commit off",
                     CheckAsOf(run.log, t, off, run.symbols));
      corrupted = true;
      break;
    }
    if (corrupted) break;
  }
  if (!corrupted) {
    tally->Accepts("an AS OF answer to corrupt", "no sampled read had one");
  }
}

}  // namespace

int RunSelfTest(const Args& args) {
  Args base = args;
  base.seed = 7;
  base.trace = false;
  Tally tally;
  RuleFamilyChecks(base, &tally);
  ServerIngestChecks(base, &tally);
  TimeTravelChecks(base, &tally);
  return tally.ExitCode();
}

}  // namespace perfbench
