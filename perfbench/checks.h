// Output checks, computed apart from the program: each takes the program's
// answer and the benchmark's own record of what the answer must be, and
// returns an empty string when they agree or a description of the first
// difference. The self-test feeds each of them a corrupted answer.

#ifndef PTLDB_PERFBENCH_CHECKS_H_
#define PTLDB_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---- rule-family ------------------------------------------------------------

/// One firing of the family: binding `p` fired at state time `time`.
struct FamilyFiring {
  int64_t p = 0;
  int64_t time = 0;
  bool operator<(const FamilyFiring& o) const {
    return time != o.time ? time < o.time : p < o.p;
  }
  bool operator==(const FamilyFiring& o) const {
    return p == o.p && time == o.time;
  }
};

/// Plain-arithmetic evaluation of the family condition
///   [t := time] PREVIOUSLY (total() >= 2*$p AND time >= t - window)
/// for every binding, edge-triggered: binding p holds at a state when some
/// state in the last `window` time units (this one included) had
/// total >= 2p, and fires when it holds now but did not at the previous state.
class FamilyShadow {
 public:
  FamilyShadow(std::vector<int64_t> bindings, int64_t window);

  /// Feeds the next state; appends the bindings that fire at it to `out`.
  void Step(int64_t time, int64_t total, std::vector<FamilyFiring>* out);

 private:
  std::vector<int64_t> bindings_;
  int64_t window_;
  std::deque<std::pair<int64_t, int64_t>> recent_;  // (time, total)
  std::vector<bool> held_;
};

/// Both lists are compared as sets ordered by (time, p).
std::string CheckFirings(std::vector<FamilyFiring> expected,
                         std::vector<FamilyFiring> actual);

// ---- server-ingest ----------------------------------------------------------

/// COUNT(*) and SUM(price) of the ticks table. Prices are multiples of 1/4,
/// so sums are exact in any order of addition.
struct TicksAnswer {
  int64_t count = 0;
  double sum = 0;
};

/// A sum as the server renders it in a query answer (six significant
/// digits), so the client's exact sum compares at the server's precision.
std::string RenderSum(double sum);

/// Counts must be equal and sums equal at the rendered precision.
std::string CheckTicks(const TicksAnswer& client_records,
                       const TicksAnswer& server_answer, const char* when);

/// Requests are named (connection, seq).
using RequestId = std::pair<int, int64_t>;
std::string CheckVetoes(const std::set<RequestId>& priced_above_cap,
                        const std::set<RequestId>& vetoed);

// ---- time-travel ------------------------------------------------------------

/// The benchmark's log of committed prices: per symbol, (commit time, price)
/// in commit order.
class PriceLog {
 public:
  void Commit(const std::string& sym, int64_t time, double price);
  /// Price of `sym` as of time `t` (the last commit at or before t); false
  /// when the symbol had no committed row then.
  bool PriceAsOf(const std::string& sym, int64_t t, double* price) const;
  /// Time of the commit before the last one at or before `t` that changed
  /// `sym`, or -1 when there is none (used to build the self-test's
  /// one-commit-off answer).
  int64_t PreviousCommit(const std::string& sym, int64_t t) const;
 private:
  std::map<std::string, std::vector<std::pair<int64_t, double>>> log_;
};

/// `answer` is the (symbol -> price) content of stock as of `t`.
std::string CheckAsOf(const PriceLog& log, int64_t t,
                      const std::map<std::string, double>& answer,
                      const std::vector<std::string>& symbols);

}  // namespace perfbench

#endif  // PTLDB_PERFBENCH_CHECKS_H_
