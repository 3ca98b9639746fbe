#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace perfbench {
namespace {

std::string Fmt(const char* fmt, long long a, long long b) {
  char buf[200];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

}  // namespace

FamilyShadow::FamilyShadow(std::vector<int64_t> bindings, int64_t window)
    : bindings_(std::move(bindings)),
      window_(window),
      held_(bindings_.size(), false) {}

void FamilyShadow::Step(int64_t time, int64_t total,
                        std::vector<FamilyFiring>* out) {
  recent_.emplace_back(time, total);
  while (recent_.front().first < time - window_) recent_.pop_front();
  int64_t best = recent_.front().second;
  for (const auto& [t, v] : recent_) best = std::max(best, v);
  for (size_t i = 0; i < bindings_.size(); ++i) {
    bool holds = best >= 2 * bindings_[i];
    if (holds && !held_[i]) out->push_back(FamilyFiring{bindings_[i], time});
    held_[i] = holds;
  }
}

std::string CheckFirings(std::vector<FamilyFiring> expected,
                         std::vector<FamilyFiring> actual) {
  std::sort(expected.begin(), expected.end());
  std::sort(actual.begin(), actual.end());
  size_t n = std::min(expected.size(), actual.size());
  for (size_t i = 0; i < n; ++i) {
    if (expected[i] == actual[i]) continue;
    const FamilyFiring& e = expected[i];
    const FamilyFiring& a = actual[i];
    return Fmt("firing mismatch: expected p=%lld at t=%lld", e.p, e.time) +
           Fmt(", program gave p=%lld at t=%lld", a.p, a.time);
  }
  if (expected.size() != actual.size()) {
    return Fmt("expected %lld firings, program gave %lld",
               static_cast<long long>(expected.size()),
               static_cast<long long>(actual.size()));
  }
  if (expected.empty()) return "no firings at all: the check would be vacuous";
  return "";
}

std::string RenderSum(double sum) {
  std::ostringstream os;
  os << sum;
  return os.str();
}

std::string CheckTicks(const TicksAnswer& client_records,
                       const TicksAnswer& server_answer, const char* when) {
  if (client_records.count == server_answer.count &&
      RenderSum(client_records.sum) == RenderSum(server_answer.sum)) {
    return "";
  }
  char buf[300];
  std::snprintf(buf, sizeof(buf),
                "%s: ticks holds %lld rows summing to %s, but %lld inserts "
                "summing to %s were acked",
                when, static_cast<long long>(server_answer.count),
                RenderSum(server_answer.sum).c_str(),
                static_cast<long long>(client_records.count),
                RenderSum(client_records.sum).c_str());
  return buf;
}

std::string CheckVetoes(const std::set<RequestId>& priced_above_cap,
                        const std::set<RequestId>& vetoed) {
  if (priced_above_cap == vetoed) {
    return priced_above_cap.empty()
               ? "no update was priced above the cap: the check would be "
                 "vacuous"
               : "";
  }
  for (const RequestId& id : priced_above_cap) {
    if (vetoed.count(id) == 0) {
      return Fmt("update (%lld, %lld) priced above the cap was not vetoed",
                 id.first, id.second);
    }
  }
  for (const RequestId& id : vetoed) {
    if (priced_above_cap.count(id) == 0) {
      return Fmt("update (%lld, %lld) was vetoed but priced within the cap",
                 id.first, id.second);
    }
  }
  return "veto sets differ";
}

void PriceLog::Commit(const std::string& sym, int64_t time, double price) {
  log_[sym].emplace_back(time, price);
}

bool PriceLog::PriceAsOf(const std::string& sym, int64_t t,
                         double* price) const {
  auto it = log_.find(sym);
  if (it == log_.end()) return false;
  const auto& v = it->second;
  auto pos = std::upper_bound(
      v.begin(), v.end(), t,
      [](int64_t x, const std::pair<int64_t, double>& e) { return x < e.first; });
  if (pos == v.begin()) return false;
  *price = std::prev(pos)->second;
  return true;
}

int64_t PriceLog::PreviousCommit(const std::string& sym, int64_t t) const {
  auto it = log_.find(sym);
  if (it == log_.end()) return -1;
  const auto& v = it->second;
  auto pos = std::upper_bound(
      v.begin(), v.end(), t,
      [](int64_t x, const std::pair<int64_t, double>& e) { return x < e.first; });
  if (pos == v.begin()) return -1;
  auto last = std::prev(pos);
  for (auto p = last; p != v.begin();) {
    --p;
    if (p->second != last->second) return p->first;
  }
  return -1;
}

std::string CheckAsOf(const PriceLog& log, int64_t t,
                      const std::map<std::string, double>& answer,
                      const std::vector<std::string>& symbols) {
  size_t present = 0;
  for (const std::string& sym : symbols) {
    double want = 0;
    bool exists = log.PriceAsOf(sym, t, &want);
    auto it = answer.find(sym);
    if (!exists) {
      if (it != answer.end()) return "AS OF " + std::to_string(t) + ": " + sym +
                                     " present before its first commit";
      continue;
    }
    ++present;
    if (it == answer.end()) {
      return "AS OF " + std::to_string(t) + ": " + sym + " missing";
    }
    if (it->second != want) {
      char buf[200];
      std::snprintf(buf, sizeof(buf), "AS OF %lld: %s is %.2f, committed %.2f",
                    static_cast<long long>(t), sym.c_str(), it->second, want);
      return buf;
    }
  }
  if (answer.size() != present) {
    return "AS OF " + std::to_string(t) + ": unexpected rows";
  }
  return "";
}

}  // namespace perfbench
