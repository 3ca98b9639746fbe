// rule-family: one trigger family of the E10 shape over a few tens of
// bindings, driven in-process by a seeded mix of tick events and single-row
// updates. An operation is one appended state; every state steps every
// instance, so the work sits in `rules` (gather/step/merge) and `eval`.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "checks.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "db/database.h"
#include "ptl/parser.h"
#include "rules/engine.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ptldb::Status;
using ptldb::Value;
using ptldb::ValueType;

constexpr int kBindings = 16;
constexpr int64_t kFirstBinding = 30;  // thresholds 2p span 60..90
constexpr int kWeights = 8;            // rows of w; total() = SUM(w)
constexpr int64_t kMaxWeight = 20;     // w in [0, 20], so total in [0, 160]
constexpr int64_t kWindow = 8;
constexpr char kCondition[] =
    "[t := time] PREVIOUSLY (total() >= 2 * $p AND time >= t - 8)";
constexpr int64_t kFirstTime = 1000;
// States per nominal second of --seconds. At the BENCHMARK.json run length
// (20 s) this spans two node-store collections of every instance: each
// instance's store grows about one node per state up to the engine's
// collection threshold of 65536.
constexpr uint64_t kStatesPerSecond = 7125;
// Seeded states appended before the family is registered, part of set-up.
constexpr uint64_t kHistoryStates = 250000;

// A bound on live nodes the 8-tick window implies: at most window+1 states
// fall inside it, each contributing one pending time bound of a few nodes.
constexpr size_t kLiveNodesPerWindowState = 4;
constexpr size_t kLiveNodeBound =
    static_cast<size_t>(kBindings) * (kWindow + 1) * kLiveNodesPerWindowState;

struct World {
  ptldb::SimClock clock{0};
  ptldb::db::Database db{&clock};
  ptldb::rules::RuleEngine engine{&db};
};

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "set-up failed at %s: %s\n", what,
                 s.ToString().c_str());
    std::exit(1);
  }
}

std::vector<int64_t> Bindings() {
  std::vector<int64_t> b;
  for (int i = 0; i < kBindings; ++i) b.push_back(kFirstBinding + i);
  return b;
}

}  // namespace

Outcome RunRuleFamilyStates(const Args& args, uint64_t states,
                            FamilyRun* run) {
  Outcome out;
  EndToEnd e2e;
  PerLayer layer;
  World w;
  ptldb::Metrics metrics;
  ptldb::trace::Recorder recorder;
  if (args.trace) {
    w.engine.SetMetrics(&metrics);
    recorder.Enable();
    w.engine.SetTrace(&recorder);
  }

  // ---- set-up: schema, rows, history, query, family, instantiation ----
  Check(w.db.CreateTable("dom", ptldb::db::Schema({{"p", ValueType::kInt64}})),
        "dom");
  for (int64_t p : Bindings()) {
    Check(w.db.InsertRow("dom", {Value::Int(p)}), "dom row");
  }
  Check(w.db.CreateTable("wt",
                         ptldb::db::Schema({{"k", ValueType::kInt64},
                                            {"w", ValueType::kInt64}}),
                         {"k"}),
        "wt");
  Rng rng(args.seed);
  std::vector<int64_t> weights(kWeights);
  int64_t total = 0;
  for (int k = 0; k < kWeights; ++k) {
    weights[k] = rng.Range(0, kMaxWeight);
    total += weights[k];
    Check(w.db.InsertRow("wt", {Value::Int(k), Value::Int(weights[k])}),
          "wt row");
  }
  int64_t sim_now = kFirstTime;
  w.clock.Set(sim_now);

  // The seeded input: a tick after the clock advances 1-3 (probability 1/2)
  // or one single-row update of w, run as an explicit transaction so that
  // Begin and Update+Commit are one appended state each. `append` performs
  // (and may time) the call that appends a state; `total` is already the
  // value that state carries.
  auto step = [&](auto&& append, bool tick) {
    if (tick) {
      int64_t d = rng.Range(1, 3);
      sim_now += d;
      w.clock.Advance(d);
      append([&] { return w.db.RaiseEvent(ptldb::event::Event{"tick", {}}); });
      return;
    }
    int64_t k = static_cast<int64_t>(rng.Below(kWeights));
    int64_t v = rng.Range(0, kMaxWeight);
    int64_t txn = -1;
    append([&] {
      auto t = w.db.Begin();
      if (!t.ok()) return t.status();
      txn = *t;
      return Status::OK();
    });
    total += v - weights[k];
    weights[k] = v;
    append([&] {
      ptldb::db::ParamMap params{{"k", Value::Int(k)}, {"v", Value::Int(v)}};
      auto n = w.db.Update(txn, "wt", {{"w", "$v"}}, "k = $k", &params);
      if (!n.ok()) return n.status();
      if (*n != 1) return Status::Internal("update touched no row");
      return w.db.Commit(txn);
    });
  };
  // The family is registered on a database that already has a history.
  uint64_t history = 0;
  while (history < kHistoryStates) {
    step([&](auto&& fn) {
      Check(fn(), "history");
      ++history;
    }, rng.Below(2) == 0);
  }

  Check(w.engine.queries().Register("total", "SELECT SUM(w) FROM wt", {}),
        "total query");
  if (args.trace) {
    constexpr int kParses = 200;
    uint64_t t0 = NowNs();
    for (int i = 0; i < kParses; ++i) {
      if (!ptldb::ptl::ParseFormula(kCondition).ok()) std::exit(1);
    }
    layer.ptl_parse_us = static_cast<double>(NowNs() - t0) / 1e3 / kParses;
  }
  uint64_t reg0 = NowNs();
  ptldb::rules::RuleOptions opts;
  opts.record_execution = false;
  // The action is the program's output: it runs once per firing with the
  // instance's binding and the time of the state that satisfied it.
  Check(w.engine.AddTriggerFamily(
            "fam", "SELECT p FROM dom", {"p"}, kCondition,
            [run](ptldb::rules::ActionContext& ctx) {
              run->actual.push_back(
                  FamilyFiring{ctx.param("p").AsInt(), ctx.fired_at()});
              return Status::OK();
            },
            opts),
        "family");
  layer.rules_register_ms = static_cast<double>(NowNs() - reg0) / 1e6;

  FamilyShadow shadow(Bindings(), kWindow);
  // The first state after registration instantiates every binding.
  sim_now += 1;
  w.clock.Advance(1);
  int64_t last_time = std::max(sim_now, w.db.history().last_time() + 1);
  Check(w.db.RaiseEvent(ptldb::event::Event{"tick", {}}), "instantiation");
  shadow.Step(last_time, total, &run->expected);
  e2e.setup_s = static_cast<double>(NowNs() - g_process_start_ns) / 1e9;

  // ---- measured phase: one operation is one appended state ----
  OpTimer timer(args.trace, &metrics, states);
  timer.Attach(&w.engine);
  run->state_times.reserve(states);
  MeanTimer query_timer;
  size_t store_peak = 0;
  auto op = [&](auto&& fn) {
    timer.Run(fn, &out);
    last_time = std::max(sim_now, last_time + 1);
    run->state_times.push_back(last_time);
    shadow.Step(last_time, total, &run->expected);
    if (!args.trace && out.attempted % 64 != 0) return;
    auto info = w.engine.Describe("fam");
    if (info.ok()) {
      store_peak = std::max(store_peak, info->store_nodes);
      run->live_nodes_peak =
          std::max(run->live_nodes_peak, info->retained_nodes);
    }
    if (args.trace && out.attempted % 16 == 0) {
      uint64_t q0 = NowNs();
      auto r = w.db.QuerySql("SELECT SUM(w) FROM wt");
      query_timer.Add(NowNs() - q0);
      if (!r.ok() || r->size() != 1 || r->row(0)[0].AsInt() != total) {
        out.Fail("SUM(w) read back differs from the generated total");
      }
    }
  };
  while (out.attempted < states) {
    step(op, out.attempted + 1 == states || rng.Below(2) == 0);
  }
  timer.Detach();
  e2e.peak_rss_mb = PeakRssMb();

  // ---- checks ----
  if (w.db.history().last_time() != last_time) {
    out.Fail("history ends at t=" +
             std::to_string(w.db.history().last_time()) +
             ", the generator's clock at t=" + std::to_string(last_time));
  }
  for (const auto& err : w.engine.TakeErrors()) {
    out.Fail("engine error: " + err.ToString());
  }
  std::string why = CheckFirings(run->expected, run->actual);
  if (!why.empty()) out.Fail(why);
  if (run->live_nodes_peak > kLiveNodeBound) {
    out.Fail("live nodes peaked at " + std::to_string(run->live_nodes_peak) +
             ", above the window bound " + std::to_string(kLiveNodeBound));
  }
  timer.CheckNesting(&out);

  timer.Summarize(&e2e);
  if (!args.trace) {
    e2e.AddTo(&out);
    return out;
  }
  timer.EngineLayers(static_cast<double>(out.attempted), &layer);
  layer.eval_store_nodes_peak = static_cast<double>(store_peak);
  layer.eval_live_nodes_peak = static_cast<double>(run->live_nodes_peak);
  layer.db_query_us = query_timer.MeanUs();
  layer.db_history_states =
      static_cast<double>(w.db.history().states().size());
  w.engine.SetTrace(nullptr);
  w.engine.SetMetrics(nullptr);
  layer.AddTo(&out);
  return out;
}

Outcome RunRuleFamily(const Args& args) {
  FamilyRun run;
  return RunRuleFamilyStates(
      args, static_cast<uint64_t>(args.seconds) * kStatesPerSecond, &run);
}

}  // namespace perfbench
