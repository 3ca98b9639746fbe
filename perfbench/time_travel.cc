// time-travel: a system-period versioned `stock` table with a few trigger
// rules and a constraint attached, in-process. Seeded single-row commits are
// interleaved at a fixed ratio with QuerySqlAsOf and VersionStore::TableAsOf
// reads at seeded past times. An operation is one commit or one read, so a
// change that speeds AS OF while slowing archival, or the reverse, shows.
// The measured phase runs in a sequence of worlds of the same size, each
// built afresh and checked when its rounds end.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "db/database.h"
#include "harness.h"
#include "workloads.h"
#include "ptl/parser.h"
#include "rules/engine.h"
#include "rules/offline_check.h"
#include "temporal/versioning.h"

namespace perfbench {
namespace {

using ptldb::Result;
using ptldb::Status;
using ptldb::Timestamp;
using ptldb::Value;
using ptldb::ValueType;

constexpr int kSymbols = 64;
// Per nominal second of --seconds: rounds of one commit followed by
// kReadsPerKind QuerySqlAsOf and kReadsPerKind TableAsOf reads. With two
// reads of each kind per commit, commits take about 40 % of the time spent in
// the program's calls (README), so a change to archival or to AS OF reads
// moves ops_per_s.
constexpr uint64_t kRoundsPerSecond = 5000;
constexpr uint64_t kReadsPerKind = 2;
constexpr uint64_t kRound = 1 + 2 * kReadsPerKind;
// Each world's set-up makes kHistoryCommits seeded commits; then it runs
// kWorldRounds measured rounds. A read costs time linear in the depth of the
// archive (see RelationHistory::AsOf), so a single world that grew for the
// whole run would make an operation's cost depend on how far the run had
// got, and a deep archive turns reads into memory-bound scans whose speed
// drifts with the host. Worlds of a fixed size keep every read in the same
// depth range on every host; the offline check also stays short per world.
constexpr uint64_t kHistoryCommits = 2000;
constexpr uint64_t kWorldRounds = 5000;
constexpr int64_t kFirstTime = 1000;

struct RuleSpec {
  const char* name;
  const char* condition;
  bool ic;
};
// Conditions the offline checker (Theorem 2) covers: no families, no
// aggregates, no transaction-control atoms.
const RuleSpec kRules[] = {
    {"hot", "price('S1') > 90 AND PREVIOUSLY price('S2') < 10", false},
    {"cheap", "price('S3') < 5", false},
    {"held", "price('S0') > 20 SINCE price('S5') > 95", false},
    {"sane", "price('S4') <= 1000", true},
};

std::string Sym(int i) { return "S" + std::to_string(i); }

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "set-up failed at %s: %s\n", what,
                 s.ToString().c_str());
    std::exit(1);
  }
}

/// Forwards the database's temporal-sink calls to the version store and
/// times its archival (OnCommit) from outside; attached in traced runs only.
class TimedSink : public ptldb::db::Database::TemporalSink {
 public:
  explicit TimedSink(ptldb::temporal::VersionStore* store) : store_(store) {}

  Status OnCommit(const ptldb::event::SystemState& state,
                  const std::vector<ptldb::db::RedoDelta>& deltas) override {
    uint64_t t0 = NowNs();
    Status s = store_->OnCommit(state, deltas);
    commit.Add(NowNs() - t0);
    return s;
  }
  Status OnEventState(const ptldb::event::SystemState& state) override {
    return store_->OnEventState(state);
  }
  bool IsVersioned(const std::string& table) const override {
    return store_->IsVersioned(table);
  }
  Result<ptldb::db::Relation> TableAsOf(const std::string& table,
                                        Timestamp t) const override {
    return store_->TableAsOf(table, t);
  }

  MeanTimer commit;

 private:
  ptldb::temporal::VersionStore* store_;
};

std::map<std::string, double> PricesOf(const ptldb::db::Relation& rel) {
  std::map<std::string, double> out;
  for (const auto& row : rel.rows()) {
    out[row[0].AsString()] = row[1].AsDouble();
  }
  return out;
}

/// One versioned world: the database, its rules and version store, the
/// online firings, and the benchmark's shadow log of committed prices.
struct World {
  ptldb::SimClock clock{0};
  ptldb::db::Database db{&clock};
  ptldb::rules::RuleEngine engine{&db};
  ptldb::temporal::VersionStore store{&db};
  TimedSink timed{&store};
  std::vector<ptldb::rules::Firing> firings;
  PriceLog log;
  std::vector<std::string> symbols;
  int64_t sim_now = kFirstTime;
  int64_t last_time = 0;
  int64_t first_read_time = 0;  // reads fall in [first_read_time, last_time]

  int64_t NextTime() {
    last_time = std::max(sim_now, last_time + 1);
    return last_time;
  }

  /// One seeded single-row commit; `append` performs (and may time) it.
  template <typename Append>
  void Commit(Rng* rng, Append&& append) {
    int sym = static_cast<int>(rng->Below(kSymbols));
    double price = static_cast<double>(rng->Range(4, 400)) / 4;
    sim_now += rng->Range(1, 3);
    clock.Set(sim_now);
    append([&] {
      ptldb::db::ParamMap params{{"n", Value::Str(Sym(sym))},
                                 {"p", Value::Real(price)}};
      auto n =
          db.UpdateRows("stock", {{"price", "$p"}}, "name = $n", &params);
      if (!n.ok()) return n.status();
      return *n == 1 ? Status::OK() : Status::Internal("no row updated");
    });
    NextTime();                                    // begin
    log.Commit(Sym(sym), NextTime(), price);        // commit
  }

  int64_t PastTime(Rng* rng) const {
    return first_read_time +
           static_cast<int64_t>(rng->Below(
               static_cast<uint64_t>(last_time - first_read_time + 1)));
  }
};

/// Set-up of one world: schema, versioning, rules, initial rows and the
/// seeded history. `layer` (first world of a traced run) gets the parse and
/// registration times.
void Build(World* w, Rng* rng, bool trace, ptldb::Metrics* metrics,
           ptldb::trace::Recorder* recorder, PerLayer* layer) {
  if (trace) {
    w->engine.SetMetrics(metrics);
    w->engine.SetTrace(recorder);
    w->db.SetTemporalSink(&w->timed);
  }
  Check(w->db.CreateTable("stock",
                          ptldb::db::Schema({{"name", ValueType::kString},
                                             {"price", ValueType::kDouble}}),
                          {"name"}),
        "stock");
  Check(w->store.SetVersioned("stock"), "versioning");
  Check(w->engine.queries().Register(
            "price", "SELECT price FROM stock WHERE name = $sym", {"sym"}),
        "price query");
  uint64_t parse_ns = 0;
  uint64_t reg0 = NowNs();
  for (const RuleSpec& r : kRules) {
    if (layer != nullptr) {
      uint64_t p0 = NowNs();
      if (!ptldb::ptl::ParseFormula(r.condition).ok()) std::exit(1);
      parse_ns += NowNs() - p0;
    }
    if (r.ic) {
      Check(w->engine.AddIntegrityConstraint(r.name, r.condition), r.name);
      continue;
    }
    ptldb::rules::RuleOptions opts;
    opts.record_execution = false;
    std::string name = r.name;
    auto* firings = &w->firings;
    Check(w->engine.AddTrigger(
              name, r.condition,
              [firings, name](ptldb::rules::ActionContext& ctx) {
                firings->push_back(
                    ptldb::rules::Firing{name, "", ctx.fired_at()});
                return Status::OK();
              },
              opts),
          r.name);
  }
  if (layer != nullptr) {
    layer->rules_register_ms = static_cast<double>(NowNs() - reg0) / 1e6;
    layer->ptl_parse_us = static_cast<double>(parse_ns) / 1e3 /
                          static_cast<double>(std::size(kRules));
  }

  w->clock.Set(w->sim_now);
  w->last_time = w->db.history().last_time();
  for (int i = 0; i < kSymbols; ++i) {
    w->symbols.push_back(Sym(i));
    double price = static_cast<double>(rng->Range(4, 400)) / 4;
    Check(w->db.InsertRow("stock", {Value::Str(Sym(i)), Value::Real(price)}),
          "stock row");
    w->NextTime();                                 // begin
    w->log.Commit(Sym(i), w->NextTime(), price);   // commit
  }
  w->first_read_time = w->last_time;
  for (uint64_t i = 0; i < kHistoryCommits; ++i) {
    w->Commit(rng, [](auto&& fn) { Check(fn(), "history commit"); });
  }
}

/// The checks of one world once its rounds have ended.
void CheckWorld(World* w, Outcome* out) {
  if (w->db.history().last_time() != w->last_time) {
    out->Fail("history ends at t=" +
              std::to_string(w->db.history().last_time()) +
              ", the generator's clock at t=" + std::to_string(w->last_time));
  }
  for (const auto& err : w->engine.TakeErrors()) {
    out->Fail("engine error: " + err.ToString());
  }
  // Theorem 2: offline re-evaluation over the committed history agrees with
  // the online firings.
  auto report = ptldb::rules::OfflineCheck(w->store, w->engine, w->firings);
  if (!report.ok()) {
    out->Fail("offline check: " + report.status().ToString());
  } else if (!report->agreed()) {
    out->Fail("offline check disagrees with the online firings:\n" +
              report->ToString());
  } else if (report->rules_checked < std::size(kRules) ||
             w->firings.empty()) {
    out->Fail("offline check was vacuous:\n" + report->ToString());
  }
}

}  // namespace

Outcome RunTimeTravelOps(const Args& args, uint64_t ops, TimeTravelRun* run) {
  Outcome out;
  EndToEnd e2e;
  PerLayer layer;
  ptldb::Metrics metrics;
  ptldb::trace::Recorder recorder;
  if (args.trace) recorder.Enable();
  Rng rng(args.seed);

  // ---- set-up: the first world ----
  auto world = std::make_unique<World>();
  Build(world.get(), &rng, args.trace, &metrics, &recorder, &layer);
  e2e.setup_s = static_cast<double>(NowNs() - g_process_start_ns) / 1e9;

  // ---- measured phase ----
  OpTimer timer(args.trace, &metrics, ops);
  MeanTimer sql_asof, table_asof, query_timer, archival;
  uint64_t commit_ns = 0, worlds = 0;
  double states = 0;
  size_t store_peak = 0, live_peak = 0, history_peak = 0;
  double check_s = 0;

  // One timed operation; returns its duration in ns.
  auto op = [&](auto&& fn) -> uint64_t {
    uint64_t dt = timer.Run(fn, &out);
    if (args.trace) {
      size_t store_nodes = 0, live_nodes = 0;
      for (const RuleSpec& r : kRules) {
        auto info = world->engine.Describe(r.name);
        if (!info.ok()) continue;
        store_nodes += info->store_nodes;
        live_nodes += info->retained_nodes;
      }
      store_peak = std::max(store_peak, store_nodes);
      live_peak = std::max(live_peak, live_nodes);
    }
    return dt;
  };

  while (out.attempted < ops) {
    if (world == nullptr) {
      world = std::make_unique<World>();
      Build(world.get(), &rng, args.trace, &metrics, &recorder, nullptr);
    }
    World& w = *world;
    timer.Attach(&w.engine);
    const size_t states0 = w.db.history().size();
    for (uint64_t round = 0; round < kWorldRounds && out.attempted < ops;
         ++round) {
      w.Commit(&rng, [&](auto&& fn) { commit_ns += op(fn); });
      for (uint64_t r = 0; r < kReadsPerKind; ++r) {
        int64_t t = w.PastTime(&rng);
        std::string name = Sym(static_cast<int>(rng.Below(kSymbols)));
        Result<ptldb::db::Relation> sql_answer = ptldb::db::Relation();
        ptldb::db::ParamMap params{{"n", Value::Str(name)}};
        sql_asof.Add(op([&] {
          sql_answer = w.db.QuerySqlAsOf(
              "SELECT name, price FROM stock WHERE name = $n", t, &params);
          return sql_answer.status();
        }));
        if (sql_answer.ok()) {
          std::string why =
              CheckAsOf(w.log, t, PricesOf(*sql_answer), {name});
          if (!why.empty()) out.Fail("QuerySqlAsOf: " + why);
        }
        t = w.PastTime(&rng);
        Result<ptldb::db::Relation> table_answer = ptldb::db::Relation();
        table_asof.Add(op([&] {
          table_answer = w.store.TableAsOf("stock", t);
          return table_answer.status();
        }));
        if (table_answer.ok()) {
          std::map<std::string, double> got = PricesOf(*table_answer);
          std::string why = CheckAsOf(w.log, t, got, w.symbols);
          if (!why.empty()) out.Fail("TableAsOf: " + why);
          if (worlds == 0 && run->samples.size() < 64) {
            run->samples.emplace_back(t, got);
          }
        }
      }
      if (args.trace && round % 16 == 0) {
        uint64_t q0 = NowNs();
        auto r = w.db.QuerySql("SELECT price FROM stock WHERE name = 'S0'");
        query_timer.Add(NowNs() - q0);
        if (!r.ok()) out.Fail("current-state query failed");
      }
    }
    timer.Detach();
    timer.EndRepetition();
    states += static_cast<double>(w.db.history().size() - states0);
    history_peak = std::max(history_peak, w.db.history().states().size());
    // VmHWM at the end of the first world's rounds, before any check has
    // allocated; every later world has the same size.
    if (worlds == 0) e2e.peak_rss_mb = PeakRssMb();

    uint64_t c0 = NowNs();
    CheckWorld(&w, &out);
    check_s += static_cast<double>(NowNs() - c0) / 1e9;
    if (args.trace) {
      if (w.store.commits_archived() != w.timed.commit.count) {
        out.Fail("archival was not timed on every commit");
      }
      archival.total_ns += w.timed.commit.total_ns;
      archival.count += w.timed.commit.count;
      layer.temporal_bytes_per_commit =
          Ratio(static_cast<double>(w.store.EstimateBytes()),
                static_cast<double>(w.store.commits_archived()));
      w.db.SetTemporalSink(&w.store);
      w.engine.SetTrace(nullptr);
      w.engine.SetMetrics(nullptr);
    }
    if (worlds == 0) {
      run->log = w.log;
      run->symbols = w.symbols;
    }
    ++worlds;
    world.reset();
  }
  timer.CheckNesting(&out);

  std::fprintf(stderr,
               "%llu worlds; commits: %.1f %% of the time in calls; "
               "offline checks: %.2f s\n",
               static_cast<unsigned long long>(worlds),
               100.0 * static_cast<double>(commit_ns) /
                   static_cast<double>(commit_ns + sql_asof.total_ns +
                                       table_asof.total_ns),
               check_s);
  timer.Summarize(&e2e);
  if (!args.trace) {
    e2e.AddTo(&out);
    return out;
  }

  timer.EngineLayers(states, &layer);
  layer.eval_store_nodes_peak = static_cast<double>(store_peak);
  layer.eval_live_nodes_peak = static_cast<double>(live_peak);
  layer.db_query_us = query_timer.MeanUs();
  layer.db_query_sql_asof_us = sql_asof.MeanUs();
  layer.db_history_states = static_cast<double>(history_peak);
  layer.temporal_table_asof_us = table_asof.MeanUs();
  layer.temporal_commit_us = archival.MeanUs();
  layer.AddTo(&out);
  return out;
}

Outcome RunTimeTravel(const Args& args) {
  TimeTravelRun run;
  return RunTimeTravelOps(
      args, static_cast<uint64_t>(args.seconds) * kRoundsPerSecond * kRound,
      &run);
}

}  // namespace perfbench
