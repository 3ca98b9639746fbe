#include "harness.h"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>

namespace perfbench {

uint64_t g_process_start_ns = 0;

double PeakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void PrintTail(const char* what, std::vector<double>* lat) {
  std::fprintf(stderr, "%s latency: p95 %.1f us, p99 %.1f us over %zu\n", what,
               Quantile(lat, 0.95), Quantile(lat, 0.99), lat->size());
}

namespace {
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}
uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

namespace {
constexpr const char* kPhaseHistograms[4] = {
    "engine.gather_ns", "engine.step_ns", "engine.merge_ns",
    "engine.action_ns"};
}  // namespace

OpTimer::OpTimer(bool trace, ptldb::Metrics* metrics, uint64_t ops)
    : trace_(trace), metrics_(metrics) {
  lat_us_.reserve(ops);
  if (!trace_) return;
  for (int i = 0; i < 4; ++i) {
    phases_[i] = &metrics_->histogram(kPhaseHistograms[i]);
    phases_before_[i] = phases_[i]->sum_ns();
  }
  auto snap = metrics_->TakeSnapshot();
  memo0_ = snap.counters["query.memo_hits"];
  evals0_ = snap.counters["query.evals"];
  allocs0_ = AllocCount();
}

std::pair<uint64_t, uint64_t> OpTimer::SubstCache() const {
  auto snap = metrics_->TakeSnapshot();
  return {static_cast<uint64_t>(snap.gauges["evaluator.subst_cache_hits"]),
          static_cast<uint64_t>(snap.gauges["evaluator.subst_cache_misses"])};
}

void OpTimer::Attach(const ptldb::rules::RuleEngine* engine) {
  engine_ = engine;
  stats0_ = engine->stats();
  if (trace_) subst0_ = SubstCache();
}

void OpTimer::Detach() {
  const ptldb::rules::EngineStats& stats = engine_->stats();
  rule_steps_ += stats.rule_steps - stats0_.rule_steps;
  ic_checks_ += stats.ic_checks - stats0_.ic_checks;
  collections_ += stats.collections - stats0_.collections;
  if (trace_) {
    auto [hits, misses] = SubstCache();
    subst_hits_ += hits - subst0_.first;
    subst_misses_ += misses - subst0_.second;
  }
  engine_ = nullptr;
}

uint64_t OpTimer::PhaseSumNs() const {
  uint64_t sum = 0;
  for (const auto* h : phases_) sum += h->sum_ns();
  return sum;
}

void OpTimer::CheckNesting(Outcome* out) const {
  if (nesting_violations_ > 0) {
    out->Fail(std::to_string(nesting_violations_) +
              " operations whose engine phase times exceed the call itself");
  }
}

void OpTimer::EndRepetition() {
  size_t begin = repetitions_.empty() ? 0 : repetitions_.back().first;
  if (lat_us_.size() == begin) return;
  uint64_t before = 0;
  for (const auto& r : repetitions_) before += r.second;
  repetitions_.emplace_back(lat_us_.size(), in_call_ns_ - before);
}

void OpTimer::Summarize(EndToEnd* e2e) {
  EndRepetition();
  std::vector<double> rates, p50s;
  size_t begin = 0;
  for (const auto& [end, ns] : repetitions_) {
    rates.push_back(static_cast<double>(end - begin) /
                    (static_cast<double>(ns) / 1e9));
    std::vector<double> lat(lat_us_.begin() + begin, lat_us_.begin() + end);
    p50s.push_back(Quantile(&lat, 0.50));
    begin = end;
  }
  e2e->ops_per_s = Quantile(&rates, 0.50);
  e2e->op_p50_us = Quantile(&p50s, 0.50);
  std::vector<double> lat(lat_us_.begin(), lat_us_.end());
  std::fprintf(stderr, "whole run of %zu repetitions: %.6g ops/s, p50 %.4g us\n",
               repetitions_.size(),
               static_cast<double>(lat_us_.size()) /
                   (static_cast<double>(in_call_ns_) / 1e9),
               Quantile(&lat, 0.50));
  PrintTail("operation", &lat);
}

void OpTimer::EngineLayers(double states, PerLayer* layer) const {
  const double ops = static_cast<double>(lat_us_.size());
  auto per_state = [&](int i) {
    return static_cast<double>(phases_[i]->sum_ns() - phases_before_[i]) /
           1e3 / states;
  };
  layer->rules_gather_us_per_op = per_state(0);
  layer->rules_step_us_per_op = per_state(1);
  layer->rules_merge_us_per_op = per_state(2);
  layer->rules_action_us_per_op = per_state(3);
  layer->rules_instance_steps_per_op =
      static_cast<double>(rule_steps_) / states;
  layer->rules_ic_checks_per_op = static_cast<double>(ic_checks_) / ops;
  layer->eval_collections = static_cast<double>(collections_);
  layer->eval_allocs_per_op =
      static_cast<double>(AllocCount() - allocs0_) / ops;
  auto snap = metrics_->TakeSnapshot();
  double memo = static_cast<double>(snap.counters["query.memo_hits"] - memo0_);
  double evals = static_cast<double>(snap.counters["query.evals"] - evals0_);
  layer->rules_query_memo_hit_ratio = Ratio(memo, memo + evals);
  double hits = static_cast<double>(subst_hits_);
  layer->eval_subst_cache_hit_ratio =
      Ratio(hits, hits + static_cast<double>(subst_misses_));
}

void EndToEnd::AddTo(Outcome* out) const {
  out->Add("setup_s", setup_s, "s");
  out->Add("ops_per_s", ops_per_s, "ops/s");
  out->Add("op_p50_us", op_p50_us, "us");
  out->Add("peak_rss_mb", peak_rss_mb, "MB");
}

void PerLayer::AddTo(Outcome* out) const {
  out->Add("rules.gather_us_per_op", rules_gather_us_per_op, "us");
  out->Add("rules.step_us_per_op", rules_step_us_per_op, "us");
  out->Add("rules.merge_us_per_op", rules_merge_us_per_op, "us");
  out->Add("rules.action_us_per_op", rules_action_us_per_op, "us");
  out->Add("rules.instance_steps_per_op", rules_instance_steps_per_op, "count");
  out->Add("rules.query_memo_hit_ratio", rules_query_memo_hit_ratio, "ratio");
  out->Add("rules.ic_checks_per_op", rules_ic_checks_per_op, "count");
  out->Add("rules.register_ms", rules_register_ms, "ms");
  out->Add("eval.allocs_per_op", eval_allocs_per_op, "count");
  out->Add("eval.subst_cache_hit_ratio", eval_subst_cache_hit_ratio, "ratio");
  out->Add("eval.store_nodes_peak", eval_store_nodes_peak, "count");
  out->Add("eval.live_nodes_peak", eval_live_nodes_peak, "count");
  out->Add("eval.collections", eval_collections, "count");
  out->Add("db.query_us", db_query_us, "us");
  out->Add("db.query_sql_asof_us", db_query_sql_asof_us, "us");
  out->Add("db.history_states", db_history_states, "count");
  out->Add("ptl.parse_us", ptl_parse_us, "us");
  out->Add("server.stage.read_us", server_stage_read_us, "us");
  out->Add("server.stage.queue_us", server_stage_queue_us, "us");
  out->Add("server.stage.batch_us", server_stage_batch_us, "us");
  out->Add("server.stage.apply_us", server_stage_apply_us, "us");
  out->Add("server.stage.eval_us", server_stage_eval_us, "us");
  out->Add("server.stage.commit_us", server_stage_commit_us, "us");
  out->Add("server.stage.ack_us", server_stage_ack_us, "us");
  out->Add("server.wire_to_ack_us", server_wire_to_ack_us, "us");
  out->Add("server.client_gap_us", server_client_gap_us, "us");
  out->Add("server.batch_size_mean", server_batch_size_mean, "count");
  out->Add("storage.wal_bytes_per_op", storage_wal_bytes_per_op, "B");
  out->Add("temporal.bytes_per_commit", temporal_bytes_per_commit, "B");
  out->Add("temporal.table_asof_us", temporal_table_asof_us, "us");
  out->Add("temporal.commit_us", temporal_commit_us, "us");
}

}  // namespace perfbench

// Counting global allocation functions: one relaxed load per allocation when
// counting is off, so untraced runs measure the program's own allocator path.
// They allocate with malloc, so freeing with free is the matching release;
// GCC's new/delete pairing warning does not know the replacement.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
void* CountedMalloc(std::size_t n) {
  if (perfbench::g_counting.load(std::memory_order_relaxed)) {
    perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

void* operator new(std::size_t n) {
  void* p = CountedMalloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedMalloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedMalloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
