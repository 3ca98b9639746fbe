// server-ingest: the shipped ptldb-server (demo world, --fsync=group, fresh
// --dir) runs as a child process and this process is its only client, over
// two connections. The traffic is a seeded mix of `ticks` inserts, `stock`
// price updates and `tick` events; a few IBM updates are priced above the
// `cap` constraint and must be vetoed. An operation is one acknowledged
// request. Throughput comes from a closed-loop pipelined phase, latency from
// an open-loop phase at a fixed rate timed from each request's scheduled send.

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common/clock.h"
#include "common/json.h"
#include "db/database.h"
#include "harness.h"
#include "rules/engine.h"
#include "server/client.h"
#include "storage/recovery.h"
#include "temporal/versioning.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ptldb::Result;
using ptldb::Status;
using ptldb::StatusCode;
using ptldb::Value;
namespace srv = ptldb::server;

// Per nominal second of --seconds: closed-loop requests per connection and
// open-loop requests. The open-loop rate is well under the closed-loop
// capacity, so the open-loop queue stays short.
constexpr uint64_t kClosedPerConnPerSecond = 2800;
constexpr uint64_t kOpenPerSecond = 1000;
// Rows inserted into `ticks` per connection before the first timed request,
// part of set-up: the measured traffic meets a table that already holds data.
constexpr uint64_t kPreloadPerConn = 10000;
constexpr double kOpenRate = 1000;  // requests/s
constexpr size_t kPipelineDepth = 16;
constexpr int kRounds = 16;
constexpr int kConnections = 2;
constexpr double kCap = 100;  // the demo world's `cap`: price('IBM') <= 100

/// A running ptldb-server child. The destructor kills and reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Kill(SIGKILL); }

  /// Starts the server and waits for its LISTENING line.
  Status Start(const std::string& bin, const std::vector<std::string>& flags) {
    int fds[2];
    if (pipe(fds) != 0) return Status::Internal("pipe failed");
    std::vector<std::string> argv_s = {bin};
    argv_s.insert(argv_s.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (auto& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_ = fork();
    if (pid_ < 0) return Status::Internal("fork failed");
    if (pid_ == 0) {
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      execv(bin.c_str(), argv.data());
      _exit(127);
    }
    close(fds[1]);
    out_fd_ = fds[0];
    std::string line;
    while (true) {
      char c;
      ssize_t n = read(out_fd_, &c, 1);
      if (n <= 0) {
        int status = 0;
        waitpid(pid_, &status, 0);
        pid_ = -1;
        return Status::Internal(
            "server exited with code " +
            std::to_string(WIFEXITED(status) ? WEXITSTATUS(status) : -1) +
            " before listening");
      }
      if (c != '\n') {
        line.push_back(c);
        continue;
      }
      if (line.rfind("LISTENING ", 0) == 0) {
        port_ = static_cast<uint16_t>(std::atoi(line.c_str() + 10));
        return Status::OK();
      }
      line.clear();
    }
  }

  /// Sends `sig` and waits for the process to end.
  void Kill(int sig) {
    if (pid_ > 0) {
      kill(pid_, sig);
      int status = 0;
      while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      close(out_fd_);
      out_fd_ = -1;
    }
  }

  uint16_t port() const { return port_; }
  int pid() const { return pid_; }

 private:
  int pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

/// One generated request and what the benchmark expects of it.
struct Planned {
  srv::Request req;
  int64_t seq = 0;
  bool insert = false;
  double insert_price = 0;
  bool above_cap = false;
};

/// The seeded traffic of one connection.
class Traffic {
 public:
  Traffic(uint64_t seed, int conn) : rng_(seed * 1000003 + conn), conn_(conn) {}

  /// The next request: an insert into `ticks` when `insert_only` (set-up),
  /// else drawn from the seeded mix.
  Planned Next(bool insert_only = false) {
    Planned p;
    p.seq = seq_++;
    uint64_t r = insert_only ? 0 : rng_.Below(10);
    // Prices are whole quarters, so sums are exact in any order.
    double price = static_cast<double>(rng_.Range(20, 380)) / 4;
    if (r < 5) {
      p.req.type = srv::MsgType::kInsert;
      p.req.table = "ticks";
      p.req.row = {Value::Int(conn_), Value::Int(p.seq), Value::Real(price)};
      p.insert = true;
      p.insert_price = price;
    } else if (r < 8) {
      bool ibm = rng_.Below(2) == 0;
      if (ibm && rng_.Below(16) == 0) {
        price = kCap + static_cast<double>(rng_.Range(1, 200)) / 4;
        p.above_cap = true;
      }
      p.req.type = srv::MsgType::kUpdate;
      p.req.table = "stock";
      p.req.set = {{"price", "$p"}};
      p.req.where = "name = $n";
      p.req.params = {{"p", Value::Real(price)},
                      {"n", Value::Str(ibm ? "IBM" : "HP")}};
    } else {
      p.req.type = srv::MsgType::kRaiseEvent;
      p.req.event_name = "tick";
      p.req.event_params = {Value::Int(conn_), Value::Int(p.seq)};
    }
    return p;
  }

 private:
  Rng rng_;
  int conn_;
  int64_t seq_ = 0;
};

/// What the client recorded of the acknowledgements it received.
struct Ledger {
  TicksAnswer acked_inserts;
  double some_acked_price = 0;
  std::set<RequestId> above_cap;
  std::set<RequestId> vetoed;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;

  void Record(int conn, const Planned& p, const srv::Response& resp) {
    ++attempted;
    if (p.above_cap) above_cap.insert({conn, p.seq});
    if (resp.code == StatusCode::kOk) {
      if (p.insert) {
        ++acked_inserts.count;
        acked_inserts.sum += p.insert_price;
        some_acked_price = p.insert_price;
      }
      return;
    }
    if (p.req.type == srv::MsgType::kUpdate &&
        (resp.code == StatusCode::kTransactionAborted ||
         resp.code == StatusCode::kConstraintViolation)) {
      vetoed.insert({conn, p.seq});
      return;
    }
    ++failed;
    if (first_failure.empty()) first_failure = resp.message;
  }
  void Merge(const Ledger& o) {
    acked_inserts.count += o.acked_inserts.count;
    acked_inserts.sum += o.acked_inserts.sum;
    above_cap.insert(o.above_cap.begin(), o.above_cap.end());
    vetoed.insert(o.vetoed.begin(), o.vetoed.end());
    attempted += o.attempted;
    failed += o.failed;
    if (first_failure.empty()) first_failure = o.first_failure;
    if (some_acked_price == 0) some_acked_price = o.some_acked_price;
  }
};

/// Closed loop: keeps up to kPipelineDepth requests in flight on `client`.
/// `insert_only` sends only `ticks` inserts (the set-up's preload).
Status RunClosed(srv::Client* client, Traffic* traffic, int conn, uint64_t n,
                 Ledger* ledger, bool insert_only = false) {
  std::vector<Planned> in_flight;  // FIFO: one session answers in order
  size_t head = 0;
  uint64_t sent = 0;
  while (sent < n || head < in_flight.size()) {
    if (sent < n && in_flight.size() - head < kPipelineDepth) {
      Planned p = traffic->Next(insert_only);
      auto tag = client->Send(p.req);
      if (!tag.ok()) return tag.status();
      in_flight.push_back(std::move(p));
      ++sent;
      continue;
    }
    auto resp = client->Receive();
    if (!resp.ok()) return resp.status();
    ledger->Record(conn, in_flight[head], *resp);
    in_flight[head] = Planned();
    ++head;
  }
  return Status::OK();
}

/// Runs RunClosed on every connection at once, `n` requests each.
Status RunClosedAll(srv::Client* clients, Traffic* traffic, uint64_t n,
                    Ledger* ledgers, bool insert_only = false) {
  Status status[kConnections];
  std::thread second([&] {
    status[1] = RunClosed(&clients[1], &traffic[1], 1, n, &ledgers[1],
                          insert_only);
  });
  status[0] =
      RunClosed(&clients[0], &traffic[0], 0, n, &ledgers[0], insert_only);
  second.join();
  return status[0].ok() ? status[1] : status[0];
}

struct OpenLoopResult {
  std::vector<double> sched_lat_us;  // from scheduled send to ack
  uint64_t client_ns = 0;            // sum over requests, send start to ack
  double max_send_lag_us = 0;        // how late the generator ran
};

/// Open loop: sends one request every 1/kOpenRate s on `client` whatever the
/// backlog, and times each from when it was due.
Status RunOpen(srv::Client* client, Traffic* traffic, int conn, uint64_t n,
               Ledger* ledger, OpenLoopResult* res) {
  struct Sent {
    Planned p;
    uint64_t sched_ns;
    uint64_t sent_ns;
  };
  std::vector<Sent> in_flight;
  in_flight.reserve(n);
  size_t head = 0;
  uint64_t sent = 0;
  const uint64_t start = NowNs() + 1000000;
  const double interval_ns = 1e9 / kOpenRate;
  res->sched_lat_us.reserve(n);
  while (sent < n || head < in_flight.size()) {
    uint64_t now = NowNs();
    uint64_t due = start + static_cast<uint64_t>(static_cast<double>(sent) *
                                                 interval_ns);
    if (sent < n && now >= due) {
      Planned p = traffic->Next();
      // Stamped before the write, so the client's interval starts no later
      // than the server's read of the frame.
      uint64_t sent_ns = NowNs();
      auto tag = client->Send(p.req);
      if (!tag.ok()) return tag.status();
      res->max_send_lag_us = std::max(
          res->max_send_lag_us, static_cast<double>(sent_ns - due) / 1e3);
      in_flight.push_back(Sent{std::move(p), due, sent_ns});
      ++sent;
      continue;
    }
    if (head == in_flight.size()) {
      // Nothing outstanding: sleep until the next request is due.
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      continue;
    }
    timespec wait{static_cast<time_t>((due - now) / 1000000000),
                  static_cast<long>((due - now) % 1000000000)};
    pollfd pfd{client->fd(), POLLIN, 0};
    int r = ppoll(&pfd, 1, sent < n ? &wait : nullptr, nullptr);
    if (r < 0 && errno != EINTR) return Status::Internal("poll failed");
    if (r <= 0) continue;
    auto resp = client->Receive();
    if (!resp.ok()) return resp.status();
    uint64_t done = NowNs();
    Sent& s = in_flight[head++];
    res->sched_lat_us.push_back(static_cast<double>(done - s.sched_ns) / 1e3);
    res->client_ns += done - s.sent_ns;
    ledger->Record(conn, s.p, *resp);
  }
  return Status::OK();
}

Result<std::string> Call(srv::Client* client, srv::Request req) {
  auto resp = client->Call(std::move(req));
  if (!resp.ok()) return resp.status();
  if (resp->code != StatusCode::kOk) {
    return Status(resp->code, resp->message);
  }
  return resp->text;
}

/// COUNT(*) and SUM(price) of ticks, read over the wire.
Status QueryTicks(srv::Client* client, TicksAnswer* out) {
  srv::Request req;
  req.type = srv::MsgType::kQuery;
  req.sql = "SELECT COUNT(*), SUM(price) FROM ticks";
  auto text = Call(client, req);
  if (!text.ok()) return text.status();
  // Rendered as a schema line, then "  (count, sum)".
  size_t open = text->find("\n  (");
  if (open == std::string::npos) {
    return Status::Internal("unexpected query answer: " + *text);
  }
  const char* p = text->c_str() + open + 4;
  char* end = nullptr;
  out->count = std::strtoll(p, &end, 10);
  if (end == p || *end != ',') {
    return Status::Internal("unexpected query answer: " + *text);
  }
  out->sum = std::strtod(end + 1, nullptr);
  return Status::OK();
}

/// One metrics snapshot of the server (STATS, JSON).
struct ServerStats {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> hist;  // (count, sum_ns)
  std::map<std::string, double> gauges;
};

Status FetchStats(srv::Client* client, ServerStats* out) {
  srv::Request req;
  req.type = srv::MsgType::kStats;
  auto text = Call(client, req);
  if (!text.ok()) return text.status();
  auto doc = ptldb::json::Parse(*text);
  if (!doc.ok()) return doc.status();
  if (const auto* c = doc->Find("counters"); c != nullptr && c->is_object()) {
    for (const auto& [k, v] : c->fields()) out->counters[k] = v.AsDouble();
  }
  if (const auto* g = doc->Find("gauges"); g != nullptr && g->is_object()) {
    for (const auto& [k, v] : g->fields()) out->gauges[k] = v.AsDouble();
  }
  if (const auto* h = doc->Find("histograms"); h != nullptr && h->is_object()) {
    for (const auto& [k, v] : h->fields()) {
      const auto* count = v.Find("count");
      const auto* sum = v.Find("sum_ns");
      if (count != nullptr && sum != nullptr) {
        out->hist[k] = {count->AsDouble(), sum->AsDouble()};
      }
    }
  }
  return Status::OK();
}

/// Change of histogram `name`'s sum (ns) or count between two snapshots.
double DeltaSum(const ServerStats& a, const ServerStats& b,
                const std::string& name) {
  auto ia = a.hist.find(name);
  auto ib = b.hist.find(name);
  if (ib == b.hist.end()) return 0;
  return ib->second.second - (ia == a.hist.end() ? 0 : ia->second.second);
}

double DeltaCount(const ServerStats& a, const ServerStats& b,
                  const std::string& name) {
  auto ia = a.hist.find(name);
  auto ib = b.hist.find(name);
  if (ib == b.hist.end()) return 0;
  return ib->second.first - (ia == a.hist.end() ? 0 : ia->second.first);
}

double DeltaCounter(const ServerStats& a, const ServerStats& b,
                    const std::string& name) {
  auto ia = a.counters.find(name);
  auto ib = b.counters.find(name);
  if (ib == b.counters.end()) return 0;
  return ib->second - (ia == a.counters.end() ? 0 : ia->second);
}

uint64_t WalBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name.find("wal") != std::string::npos && entry.is_regular_file(ec)) {
      bytes += entry.file_size(ec);
    }
  }
  return bytes;
}

/// Recovers the killed server's directory in this process, into the demo
/// world of tools/ptldb_server.cc (the same tables and registrations, which
/// recovery requires), and reads COUNT(*) and SUM(price) of ticks. The
/// recovered rows come from the WAL alone; a report that is not clean (the
/// replayed firing decisions differ from the logged ones) is shown but does
/// not stop the read.
Status RecoverTicksInProcess(const std::string& dir, TicksAnswer* out) {
  ptldb::SimClock clock;
  ptldb::db::Database db(&clock);
  ptldb::rules::RuleEngine engine(&db);
  ptldb::temporal::VersionStore temporal(&db);
  using ptldb::ValueType;
  namespace pdb = ptldb::db;
  auto noop = [](ptldb::rules::ActionContext&) { return Status::OK(); };
  Status s = db.CreateTable(
      "stock",
      pdb::Schema({{"name", ValueType::kString}, {"price", ValueType::kDouble}}),
      {"name"});
  if (s.ok()) {
    s = db.CreateTable("ticks",
                       pdb::Schema({{"client", ValueType::kInt64},
                                    {"seq", ValueType::kInt64},
                                    {"price", ValueType::kDouble}}),
                       {"client", "seq"});
  }
  if (s.ok()) {
    s = engine.queries().Register(
        "price", "SELECT price FROM stock WHERE name = $sym", {"sym"});
  }
  if (s.ok()) {
    s = engine.AddTrigger("sharp_drop",
                          "[t := time][x := price('IBM')] "
                          "PREVIOUSLY (price('IBM') <= 0.5 * x AND "
                          "time >= t - 10)",
                          noop);
  }
  if (s.ok()) {
    s = engine.AddTrigger("window", "WITHIN(price('HP') > 30, 25)", noop);
  }
  if (s.ok()) {
    s = engine.AddTriggerFamily("cheap", "SELECT name FROM stock", {"sym"},
                                "price(sym) < 25", noop);
  }
  if (s.ok()) s = engine.AddIntegrityConstraint("cap", "price('IBM') <= 100");
  if (s.ok()) s = temporal.SetVersioned("stock");
  if (!s.ok()) return s;
  ptldb::storage::CheckpointTargets targets;
  targets.db = &db;
  targets.engine = &engine;
  targets.clock = &clock;
  targets.temporal = &temporal;
  auto report = ptldb::storage::Recover(dir, targets);
  if (!report.ok()) return report.status();
  std::fprintf(stderr,
               "in-process recovery: %llu states replayed, %llu firing "
               "mismatches\n",
               static_cast<unsigned long long>(report->states_replayed),
               static_cast<unsigned long long>(report->firing_mismatches));
  auto rel = db.QuerySql("SELECT COUNT(*), SUM(price) FROM ticks");
  if (!rel.ok()) return rel.status();
  if (rel->size() != 1) return Status::Internal("ticks query: no row");
  out->count = rel->row(0)[0].AsInt();
  out->sum = rel->row(0)[1].AsDouble();
  return Status::OK();
}

}  // namespace

Outcome RunServerIngestPlan(const Args& args, const IngestPlan& plan,
                            IngestRun* run) {
  Outcome out;
  EndToEnd e2e;
  PerLayer layer;
  if (args.server_bin.empty() || args.work_dir.empty()) {
    std::fprintf(stderr, "server-ingest needs --server-bin and --work-dir\n");
    std::exit(2);
  }
  const std::string dir =
      args.work_dir + "/ingest-" + std::to_string(getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ServerProcess server;
  // std::exit skips destructors, so the child is stopped here.
  auto fail_setup = [&](const Status& s) {
    std::fprintf(stderr, "server-ingest set-up failed: %s\n",
                 s.ToString().c_str());
    server.Kill(SIGKILL);
    std::filesystem::remove_all(dir);
    std::exit(1);
  };
  std::vector<std::string> flags = {"--port=0", "--dir=" + dir,
                                    "--fsync=group"};
  if (args.trace) flags.push_back("--trace");

  // ---- set-up: start the server, connect ----
  Status s = server.Start(args.server_bin, flags);
  if (!s.ok()) fail_setup(s);
  srv::Client clients[kConnections];
  for (auto& c : clients) {
    s = c.Connect(server.port());
    if (!s.ok()) fail_setup(s);
  }
  Traffic traffic[kConnections] = {Traffic(args.seed, 0),
                                   Traffic(args.seed, 1)};
  Ledger preload[kConnections];
  s = RunClosedAll(clients, traffic, plan.preload_per_conn, preload, true);
  if (!s.ok()) fail_setup(s);
  for (const Ledger& l : preload) {
    if (l.failed > 0) {
      fail_setup(Status::Internal("preload insert failed: " +
                                  l.first_failure));
    }
  }
  e2e.setup_s = static_cast<double>(NowNs() - g_process_start_ns) / 1e9;

  // ---- measured phase: kRounds rounds of a closed-loop part (throughput)
  // followed by an open-loop part (latency) ----
  // Interleaving spreads both kinds of sample over the whole run, so a slow
  // spell of the host falls on a few parts of each kind, not on all of one.
  // ops_per_s is the median of the closed parts' rates. Traced runs take a
  // STATS snapshot at every part boundary: snaps[2r]..snaps[2r+1] is round
  // r's closed part, snaps[2r+1]..snaps[2r+2] its open part.
  Ledger ledgers[kConnections];
  Ledger open_ledger;
  OpenLoopResult open;
  std::vector<double> round_rates;
  std::vector<ServerStats> snaps;
  uint64_t stats_call_ns = 0;  // STATS requests that open an open part
  auto snapshot = [&](bool opens_open_part) {
    if (!args.trace) return;
    uint64_t q0 = NowNs();
    snaps.emplace_back();
    if (!(s = FetchStats(&clients[0], &snaps.back())).ok()) fail_setup(s);
    if (opens_open_part) stats_call_ns += NowNs() - q0;
  };
  const uint64_t closed_per_round = plan.closed_per_conn / kRounds;
  const uint64_t open_per_round = plan.open / kRounds;
  snapshot(false);
  for (int round = 0; round < kRounds; ++round) {
    uint64_t acked0 = ledgers[0].attempted + ledgers[1].attempted;
    uint64_t r0 = NowNs();
    s = RunClosedAll(clients, traffic, closed_per_round, ledgers);
    if (!s.ok()) out.Fail("closed loop: " + s.ToString());
    uint64_t acked = ledgers[0].attempted + ledgers[1].attempted - acked0;
    round_rates.push_back(static_cast<double>(acked) /
                          (static_cast<double>(NowNs() - r0) / 1e9));
    snapshot(true);
    s = RunOpen(&clients[0], &traffic[0], 0, open_per_round, &open_ledger,
                &open);
    if (!s.ok()) out.Fail("open loop: " + s.ToString());
    snapshot(false);
  }
  std::fprintf(stderr, "closed-loop rounds (acked/s):");
  for (double r : round_rates) std::fprintf(stderr, " %.0f", r);
  std::fprintf(stderr, "\n");
  e2e.ops_per_s = Quantile(&round_rates, 0.50);
  e2e.op_p50_us = Quantile(&open.sched_lat_us, 0.50);
  PrintTail("open-loop", &open.sched_lat_us);
  e2e.peak_rss_mb = PeakRssMb(std::to_string(server.pid()));
  std::fprintf(stderr, "open loop: generator ran at most %.0f us late\n",
               open.max_send_lag_us);

  Ledger ledger;
  for (const Ledger& l : ledgers) ledger.Merge(l);
  ledger.Merge(open_ledger);
  out.attempted = ledger.attempted;
  out.failed = ledger.failed;
  if (out.failed > 0) {
    out.Fail("requests failed, first: " + ledger.first_failure);
  }
  // The preloaded rows are set-up, not operations, but they are in ticks.
  for (const Ledger& l : preload) {
    ledger.acked_inserts.count += l.acked_inserts.count;
    ledger.acked_inserts.sum += l.acked_inserts.sum;
  }
  run->acked_inserts = ledger.acked_inserts;
  run->some_acked_price = ledger.some_acked_price;
  run->above_cap = ledger.above_cap;
  run->vetoed = ledger.vetoed;

  // ---- checks: acked inserts, vetoes, durability across kill -9 ----
  if (!(s = QueryTicks(&clients[0], &run->live_answer)).ok()) {
    out.Fail("ticks query: " + s.ToString());
  }
  std::string why =
      CheckTicks(run->acked_inserts, run->live_answer, "live server");
  if (!why.empty()) out.Fail(why);
  why = CheckVetoes(run->above_cap, run->vetoed);
  if (!why.empty()) out.Fail(why);

  if (args.trace) {
    const double acked = static_cast<double>(out.attempted);
    const ServerStats& st0 = snaps.front();
    ServerStats& st2 = snaps.back();
    // Sum or count of histogram `name` over the open parts (first == 1) or
    // the closed parts (first == 0).
    auto over = [&](int first, const std::string& name, bool sum) {
      double v = 0;
      for (size_t i = first; i + 1 < snaps.size(); i += 2) {
        v += sum ? DeltaSum(snaps[i], snaps[i + 1], name)
                 : DeltaCount(snaps[i], snaps[i + 1], name);
      }
      return v;
    };
    auto mean = [&](const char* name) {
      return Ratio(over(1, name, true), over(1, name, false)) / 1e3;
    };
    layer.server_stage_read_us = mean("server.stage.read_ns");
    layer.server_stage_queue_us = mean("server.stage.queue_ns");
    layer.server_stage_batch_us = mean("server.stage.batch_ns");
    layer.server_stage_apply_us = mean("server.stage.apply_ns");
    layer.server_stage_eval_us = mean("server.stage.eval_ns");
    layer.server_stage_commit_us = mean("server.stage.commit_ns");
    layer.server_stage_ack_us = mean("server.stage.ack_ns");
    layer.server_wire_to_ack_us = mean("server.wire_to_ack_ns");
    // Each open part's interval also covers the STATS request that opened
    // it; their client-side time is added so both sides cover the same
    // requests.
    double server_ns = over(1, "server.wire_to_ack_ns", true);
    double server_n = over(1, "server.wire_to_ack_ns", false);
    double client_ns =
        static_cast<double>(open.client_ns) + static_cast<double>(stats_call_ns);
    const uint64_t open_sent = open_per_round * kRounds + kRounds;
    if (server_n != static_cast<double>(open_sent)) {
      out.Fail("server observed " + std::to_string(server_n) +
               " requests in the open loop, the client sent " +
               std::to_string(open_sent));
    }
    if (server_ns > client_ns) {
      out.Fail("server wire_to_ack exceeds the client-observed time");
    }
    layer.server_client_gap_us = (client_ns - server_ns) / server_n / 1e3;
    layer.server_batch_size_mean =
        Ratio(over(0, "server.batch_size", true),
              over(0, "server.batch_size", false));
    double states = DeltaCounter(st0, st2, "engine.states_processed");
    layer.rules_gather_us_per_op =
        Ratio(DeltaSum(st0, st2, "engine.gather_ns") / 1e3, states);
    layer.rules_step_us_per_op =
        Ratio(DeltaSum(st0, st2, "engine.step_ns") / 1e3, states);
    layer.rules_merge_us_per_op =
        Ratio(DeltaSum(st0, st2, "engine.merge_ns") / 1e3, states);
    layer.rules_action_us_per_op =
        Ratio(DeltaSum(st0, st2, "engine.action_ns") / 1e3, states);
    layer.rules_instance_steps_per_op =
        Ratio(DeltaCounter(st0, st2, "engine.rule_steps"), states);
    double memo = DeltaCounter(st0, st2, "query.memo_hits");
    double evals = DeltaCounter(st0, st2, "query.evals");
    layer.rules_query_memo_hit_ratio = Ratio(memo, memo + evals);
    layer.rules_ic_checks_per_op =
        Ratio(DeltaCounter(st0, st2, "engine.ic_checks"), acked);
    double hits = st2.gauges["evaluator.subst_cache_hits"];
    double misses = st2.gauges["evaluator.subst_cache_misses"];
    layer.eval_subst_cache_hit_ratio = Ratio(hits, hits + misses);
    layer.eval_live_nodes_peak = st2.gauges["evaluator.live_nodes"];
    layer.eval_store_nodes_peak = st2.gauges["evaluator.store_nodes"];
    layer.eval_collections = st2.gauges["evaluator.collections"];
    layer.storage_wal_bytes_per_op =
        static_cast<double>(WalBytes(dir)) / acked;
    layer.temporal_bytes_per_commit =
        Ratio(st2.gauges["temporal.bytes"],
              st2.gauges["temporal.commits_archived"]);
    layer.db_history_states = states;
  }

  // Acked means durable: after kill -9 a restart with --recover must serve
  // the same ticks. The restart is one more operation. When the server
  // refuses to recover, it counts as failed, and the same directory is
  // recovered in this process instead, so the durability check still runs.
  server.Kill(SIGKILL);
  for (auto& c : clients) c.Close();
  ServerProcess recovered;
  flags.push_back("--recover");
  ++out.attempted;
  s = recovered.Start(args.server_bin, flags);
  const char* how = "after kill -9 and --recover";
  if (s.ok()) {
    srv::Client client;
    s = client.Connect(recovered.port());
    if (s.ok()) s = QueryTicks(&client, &run->recovered_answer);
    if (!s.ok()) out.Fail("ticks query after recovery: " + s.ToString());
  } else {
    ++out.failed;
    run->restart_failure = s.ToString();
    std::fprintf(stderr, "restart with --recover failed: %s\n",
                 s.ToString().c_str());
    how = "after kill -9, recovered in process";
    s = RecoverTicksInProcess(dir, &run->recovered_answer);
    if (!s.ok()) out.Fail("in-process recovery: " + s.ToString());
  }
  if (s.ok()) {
    why = CheckTicks(run->acked_inserts, run->recovered_answer, how);
    if (!why.empty()) out.Fail(why);
  }
  recovered.Kill(SIGTERM);
  std::filesystem::remove_all(dir);

  if (args.trace) {
    layer.AddTo(&out);
  } else {
    e2e.AddTo(&out);
  }
  return out;
}

Outcome RunServerIngest(const Args& args) {
  IngestPlan plan;
  plan.preload_per_conn = kPreloadPerConn;
  plan.closed_per_conn =
      static_cast<uint64_t>(args.seconds) * kClosedPerConnPerSecond;
  plan.open = static_cast<uint64_t>(args.seconds) * kOpenPerSecond;
  IngestRun run;
  return RunServerIngestPlan(args, plan, &run);
}

}  // namespace perfbench
