// Serving-tier benchmark: wire-level latency and admission behaviour of
// the src/server/ front end, measured through real loopback sockets.
//
// The store is DOTIL-tuned before serving (six rounds of the workload,
// each followed by `AfterBatch` inside `TuneExclusive`, as wallbench's
// set-up does), so graph- and dual-route queries cross the wire as well
// as relational ones. The bench exits non-zero when the served requests
// took no graph or no dual route.
//
// Two arrival disciplines:
//   * Closed loop — C client threads, each with its own connection,
//     issuing requests back to back. Sweeps hot (one template, one plan-
//     cache entry) and cold ($param template catalog round-robin) mixes
//     at several concurrencies; reports wire p50/p95/p99.
//   * Open loop — one pipelined connection offered a fixed request rate
//     against a deliberately small admission queue. As offered load
//     passes capacity the server sheds with RESOURCE_EXHAUSTED errors
//     (counted, never a hang) while latency of admitted requests stays
//     bounded — the admission-control story in one table.
//
// Row counts, error counts and total simulated charges are
// deterministic (same seeded dataset + workload every run) and guarded
// against bench/baselines/serving.json; wall-clock latency columns
// (`*_us`, `*_wall`) are machine-dependent and ignored by the checker.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/dotil.h"
#include "core/online_store.h"
#include "core/session.h"
#include "server/client.h"
#include "server/server.h"

namespace dskg::bench {
namespace {

using core::OnlineStore;
using server::Client;
using server::Response;
using server::RowsResult;
using server::Server;
using server::ServerConfig;
using workload::WorkloadQuery;

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  const size_t idx = static_cast<size_t>(p * (samples->size() - 1));
  return (*samples)[idx];
}

struct ClientTally {
  uint64_t requests = 0;
  uint64_t rows = 0;
  uint64_t errors = 0;
  double sim_micros = 0;  ///< total simulated charge of answered requests
  std::vector<double> latencies_us;
};

/// One closed-loop client: connect, prepare every distinct text in the
/// mix once, then issue `requests` executions back to back.
ClientTally RunClosedLoopClient(uint16_t port,
                                const std::vector<const WorkloadQuery*>& mix,
                                int requests) {
  ClientTally tally;
  auto client_r = Client::Connect(port);
  if (!client_r.ok()) {
    std::fprintf(stderr, "bench_serving: connect failed: %s\n",
                 client_r.status().ToString().c_str());
    std::abort();
  }
  Client client = std::move(client_r).ValueOrDie();

  // Map each distinct template text in the mix to a statement id.
  std::vector<std::pair<std::string, uint32_t>> stmts;
  auto stmt_for = [&](const std::string& text) -> uint32_t {
    for (const auto& [t, id] : stmts) {
      if (t == text) return id;
    }
    const uint32_t id = static_cast<uint32_t>(stmts.size() + 1);
    auto params = client.Prepare(id, text);
    if (!params.ok()) {
      std::fprintf(stderr, "bench_serving: prepare failed: %s\n",
                   params.status().ToString().c_str());
      std::abort();
    }
    stmts.emplace_back(text, id);
    return id;
  };

  tally.latencies_us.reserve(requests);
  for (int i = 0; i < requests; ++i) {
    const WorkloadQuery& q = *mix[i % mix.size()];
    const uint32_t stmt = stmt_for(q.prepared_text);
    const double start = NowUs();
    auto rows = client.Execute(stmt, q.bindings);
    tally.latencies_us.push_back(NowUs() - start);
    ++tally.requests;
    if (!rows.ok()) {
      ++tally.errors;
      continue;
    }
    tally.rows += rows->rows.size();
    tally.sim_micros += rows->rel_us + rows->graph_us + rows->migrate_us;
  }
  return tally;
}

/// DOTIL-tunes `store` the way wallbench's set-up does: `rounds` times,
/// execute every query of `w` through one Session, then run
/// `AfterBatch` over the finished complex subqueries inside
/// `TuneExclusive`.
Status TuneBeforeServing(OnlineStore* store, const workload::Workload& w,
                         int rounds) {
  core::Session session(store);
  core::DotilTuner tuner;
  for (int round = 0; round < rounds; ++round) {
    std::vector<sparql::Query> finished;
    for (const WorkloadQuery& q : w.queries) {
      DSKG_ASSIGN_OR_RETURN(core::PreparedQuery prepared,
                            session.Prepare(q.prepared_text));
      for (const auto& [param, term] : q.bindings) {
        DSKG_RETURN_NOT_OK(prepared.Bind(param, term));
      }
      DSKG_ASSIGN_OR_RETURN(core::QueryExecution exec, prepared.ExecuteAll());
      if (exec.split.HasComplexSubquery()) {
        finished.push_back(*exec.split.complex);
      }
    }
    CostMeter meter;
    DSKG_RETURN_NOT_OK(store->TuneExclusive([&](core::DualStore* s) {
      return tuner.AfterBatch(s, finished, &meter);
    }));
  }
  return Status::OK();
}

}  // namespace
}  // namespace dskg::bench

int main(int argc, char** argv) {
  using namespace dskg;
  using namespace dskg::bench;

  JsonReporter json(argc, argv, "serving");

  std::printf("Serving tier: wire latency vs load (loopback TCP)\n");
  std::printf("scale=%.2f\n", ScaleFactor());
  Rule('=');

  rdf::Dataset ds = MakeDataset(WorkloadKind::kYago);
  workload::Workload w = MakeWorkload(WorkloadKind::kYago, ds,
                                      /*ordered=*/true);
  core::DualStoreConfig store_cfg;
  store_cfg.num_shards = 4;
  store_cfg.graph_capacity_triples = DefaultGraphBudget(ds);
  OnlineStore store(ds, store_cfg);
  if (Status s = TuneBeforeServing(&store, w, /*rounds=*/6); !s.ok()) {
    std::fprintf(stderr, "tuning failed: %s\n", s.ToString().c_str());
    return 1;
  }
  // Route counts from here on are the served requests' alone.
  auto& reg = telemetry::MetricsRegistry::Global();
  telemetry::Counter* graph_routes = reg.counter("query.route.graph");
  telemetry::Counter* dual_routes = reg.counter("query.route.dual");
  const uint64_t graph0 = graph_routes->value();
  const uint64_t dual0 = dual_routes->value();

  // The hot mix hammers the mutations of one template (one plan-cache
  // entry serves everything); the cold mix cycles the full catalog.
  std::vector<const WorkloadQuery*> hot, cold;
  for (const WorkloadQuery& q : w.queries) {
    if (q.prepared_text == w.queries.front().prepared_text) {
      hot.push_back(&q);
    }
    cold.push_back(&q);
  }

  // ---- closed loop ---------------------------------------------------------
  {
    ServerConfig cfg;
    cfg.workers = 4;
    cfg.max_queue_depth = 1024;
    cfg.max_batch = 16;
    Server server(&store, cfg);
    if (Status s = server.Start(); !s.ok()) {
      std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
      return 1;
    }

    std::printf("\nClosed loop (requests back to back per connection)\n");
    std::printf("%-6s %8s %9s %10s %8s %9s %9s %9s\n", "mix", "clients",
                "requests", "rows", "errors", "p50_us", "p95_us", "p99_us");
    Rule();
    const int per_client = 150;
    for (const auto& [mix_name, mix] :
         {std::pair<const char*, const std::vector<const WorkloadQuery*>*>(
              "hot", &hot),
          {"cold", &cold}}) {
      for (const int clients : {1, 4, 8}) {
        std::vector<ClientTally> tallies(clients);
        std::vector<std::thread> threads;
        const double wall_start = NowUs();
        for (int c = 0; c < clients; ++c) {
          threads.emplace_back([&, c] {
            tallies[c] = RunClosedLoopClient(server.port(), *mix, per_client);
          });
        }
        for (auto& t : threads) t.join();
        const double wall_us = NowUs() - wall_start;

        ClientTally total;
        for (ClientTally& t : tallies) {
          total.requests += t.requests;
          total.rows += t.rows;
          total.errors += t.errors;
          total.sim_micros += t.sim_micros;
          total.latencies_us.insert(total.latencies_us.end(),
                                    t.latencies_us.begin(),
                                    t.latencies_us.end());
        }
        const double p50 = Percentile(&total.latencies_us, 0.50);
        const double p95 = Percentile(&total.latencies_us, 0.95);
        const double p99 = Percentile(&total.latencies_us, 0.99);
        std::printf("%-6s %8d %9llu %10llu %8llu %9.0f %9.0f %9.0f\n",
                    mix_name, clients,
                    static_cast<unsigned long long>(total.requests),
                    static_cast<unsigned long long>(total.rows),
                    static_cast<unsigned long long>(total.errors), p50, p95,
                    p99);
        json.Row("closed_loop",
                 {{"mix", mix_name},
                  {"clients", clients},
                  {"requests", total.requests},
                  {"rows_total", total.rows},
                  {"errors", total.errors},
                  {"sim_micros", total.sim_micros},
                  {"p50_us", p50},
                  {"p95_us", p95},
                  {"p99_us", p99},
                  {"qps_wall", total.requests / (wall_us * 1e-6)}});
      }
    }
    server.Stop();
  }

  // ---- open loop -----------------------------------------------------------
  {
    // Small queue + few workers: offered load beyond capacity must shed
    // with RESOURCE_EXHAUSTED, not queue without bound.
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.max_queue_depth = 32;
    cfg.max_batch = 8;
    Server server(&store, cfg);
    if (Status s = server.Start(); !s.ok()) {
      std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
      return 1;
    }

    std::printf("\nOpen loop (offered rate on one pipelined connection, "
                "queue depth %zu)\n", cfg.max_queue_depth);
    std::printf("%12s %8s %10s %10s %9s %9s %9s\n", "offered_rps", "sent",
                "answered", "rejected", "p50_us", "p95_us", "p99_us");
    Rule();
    for (const int offered_rps : {500, 2000, 8000}) {
      auto client_r = Client::Connect(server.port());
      if (!client_r.ok()) {
        std::fprintf(stderr, "connect failed: %s\n",
                     client_r.status().ToString().c_str());
        return 1;
      }
      Client client = std::move(client_r).ValueOrDie();
      auto params = client.Prepare(1, hot.front()->prepared_text);
      if (!params.ok()) {
        std::fprintf(stderr, "prepare failed: %s\n",
                     params.status().ToString().c_str());
        return 1;
      }

      const int sent_target = std::max(200, offered_rps / 2);  // ~0.5 s
      std::atomic<uint64_t> answered{0}, rejected{0};
      std::vector<double> latencies;
      latencies.reserve(sent_target);
      // Send times are scheduled on the offered-rate grid; latency of an
      // answered request = receive time - its scheduled send time, so
      // queue delay counts against the server.
      std::vector<double> send_us(sent_target);

      std::thread reader([&] {
        for (int i = 0; i < sent_target; ++i) {
          auto resp = client.Receive();
          if (!resp.ok()) return;  // connection torn down
          const uint32_t id = resp->request_id;
          if (resp->type == server::MsgType::kError) {
            ++rejected;
          } else {
            ++answered;
            if (id >= 100 && id - 100 < send_us.size()) {
              latencies.push_back(NowUs() - send_us[id - 100]);
            }
          }
        }
      });

      const auto start = std::chrono::steady_clock::now();
      const std::chrono::nanoseconds gap(1000000000LL / offered_rps);
      for (int i = 0; i < sent_target; ++i) {
        std::this_thread::sleep_until(start + gap * i);
        const WorkloadQuery& q = *hot[i % hot.size()];
        send_us[i] = NowUs();
        if (Status s = client.SendExecute(100 + i, 1, q.bindings); !s.ok()) {
          std::fprintf(stderr, "send failed: %s\n", s.ToString().c_str());
          break;
        }
      }
      reader.join();

      const double p50 = Percentile(&latencies, 0.50);
      const double p95 = Percentile(&latencies, 0.95);
      const double p99 = Percentile(&latencies, 0.99);
      std::printf("%12d %8d %10llu %10llu %9.0f %9.0f %9.0f\n", offered_rps,
                  sent_target, static_cast<unsigned long long>(answered),
                  static_cast<unsigned long long>(rejected), p50, p95, p99);
      json.Row("open_loop",
               {{"offered_rps", offered_rps},
                {"sent", sent_target},
                {"answered_wall", answered.load()},
                {"rejected_wall", rejected.load()},
                {"p50_us", p50},
                {"p95_us", p95},
                {"p99_us", p99}});
    }
    const Server::Stats st = server.stats();
    std::printf("\nserver: admitted=%llu rejected=%llu batches=%llu\n",
                static_cast<unsigned long long>(st.requests_admitted),
                static_cast<unsigned long long>(st.requests_rejected),
                static_cast<unsigned long long>(st.batches));
    server.Stop();
  }

  const uint64_t served_graph = graph_routes->value() - graph0;
  const uint64_t served_dual = dual_routes->value() - dual0;
  Rule('=');
  std::printf("served routes: graph=%llu dual=%llu\n",
              static_cast<unsigned long long>(served_graph),
              static_cast<unsigned long long>(served_dual));
  if (served_graph == 0 || served_dual == 0) {
    std::fprintf(stderr,
                 "FAIL: the served requests took no graph or no dual route; "
                 "tuning left the wire relational-only\n");
    return 1;
  }
  std::printf("done\n");
  return 0;
}
