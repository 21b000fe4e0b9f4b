// Wall-clock microbenchmarks for the engine primitives, unlike the
// table/figure reproductions which report simulated time. Useful for
// spotting real performance regressions in the substrates, and the
// canonical place the columnar-pipeline perf trajectory is recorded.
//
// Unlike the simulated benches, numbers here are machine-dependent; the
// BENCH_micro_engines.json trajectory should be compared across PRs on
// the same machine only. Sections:
//
//   * btree_insert / btree_lower_bound — index substrate primitives;
//   * parse_flagship — parser throughput on the flagship complex query;
//   * rel_flagship / graph_flagship — one complex query, both engines;
//   * rel_complex_mix / graph_complex_mix — a whole complex-query
//     workload (WatDiv-C resp. YAGO templates) through each engine: the
//     large-selectivity mix whose intermediate-row materialization the
//     slot-compiled columnar pipeline targets.
//
// Scale with DSKG_BENCH_SCALE as usual (>= 8.4 pushes YAGO past 1M
// triples). Run with `--json out.json` for the machine-readable record
// (wall_ms / peak_rss_kb are appended to every row automatically).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/dual_store.h"
#include "core/session.h"
#include "graphstore/matcher.h"
#include "relstore/btree.h"
#include "relstore/executor.h"
#include "sparql/parser.h"
#include "workload/generators.h"

namespace dskg::bench {
namespace {

constexpr const char* kFlagship =
    "SELECT ?p WHERE { ?p y:wasBornIn ?city . "
    "?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city . }";

/// Every query of `w` with its bindings substituted, for the sections
/// that drive an engine's compiled entry point directly.
std::vector<sparql::Query> BoundQueries(const workload::Workload& w) {
  std::vector<sparql::Query> out;
  out.reserve(w.queries.size());
  for (const workload::WorkloadQuery& wq : w.queries) {
    auto q = workload::BoundQuery(wq);
    if (!q.ok()) {
      std::fprintf(stderr, "bound query failed: %s\n",
                   q.status().ToString().c_str());
      std::abort();
    }
    out.push_back(std::move(q).ValueOrDie());
  }
  return out;
}

/// Runs `body` repeatedly until ~min_ms of wall time or max_iters passes,
/// whichever comes first, and returns (iterations, total milliseconds).
template <typename Fn>
std::pair<uint64_t, double> TimeLoop(Fn&& body, double min_ms = 300.0,
                                     uint64_t max_iters = 1u << 22) {
  using Clock = std::chrono::steady_clock;
  uint64_t iters = 0;
  const auto start = Clock::now();
  double elapsed_ms = 0.0;
  while (iters < max_iters) {
    body();
    ++iters;
    elapsed_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                           start)
                     .count();
    if (elapsed_ms >= min_ms) break;
  }
  return {iters, elapsed_ms};
}

/// Prints and records one section. `work_total` is the section's work
/// (keys, lookups, parses, rows) summed over its `iters` iterations; the
/// record keeps one iteration's share. Every iteration of a section does
/// the same work, so `work_items` is exact and does not depend on how
/// many iterations the wall-clock budget allowed.
void Report(JsonReporter* json, const char* name, uint64_t iters,
            double total_ms, uint64_t work_total) {
  const double per_iter_us =
      iters > 0 ? total_ms * 1000.0 / static_cast<double>(iters) : 0.0;
  const uint64_t work_items = iters > 0 ? work_total / iters : 0;
  std::printf("%-22s %10llu iters %12.2f ms total %12.3f us/iter\n", name,
              static_cast<unsigned long long>(iters), total_ms, per_iter_us);
  json->Row("micro", {{"name", name},
                      {"iters", iters},
                      {"total_ms", total_ms},
                      {"per_iter_us", per_iter_us},
                      {"work_items", work_items}});
}

void Run(JsonReporter* json) {
  std::printf("Engine microbenchmarks (wall clock, DSKG_BENCH_SCALE=%.2f)\n",
              ScaleFactor());
  Rule();

  // ---- index substrate ----------------------------------------------------
  {
    using BenchKey = std::array<uint64_t, 3>;
    constexpr uint64_t kN = 100000;
    uint64_t sink = 0;
    auto [iters, ms] = TimeLoop(
        [&] {
          relstore::BPlusTree<BenchKey> tree;
          for (uint64_t i = 0; i < kN; ++i) {
            tree.Insert({i * 2654435761u % kN, i, i ^ 0x5bd1e995u});
          }
          sink += tree.size();
        },
        300.0, 64);
    Report(json, "btree_insert_100k", iters, ms, sink);
  }
  {
    using BenchKey = std::array<uint64_t, 3>;
    constexpr uint64_t kN = 100000;
    relstore::BPlusTree<BenchKey> tree;
    for (uint64_t i = 0; i < kN; ++i) tree.Insert({i, i, i});
    uint64_t q = 0;
    uint64_t sink = 0;
    auto [iters, ms] = TimeLoop([&] {
      auto it = tree.LowerBound({q % kN, 0, 0});
      sink += it.AtEnd() ? 0 : 1;
      ++q;
    });
    Report(json, "btree_lower_bound", iters, ms, sink);
  }

  // ---- parser -------------------------------------------------------------
  {
    uint64_t ok = 0;
    auto [iters, ms] = TimeLoop([&] {
      auto q = sparql::Parser::Parse(kFlagship);
      ok += q.ok() ? 1 : 0;
    });
    Report(json, "parse_flagship", iters, ms, ok);
  }

  // ---- flagship query, both engines --------------------------------------
  {
    workload::YagoConfig cfg;
    cfg.target_triples = Scaled(60000);
    rdf::Dataset ds = workload::GenerateYago(cfg);
    core::DualStoreConfig sc;
    core::DualStore store(&ds, sc);
    CostMeter load;
    (void)store.MigratePartition(ds.dict().Lookup("y:wasBornIn"), &load);
    (void)store.MigratePartition(ds.dict().Lookup("y:hasAcademicAdvisor"),
                                 &load);
    const sparql::Query flagship =
        sparql::Parser::Parse(kFlagship).ValueOrDie();
    relstore::Executor ex(&store.table(), &ds.dict());
    {
      uint64_t rows = 0;
      auto [iters, ms] = TimeLoop(
          [&] {
            CostMeter meter;
            auto r = ex.ExecuteCompiled(ex.Compile(flagship), nullptr,
                                        nullptr, &meter);
            rows += r.ok() ? r->NumRows() : 0;
          },
          500.0, 1u << 14);
      Report(json, "rel_flagship", iters, ms, rows);
    }
    {
      // Plan + execute per iteration (the query is parsed once, above).
      uint64_t rows = 0;
      auto [iters, ms] = TimeLoop(
          [&] {
            auto plan = store.Prepare(flagship);
            if (!plan.ok()) return;
            auto r = store.ExecutePlan(*plan, nullptr);
            rows += r.ok() ? r->result.NumRows() : 0;
          },
          500.0, 1u << 14);
      Report(json, "graph_flagship", iters, ms, rows);
    }
  }

  // ---- complex-query mix, relational engine -------------------------------
  // The paper's large-selectivity complex workload (WatDiv-C): every query
  // through the row-store pipeline. This is the section the slot-compiled
  // columnar refactor targets.
  {
    rdf::Dataset ds = MakeDataset(WorkloadKind::kWatDivC);
    workload::Workload w =
        MakeWorkload(WorkloadKind::kWatDivC, ds, /*ordered=*/true);
    const std::vector<sparql::Query> bound = BoundQueries(w);
    core::DualStoreConfig sc;
    sc.use_graph = false;
    core::DualStore store(&ds, sc);
    relstore::Executor ex(&store.table(), &ds.dict());
    uint64_t rows = 0;
    auto [iters, ms] = TimeLoop(
        [&] {
          for (const sparql::Query& q : bound) {
            CostMeter meter;
            auto r = ex.ExecuteCompiled(ex.Compile(q), nullptr, nullptr,
                                        &meter);
            rows += r.ok() ? r->NumRows() : 0;
          }
        },
        1500.0, 64);
    Report(json, "rel_complex_mix", iters, ms, rows);
    json->Row("mix", {{"engine", "relational"},
                      {"dataset_triples", ds.num_triples()},
                      {"queries_per_pass",
                       static_cast<uint64_t>(w.queries.size())},
                      {"passes", iters},
                      {"pass_ms", iters > 0 ? ms / static_cast<double>(iters)
                                            : 0.0},
                      {"result_rows", rows}});
  }

  // ---- complex-query mix, graph engine ------------------------------------
  // The same YAGO complex templates through the traversal matcher (all
  // their partitions made resident first).
  {
    rdf::Dataset ds = MakeDataset(WorkloadKind::kYago);
    workload::Workload w =
        MakeWorkload(WorkloadKind::kYago, ds, /*ordered=*/true);
    core::DualStoreConfig sc;
    sc.use_graph = true;
    sc.graph_capacity_triples = ds.num_triples();
    core::DualStore store(&ds, sc);
    const std::vector<sparql::Query> bound = BoundQueries(w);
    CostMeter load;
    for (const sparql::Query& q : bound) {
      for (const std::string& pred : q.ConstantPredicates()) {
        const rdf::TermId id = ds.dict().Lookup(pred);
        if (id != rdf::kInvalidTermId && !store.graph().HasPredicate(id)) {
          (void)store.MigratePartition(id, &load);
        }
      }
    }
    graphstore::TraversalMatcher matcher(&store.graph(), &ds.dict());
    uint64_t rows = 0;
    uint64_t matched = 0;
    auto [iters, ms] = TimeLoop(
        [&] {
          for (const sparql::Query& q : bound) {
            CostMeter meter;
            auto plan = matcher.Compile(q);
            if (!plan.ok()) continue;
            auto r = matcher.MatchSharded(*plan, nullptr, &meter,
                                          /*pool=*/nullptr,
                                          /*max_shards=*/0);
            if (r.ok()) {
              rows += r->NumRows();
              ++matched;
            }
          }
        },
        1500.0, 64);
    Report(json, "graph_complex_mix", iters, ms, rows);
    // `matched` < queries * passes means some queries errored (e.g. a
    // template predicate absent at this scale): surface it so trajectory
    // runs are comparable, and say so on stdout.
    if (matched != w.queries.size() * iters) {
      std::printf("  NOTE: graph mix matched %llu of %llu query runs "
                  "(rest not answerable by the graph store at this "
                  "scale)\n",
                  static_cast<unsigned long long>(matched),
                  static_cast<unsigned long long>(w.queries.size() * iters));
    }
    json->Row("mix", {{"engine", "graph"},
                      {"dataset_triples", ds.num_triples()},
                      {"queries_per_pass",
                       static_cast<uint64_t>(w.queries.size())},
                      {"passes", iters},
                      {"pass_ms", iters > 0 ? ms / static_cast<double>(iters)
                                            : 0.0},
                      {"matched_queries", matched},
                      {"result_rows", rows}});
  }

  // ---- prepare-once / execute-many vs parse-per-query ---------------------
  // The session-API amortization on the WatDiv-C complex mix: the
  // parse-per-query baseline runs each execution from its bound text
  // (parse, identify, route, slot-compile, execute), while the prepared
  // path binds new parameter values into the cached plan. Execution work
  // is identical by design (simulated charges are bit-equal), so the
  // delta is exactly the plan-time work the prepared-statement API
  // removes. A deliberately small extent keeps per-execution engine time
  // low so the amortized share is visible and stable.
  {
    workload::WatDivConfig cfg;
    cfg.target_triples = std::max<uint64_t>(Scaled(8000), 6000);
    rdf::Dataset ds = workload::GenerateWatDiv(cfg);
    workload::WorkloadBuilder builder(&ds);
    workload::WorkloadOptions opt;
    opt.ordered = true;
    auto wres = builder.Build("watdiv-c", workload::WatDivComplexTemplates(),
                              opt);
    if (!wres.ok()) {
      std::fprintf(stderr, "prepared-bench workload build failed: %s\n",
                   wres.status().ToString().c_str());
      std::abort();
    }
    const workload::Workload w = std::move(wres).ValueOrDie();
    core::DualStoreConfig sc;
    sc.use_graph = false;
    core::DualStore store(&ds, sc);

    std::vector<std::string> bound_texts;
    bound_texts.reserve(w.queries.size());
    for (const sparql::Query& q : BoundQueries(w)) {
      bound_texts.push_back(q.ToString());
    }

    // One prepared handle per query (all handles of a template share the
    // cached plan; binding is the only per-execution setup).
    core::Session session(&store);
    std::vector<core::PreparedQuery> prepared;
    prepared.reserve(w.queries.size());
    for (const workload::WorkloadQuery& wq : w.queries) {
      auto p = session.Prepare(wq.prepared_text);
      if (!p.ok()) {
        std::fprintf(stderr, "Prepare failed: %s\n",
                     p.status().ToString().c_str());
        std::abort();
      }
      prepared.push_back(std::move(p).ValueOrDie());
    }

    using Clock = std::chrono::steady_clock;
    const int kPasses = 8;  // 8 x 15 queries = 120 executions per leg
    uint64_t rows_baseline = 0;
    uint64_t rows_prepared = 0;
    // One timed leg of each path; each returns its wall milliseconds.
    auto run_baseline = [&] {
      uint64_t rows = 0;
      const auto t0 = Clock::now();
      for (int pass = 0; pass < kPasses; ++pass) {
        for (const std::string& text : bound_texts) {
          auto q = sparql::Parser::Parse(text);
          if (!q.ok()) continue;
          auto plan = store.Prepare(*q);  // identify + route + compile
          if (!plan.ok()) continue;
          auto r = store.ExecutePlan(*plan, nullptr);
          rows += r.ok() ? r->result.NumRows() : 0;
        }
      }
      rows_baseline = rows;
      return std::chrono::duration<double, std::milli>(Clock::now() - t0)
          .count();
    };
    auto run_prepared = [&] {
      uint64_t rows = 0;
      const auto t0 = Clock::now();
      for (int pass = 0; pass < kPasses; ++pass) {
        for (size_t i = 0; i < prepared.size(); ++i) {
          for (const auto& [param, term] : w.queries[i].bindings) {
            (void)prepared[i].Bind(param, term);
          }
          auto r = prepared[i].ExecuteAll();  // bind-patch + run
          rows += r.ok() ? r->result.NumRows() : 0;
        }
      }
      rows_prepared = rows;
      return std::chrono::duration<double, std::milli>(Clock::now() - t0)
          .count();
    };
    // Each path keeps its best leg over many rounds, and the rounds
    // alternate which path runs first, so neither path is always the one
    // that finds the caches cold or a neighbour's burst on the machine.
    const int kRounds = 16;
    double best_baseline_ms = std::numeric_limits<double>::max();
    double best_prepared_ms = std::numeric_limits<double>::max();
    for (int round = 0; round < kRounds; ++round) {
      if (round % 2 == 0) {
        best_baseline_ms = std::min(best_baseline_ms, run_baseline());
        best_prepared_ms = std::min(best_prepared_ms, run_prepared());
      } else {
        best_prepared_ms = std::min(best_prepared_ms, run_prepared());
        best_baseline_ms = std::min(best_baseline_ms, run_baseline());
      }
    }

    // The removed work, measured directly: parse + substitution +
    // identification + routing + slot compilation (no execution).
    uint64_t prep_iters = 0;
    double prep_ms = 0;
    {
      const auto t0 = Clock::now();
      while (prep_ms < 200.0) {
        for (const workload::WorkloadQuery& wq : w.queries) {
          auto q = workload::BoundQuery(wq);
          if (q.ok()) {
            auto plan = store.Prepare(*q);
            prep_iters += plan.ok() ? 1 : 0;
          }
        }
        prep_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                      .count();
      }
    }

    const uint64_t executions =
        static_cast<uint64_t>(kPasses) * w.queries.size();
    const double base_us = best_baseline_ms * 1000.0 /
                           static_cast<double>(executions);
    const double prep_us_exec = best_prepared_ms * 1000.0 /
                                static_cast<double>(executions);
    const double removed_us =
        prep_iters > 0 ? prep_ms * 1000.0 / static_cast<double>(prep_iters)
                       : 0.0;
    // The CI-guarded bit. The prepared path does strictly less work per
    // execution, but this is a wall-clock comparison on shared runners:
    // it compares each path's best leg over the interleaved rounds, with
    // a 10% noise margin (losing the amortization entirely would make
    // the two paths equal, well past the margin). The raw per-exec
    // numbers and speedup are recorded alongside for trajectory tracking.
    const int prepared_slower = prep_us_exec <= base_us * 1.10 ? 0 : 1;
    const int rows_match = rows_baseline == rows_prepared ? 1 : 0;
    std::printf("%-22s %10llu execs  %10.3f us/exec parse-per-query\n",
                "prepared_vs_parse",
                static_cast<unsigned long long>(executions), base_us);
    std::printf("%-22s %10s        %10.3f us/exec prepared (bind+run)\n", "",
                "", prep_us_exec);
    std::printf("  removed per execution: %.3f us (parse+substitute+"
                "identify+plan), speedup %.2fx, rows_match=%d\n",
                removed_us, prep_us_exec > 0 ? base_us / prep_us_exec : 0.0,
                rows_match);
    json->Row("prepared",
              {{"name", "prepared_vs_parse"},
               {"executions", executions},
               {"queries_per_pass",
                static_cast<uint64_t>(w.queries.size())},
               {"result_rows", rows_baseline / kPasses},
               {"rows_match", rows_match},
               {"prepared_slower", prepared_slower},
               {"baseline_per_exec_us", base_us},
               {"prepared_per_exec_us", prep_us_exec},
               {"removed_prepare_us", removed_us},
               {"speedup_wall",
                prep_us_exec > 0 ? base_us / prep_us_exec : 0.0}});
  }

  Rule();
  std::printf("peak RSS: %llu KiB\n",
              static_cast<unsigned long long>(PeakRssKb()));
}

}  // namespace
}  // namespace dskg::bench

int main(int argc, char** argv) {
  dskg::bench::JsonReporter json(argc, argv, "micro_engines");
  dskg::bench::Run(&json);
  return 0;
}
