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
#include <cctype>
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

struct Section {
  std::string name;
  uint64_t iters = 0;
  double total_ms = 0.0;
  double per_iter_us = 0.0;
  uint64_t work_items = 0;  // section-specific unit (keys, queries, rows)
};

void Report(JsonReporter* json, std::vector<Section>* all, Section s) {
  s.per_iter_us = s.iters > 0 ? s.total_ms * 1000.0 / static_cast<double>(
                                                         s.iters)
                              : 0.0;
  std::printf("%-22s %10llu iters %12.2f ms total %12.3f us/iter\n",
              s.name.c_str(), static_cast<unsigned long long>(s.iters),
              s.total_ms, s.per_iter_us);
  json->Row("micro", {{"name", s.name},
                      {"iters", s.iters},
                      {"total_ms", s.total_ms},
                      {"per_iter_us", s.per_iter_us},
                      {"work_items", s.work_items}});
  all->push_back(std::move(s));
}

void Run(JsonReporter* json) {
  std::vector<Section> sections;
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
    Report(json, &sections,
           {"btree_insert_100k", iters, ms, 0.0, kN * iters + (sink & 1)});
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
    Report(json, &sections,
           {"btree_lower_bound", iters, ms, 0.0, sink});
  }

  // ---- parser -------------------------------------------------------------
  {
    uint64_t ok = 0;
    auto [iters, ms] = TimeLoop([&] {
      auto q = sparql::Parser::Parse(kFlagship);
      ok += q.ok() ? 1 : 0;
    });
    Report(json, &sections, {"parse_flagship", iters, ms, 0.0, ok});
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
      Report(json, &sections, {"rel_flagship", iters, ms, 0.0, rows});
    }
    {
      uint64_t rows = 0;
      auto [iters, ms] = TimeLoop(
          [&] {
            auto r = store.Process(flagship);
            rows += r.ok() ? r->result.NumRows() : 0;
          },
          500.0, 1u << 14);
      Report(json, &sections, {"graph_flagship", iters, ms, 0.0, rows});
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
    core::DualStoreConfig sc;
    sc.use_graph = false;
    core::DualStore store(&ds, sc);
    relstore::Executor ex(&store.table(), &ds.dict());
    uint64_t rows = 0;
    auto [iters, ms] = TimeLoop(
        [&] {
          for (const workload::WorkloadQuery& wq : w.queries) {
            CostMeter meter;
            auto r = ex.ExecuteCompiled(ex.Compile(wq.query), nullptr,
                                        nullptr, &meter);
            rows += r.ok() ? r->NumRows() : 0;
          }
        },
        1500.0, 64);
    Report(json, &sections, {"rel_complex_mix", iters, ms, 0.0, rows});
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
    CostMeter load;
    for (const workload::WorkloadQuery& wq : w.queries) {
      for (const std::string& pred : wq.query.ConstantPredicates()) {
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
          for (const workload::WorkloadQuery& wq : w.queries) {
            CostMeter meter;
            auto plan = matcher.Compile(wq.query);
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
    Report(json, &sections, {"graph_complex_mix", iters, ms, 0.0, rows});
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
  // parse-per-query baseline instantiates each execution the way the old
  // workload path did (string-substitute the template's $params, re-parse,
  // re-identify, re-plan), while the prepared path binds new parameter
  // values into the cached plan. Execution work is identical by design
  // (simulated charges are bit-equal), so the delta is exactly the
  // plan-time work the prepared-statement API removes. A deliberately
  // small extent keeps per-execution engine time low so the amortized
  // share is visible and stable.
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

    // The old instantiation path: substitute $params into the text.
    auto instantiate = [](std::string text,
                          const std::vector<std::pair<std::string,
                                                      std::string>>& binds) {
      for (const auto& [p, v] : binds) {
        const std::string needle = "$" + p;
        size_t pos = 0;
        while ((pos = text.find(needle, pos)) != std::string::npos) {
          const size_t after = pos + needle.size();
          const bool boundary =
              after >= text.size() ||
              (!std::isalnum(static_cast<unsigned char>(text[after])) &&
               text[after] != '_');
          if (boundary) {
            text.replace(pos, needle.size(), v);
            pos += v.size();
          } else {
            pos += needle.size();
          }
        }
      }
      return text;
    };
    std::vector<std::string> bound_texts;
    bound_texts.reserve(w.queries.size());
    for (const workload::WorkloadQuery& wq : w.queries) {
      bound_texts.push_back(instantiate(wq.prepared_text, wq.bindings));
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
    const int kPasses = 8;  // 8 x 15 queries = 120 executions per round
    const int kRounds = 3;  // alternate rounds, keep each path's best
    uint64_t rows_baseline = 0;
    uint64_t rows_prepared = 0;
    double best_baseline_ms = std::numeric_limits<double>::max();
    double best_prepared_ms = std::numeric_limits<double>::max();
    for (int round = 0; round < kRounds; ++round) {
      uint64_t rows_b = 0;
      const auto b0 = Clock::now();
      for (int pass = 0; pass < kPasses; ++pass) {
        for (const std::string& text : bound_texts) {
          auto r = store.Process(text);  // parse + identify + plan + run
          rows_b += r.ok() ? r->result.NumRows() : 0;
        }
      }
      best_baseline_ms = std::min(
          best_baseline_ms,
          std::chrono::duration<double, std::milli>(Clock::now() - b0)
              .count());

      uint64_t rows_p = 0;
      const auto p0 = Clock::now();
      for (int pass = 0; pass < kPasses; ++pass) {
        for (size_t i = 0; i < prepared.size(); ++i) {
          for (const auto& [param, term] : w.queries[i].bindings) {
            (void)prepared[i].Bind(param, term);
          }
          auto r = prepared[i].ExecuteAll();  // bind-patch + run
          rows_p += r.ok() ? r->result.NumRows() : 0;
        }
      }
      best_prepared_ms = std::min(
          best_prepared_ms,
          std::chrono::duration<double, std::milli>(Clock::now() - p0)
              .count());
      rows_baseline = rows_b;
      rows_prepared = rows_p;
    }

    // The removed work, measured directly: substitution + parse +
    // identification + routing + slot compilation (no execution).
    uint64_t prep_iters = 0;
    double prep_ms = 0;
    {
      const auto t0 = Clock::now();
      while (prep_ms < 200.0) {
        for (const workload::WorkloadQuery& wq : w.queries) {
          const std::string text = instantiate(wq.prepared_text, wq.bindings);
          auto q = sparql::Parser::Parse(text);
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
    // a 10% noise margin keeps the gate honest (losing the amortization
    // entirely would make the two paths equal, well past the margin)
    // without flaking on scheduler jitter. The raw per-exec numbers and
    // speedup are recorded alongside for trajectory tracking.
    const int prepared_slower = prep_us_exec <= base_us * 1.10 ? 0 : 1;
    const int rows_match = rows_baseline == rows_prepared ? 1 : 0;
    std::printf("%-22s %10llu execs  %10.3f us/exec parse-per-query\n",
                "prepared_vs_parse",
                static_cast<unsigned long long>(executions), base_us);
    std::printf("%-22s %10s        %10.3f us/exec prepared (bind+run)\n", "",
                "", prep_us_exec);
    std::printf("  removed per execution: %.3f us (substitute+parse+"
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
