// Parallel sharded query execution: batch throughput versus thread count.
//
// Not a figure of the paper — this bench exercises the ThreadPool-backed
// execution paths added on top of the reproduction:
//
//   1. `WorkloadRunner::Run` with a pool — the queries of each batch run
//      concurrently (tuning stays serial between batches). Reported
//      throughput is *wall-clock* queries/second; the simulated TTI is
//      printed alongside and must be identical at every thread count
//      (the equivalence tests enforce the same bit-for-bit).
//   2. `TraversalMatcher::MatchSharded` — the first pattern step's
//      candidate range of a heavy traversal is split across workers.
//   3. Parallel load — block-parallel dataset generation plus the
//      permutation/sub-shard-parallel `TripleTable::BulkLoad`.
//
// Wall-clock speedup depends on the machine's core count; the simulated
// numbers do not. DSKG_PARALLEL_MAX_THREADS (default 8) caps the sweep.

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "graphstore/matcher.h"
#include "relstore/triple_table.h"
#include "sparql/parser.h"

namespace dskg::bench {
namespace {

double WallMillis(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

int MaxThreads() {
  const char* env = std::getenv("DSKG_PARALLEL_MAX_THREADS");
  if (env == nullptr) return 8;
  const int v = std::atoi(env);
  return v > 0 ? v : 8;
}

void RunBatchScaling(JsonReporter* json) {
  std::printf("Batch-parallel execution (WorkloadRunner::Run, pooled)\n");
  std::printf("hardware threads: %zu\n\n", ThreadPool::DefaultThreads());

  Rule();
  std::printf("%8s %12s %14s %10s %16s\n", "threads", "wall ms",
              "queries/s", "speedup", "simulated TTI s");
  Rule();

  double base_ms = 0;
  double base_tti = -1;
  bool tti_consistent = true;
  size_t num_queries = 0;
  for (int threads = 1; threads <= MaxThreads(); threads *= 2) {
    // Every thread count gets a *fresh, identically warmed* store:
    // tuning mutates store state, so reusing one store across the sweep
    // would compare different tuner states, not different thread counts.
    // Dataset generation and warmup are deterministic, so any TTI
    // difference below is a genuine parallelism bug.
    rdf::Dataset ds = MakeDataset(WorkloadKind::kYago);
    workload::Workload w = MakeWorkload(WorkloadKind::kYago, ds,
                                        /*ordered=*/true);
    num_queries = w.queries.size();
    core::DualStoreConfig cfg;
    cfg.graph_capacity_triples = DefaultGraphBudget(ds);
    core::DualStore store(&ds, cfg);
    core::DotilTuner tuner;
    core::WorkloadRunner runner(&store, &tuner);

    // Warm the accelerator (serial) as the paper's protocol does, so the
    // timed run compares steady-state query execution.
    for (int warm = 0; warm < 2; ++warm) {
      auto w_run = runner.Run(w, /*num_batches=*/5);
      if (!w_run.ok()) {
        std::fprintf(stderr, "warmup failed: %s\n",
                     w_run.status().ToString().c_str());
        std::abort();
      }
    }

    ThreadPool pool(static_cast<size_t>(threads));
    // Route every parallel surface through the same pool: sharded
    // traversal inside each query, and DOTIL's speculative c1/c2 probes
    // between batches. Simulated TTI must not move.
    store.SetExecutionPool(&pool);
    tuner.set_probe_pool(&pool);
    const auto t0 = std::chrono::steady_clock::now();
    auto m = runner.Run(w, /*num_batches=*/5, &pool);
    const double ms = WallMillis(t0);
    if (!m.ok()) {
      std::fprintf(stderr, "run failed: %s\n", m.status().ToString().c_str());
      std::abort();
    }
    if (threads == 1) base_ms = ms;
    const double tti = m->TotalTtiMicros();
    if (base_tti < 0) base_tti = tti;
    if (tti != base_tti) tti_consistent = false;
    std::printf("%8d %12.1f %14.0f %9.2fx %16.3f\n", threads, ms,
                static_cast<double>(num_queries) * 1000.0 / ms,
                base_ms / ms, Sec(tti));
    if (json != nullptr) {
      json->Row("batch_scaling",
                {{"threads", threads},
                 {"simulated_tti_s", Sec(tti)},
                 {"wall_ms", ms},
                 {"wall_speedup", base_ms / ms}});
    }
  }
  Rule();
  std::printf("simulated TTI identical across thread counts: %s\n\n",
              tti_consistent ? "yes" : "NO (BUG)");
}

void RunShardedTraversal(JsonReporter* json) {
  std::printf("Sharded graph traversal (TraversalMatcher::MatchSharded)\n\n");

  rdf::Dataset ds = MakeDataset(WorkloadKind::kYago);
  core::DualStoreConfig cfg;
  cfg.use_graph = true;
  cfg.graph_capacity_triples = ds.num_triples();
  core::DualStore store(&ds, cfg);
  CostMeter load;
  for (const rdf::TermId pred : store.table().Predicates()) {
    if (!store.MigratePartition(pred, &load).ok()) {
      std::fprintf(stderr, "migration failed\n");
      std::abort();
    }
  }
  graphstore::TraversalMatcher matcher(&store.graph(), &ds.dict());

  // The flagship star: a heavy traversal whose root step enumerates every
  // wasBornIn edge — the candidate range MatchSharded partitions.
  auto q = sparql::Parser::Parse(
      "SELECT ?p ?c ?a WHERE { ?p y:wasBornIn ?c . "
      "?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?c . }");
  if (!q.ok()) {
    std::fprintf(stderr, "parse failed: %s\n", q.status().ToString().c_str());
    std::abort();
  }
  auto plan = matcher.Compile(*q);
  if (!plan.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 plan.status().ToString().c_str());
    std::abort();
  }

  Rule();
  std::printf("%8s %12s %10s %12s %16s\n", "shards", "wall ms", "speedup",
              "rows", "simulated s");
  Rule();
  double base_ms = 0;
  for (int shards = 1; shards <= MaxThreads(); shards *= 2) {
    ThreadPool pool(static_cast<size_t>(shards));
    const int reps = 5;
    size_t rows = 0;
    double sim = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
      CostMeter meter;
      auto result =
          matcher.MatchSharded(*plan, nullptr, &meter, &pool, shards);
      if (!result.ok()) {
        std::fprintf(stderr, "traversal failed: %s\n",
                     result.status().ToString().c_str());
        std::abort();
      }
      rows = result->NumRows();
      sim = meter.sim_micros();
    }
    const double ms = WallMillis(t0) / reps;
    if (shards == 1) base_ms = ms;
    std::printf("%8d %12.2f %9.2fx %12zu %16.4f\n", shards, ms,
                base_ms / ms, rows, Sec(sim));
    if (json != nullptr) {
      json->Row("sharded_traversal",
                {{"shards", shards},
                 {"simulated_s", Sec(sim)},
                 {"rows", rows},
                 {"wall_ms", ms},
                 {"wall_speedup", base_ms / ms}});
    }
  }
  Rule();
  std::printf("\n");
}

void RunParallelLoad(JsonReporter* json) {
  std::printf(
      "Parallel load (block-parallel generation + parallel BulkLoad)\n\n");

  Rule();
  std::printf("%8s %12s %12s %10s %12s %14s\n", "threads", "gen ms",
              "load ms", "speedup", "triples", "load sim s");
  Rule();
  double base_ms = 0;
  for (int threads = 1; threads <= MaxThreads(); threads *= 2) {
    ThreadPool pool(static_cast<size_t>(threads));
    workload::YagoConfig c;
    c.target_triples = Scaled(kYagoTriples);

    const auto t0 = std::chrono::steady_clock::now();
    rdf::Dataset ds = workload::GenerateYago(c, &pool);
    const double gen_ms = WallMillis(t0);

    const auto t1 = std::chrono::steady_clock::now();
    relstore::TripleTable table;
    CostMeter meter;
    table.BulkLoad(ds.triples(), &meter, &pool);
    const double load_ms = WallMillis(t1);

    const double total_ms = gen_ms + load_ms;
    if (threads == 1) base_ms = total_ms;
    std::printf("%8d %12.2f %12.2f %9.2fx %12llu %14.4f\n", threads, gen_ms,
                load_ms, base_ms / total_ms,
                static_cast<unsigned long long>(ds.num_triples()),
                Sec(meter.sim_micros()));
    if (json != nullptr) {
      // `triples`, `dict_terms` and `load_sim_s` are deterministic — the
      // regression checker pins them, so a thread-dependent generator or
      // loader shows up as a baseline diff.
      json->Row("parallel_load",
                {{"threads", threads},
                 {"gen_wall_ms", gen_ms},
                 {"load_wall_ms", load_ms},
                 {"wall_speedup", base_ms / total_ms},
                 {"triples", ds.num_triples()},
                 {"dict_terms", static_cast<uint64_t>(ds.dict().size())},
                 {"load_sim_s", Sec(meter.sim_micros())}});
    }
  }
  Rule();
}

}  // namespace
}  // namespace dskg::bench

int main(int argc, char** argv) {
  dskg::bench::JsonReporter json(argc, argv, "bench_parallel_scaling");
  dskg::bench::JsonReporter* j = json.enabled() ? &json : nullptr;
  dskg::bench::RunBatchScaling(j);
  dskg::bench::RunShardedTraversal(j);
  dskg::bench::RunParallelLoad(j);
  return 0;
}
