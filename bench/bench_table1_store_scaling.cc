// Reproduces Table 1: query latency of the relational store (MySQL in the
// paper) vs the native graph store (Neo4j) on the flagship complex query
//
//   SELECT ?p WHERE { ?p y:wasBornIn ?city .
//                     ?p y:hasAcademicAdvisor ?a .
//                     ?a y:wasBornIn ?city . }
//
// varying the knowledge-graph size. The paper sweeps 0.5M..5M triples; the
// bench sweeps the same ten relative sizes at 1/10 scale (override with
// DSKG_BENCH_SCALE). Expected shape: relational latency grows roughly
// linearly with |G| while graph-store latency stays an order of magnitude
// smaller throughout.
//
// `--json out.json` records the sweep (simulated seconds plus wall-clock
// and peak-RSS columns) for the BENCH_*.json perf trajectory. A second
// `storage` table records the storage tier's exact footprint — B+-tree
// node slabs, dictionary arena + tables, triple list — as deterministic
// bytes/triple, plus machine-dependent load wall time and peak RSS.
//
// `--max-step N` stops the sweep after step N: the paper-scale load path
// runs one big step instead of ten small ones, e.g.
//
//   DSKG_BENCH_SCALE=200 bench_table1_store_scaling --max-step 1
//
// loads 10M triples and runs the flagship query on both engines.
//
// `--parallel[=N]` generates the dataset and bulk-loads the store on a
// thread pool (N threads, default hardware concurrency). The loaded store
// is byte-identical to the serial one, so every deterministic `storage`
// metric (bytes_per_triple, storage_bytes, dict_bytes, index_bytes,
// index_nodes) must match a serial run exactly — the CI scale smoke
// asserts that; only load_wall_ms may move.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/session.h"

namespace dskg::bench {
namespace {

constexpr const char* kQuery =
    "SELECT ?p WHERE { ?p y:wasBornIn ?city . "
    "?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city . }";

// Paper's Table 1 (seconds), for side-by-side comparison.
constexpr double kPaperMySql[10] = {11.2304, 17.2368, 27.6332, 37.6454,
                                    47.9656, 62.5006, 69.7482, 68.8358,
                                    68.6312, 99.4103};
constexpr double kPaperNeo4j[10] = {0.6067, 1.3270, 1.5837, 3.3893, 2.2573,
                                    3.4786, 2.7923, 3.4560, 3.7312, 3.9833};

/// Returns false on any failure, including an engine row-count mismatch —
/// the CI smoke steps rely on a non-zero exit to surface scale-only
/// correctness bugs.
bool Run(JsonReporter* json, int max_step, ThreadPool* pool) {
  bool mismatch = false;
  std::printf("Table 1: relational vs graph store, flagship complex query\n");
  std::printf("(paper: MySQL / Neo4j at 0.5M-5M triples; measured: DSKG "
              "simulated seconds at 1/10 scale x DSKG_BENCH_SCALE=%.2f)\n\n",
              ScaleFactor());
  std::printf("%10s | %12s %12s | %12s %12s | %8s\n", "triples",
              "rel (s)", "graph (s)", "paper MySQL", "paper Neo4j",
              "speedup");
  Rule();

  for (int step = 1; step <= max_step; ++step) {
    workload::YagoConfig cfg;
    cfg.target_triples = Scaled(50000) * static_cast<uint64_t>(step);
    rdf::Dataset ds = workload::GenerateYago(cfg, pool);

    // Relational-only store (timed: this is the storage tier's bulk-load
    // path — dataset + dictionary arena + three B+-tree indexes).
    core::DualStoreConfig rc;
    rc.use_graph = false;
    rc.load_pool = pool;
    const auto load_start = std::chrono::steady_clock::now();
    core::DualStore rel(&ds, rc);
    const double load_wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - load_start)
            .count();

    // Storage-tier footprint, exact and deterministic: triple list +
    // dictionary (arena, spans, refcounts, hash index) + index slabs.
    const uint64_t dict_bytes = ds.dict().MemoryBytes();
    const uint64_t dataset_bytes = ds.StorageBytes();
    const uint64_t index_bytes = rel.table().IndexBytes();
    const uint64_t storage_bytes = dataset_bytes + index_bytes;
    const double bytes_per_triple =
        static_cast<double>(storage_bytes) /
        static_cast<double>(ds.num_triples());
    json->Row("storage",
              {{"step", step},
               {"triples", ds.num_triples()},
               {"bytes_per_triple", bytes_per_triple},
               {"storage_bytes", storage_bytes},
               {"dict_bytes", dict_bytes},
               {"index_bytes", index_bytes},
               {"index_nodes", rel.table().IndexNodes()},
               {"load_wall_ms", load_wall_ms}});

    core::Session rel_session(&rel);
    const auto rel_start = std::chrono::steady_clock::now();
    auto r1 = rel_session.Execute(kQuery);
    const double rel_wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - rel_start)
            .count();
    if (!r1.ok()) {
      std::fprintf(stderr, "relational run failed: %s\n",
                   r1.status().ToString().c_str());
      return false;
    }

    // Graph store with the needed partitions resident (Table 1 measures
    // the two engines head to head, no budget).
    core::DualStoreConfig gc;
    gc.use_graph = true;
    gc.load_pool = pool;
    core::DualStore dual(&ds, gc);
    CostMeter load;
    for (const char* pred : {"y:wasBornIn", "y:hasAcademicAdvisor"}) {
      auto st = dual.MigratePartition(ds.dict().Lookup(pred), &load);
      if (!st.ok()) {
        std::fprintf(stderr, "migration failed: %s\n", st.ToString().c_str());
        return false;
      }
    }
    core::Session dual_session(&dual);
    const auto graph_start = std::chrono::steady_clock::now();
    auto r2 = dual_session.Execute(kQuery);
    const double graph_wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - graph_start)
            .count();
    if (!r2.ok()) {
      std::fprintf(stderr, "graph run failed: %s\n",
                   r2.status().ToString().c_str());
      return false;
    }

    const double rel_s = Sec(r1->rel_micros);
    const double graph_s = Sec(r2->graph_micros);
    std::printf("%10llu | %12.4f %12.4f | %12.4f %12.4f | %7.1fx"
                " | %5.1f B/triple, load %.0f ms, rss %llu MiB\n",
                static_cast<unsigned long long>(ds.num_triples()), rel_s,
                graph_s, kPaperMySql[step - 1], kPaperNeo4j[step - 1],
                graph_s > 0 ? rel_s / graph_s : 0.0, bytes_per_triple,
                load_wall_ms,
                static_cast<unsigned long long>(PeakRssKb() / 1024));
    if (r1->result.NumRows() != r2->result.NumRows()) {
      // The two engines disagreeing on the flagship query is a
      // correctness bug, not a perf signal: fail the process so the CI
      // smoke steps go red.
      std::fprintf(stderr,
                   "FAIL: result mismatch (%zu vs %zu rows) at step %d\n",
                   r1->result.NumRows(), r2->result.NumRows(), step);
      mismatch = true;
    }
    json->Row("table1", {{"step", step},
                         {"triples", ds.num_triples()},
                         {"rel_tti_s", rel_s},
                         {"graph_tti_s", graph_s},
                         {"result_rows",
                          static_cast<uint64_t>(r1->result.NumRows())},
                         {"rel_wall_ms", rel_wall_ms},
                         {"graph_wall_ms", graph_wall_ms}});
  }
  Rule();
  std::printf("Shape check: relational grows ~linearly in |G|; the graph "
              "store stays far below it at every size (paper: 9-25x).\n");
  return !mismatch;
}

}  // namespace
}  // namespace dskg::bench

int main(int argc, char** argv) {
  dskg::bench::JsonReporter json(argc, argv, "table1_store_scaling");
  int max_step = 10;
  int parallel_threads = 0;  // 0 = serial
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (std::strcmp(argv[i], "--max-step") == 0 && i + 1 < argc) {
      value = argv[++i];
    } else if (std::strncmp(argv[i], "--max-step=", 11) == 0) {
      value = argv[i] + 11;
    } else if (std::strcmp(argv[i], "--parallel") == 0) {
      parallel_threads = static_cast<int>(dskg::ThreadPool::DefaultThreads());
    } else if (std::strncmp(argv[i], "--parallel=", 11) == 0) {
      parallel_threads = std::atoi(argv[i] + 11);
      if (parallel_threads < 1) {
        std::fprintf(stderr, "--parallel needs a positive thread count\n");
        return 2;
      }
    }
    if (value != nullptr) {
      max_step = std::atoi(value);
      if (max_step < 1 || max_step > 10) {
        // A typo must not silently widen a CI smoke run into the full
        // ten-step sweep at paper scale.
        std::fprintf(stderr, "--max-step must be 1..10, got \"%s\"\n", value);
        return 2;
      }
    }
  }
  std::unique_ptr<dskg::ThreadPool> pool;
  if (parallel_threads > 0) {
    pool = std::make_unique<dskg::ThreadPool>(
        static_cast<size_t>(parallel_threads));
  }
  return dskg::bench::Run(&json, max_step, pool.get()) ? 0 : 1;
}
