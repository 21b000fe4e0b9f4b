// Share-nothing shard scaling: update-ingestion throughput and memory
// versus applier shard count.
//
// Not a figure of the paper — the paper's store is offline between
// batches. This bench exercises the sharded copy-on-write ingestion
// pipeline built on top of the reproduction: an `OnlineStore` splits its
// triple table and graph store into N predicate shards; the injector
// routes every batch's ops, the shards apply them in parallel on the
// store's pool of N - 1 workers plus the injector thread itself, and the
// injector merges the outcomes.
//
// Reported per shard count:
//   * inserted / deleted and the simulated apply cost — shard-count
//     *invariant* by construction (the injector resolves ids in op
//     order; each shard applies its slice in op order), so any drift
//     across rows is a sharding bug, not noise;
//   * store_bytes — the deterministic storage-tier footprint (dataset +
//     dictionary + index slabs of the single copy; snapshots share
//     nodes, so this does not grow with N);
//   * wall-clock ingest time and ops/s (machine-dependent, prefixed
//     `wall_` so the CI regression check ignores them).
//
// `--json out.json` additionally writes the table machine-readably
// (bench_util.h JsonReporter) for cross-PR perf trajectories.

#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "core/online_store.h"
#include "workload/update_stream.h"

namespace dskg::bench {
namespace {

double WallMillis(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void RunShardScaling(JsonReporter* json) {
  std::printf("Shard scaling: update ingestion vs. applier shards (YAGO)\n");
  std::printf("hardware threads: %zu\n\n", ThreadPool::DefaultThreads());

  Rule();
  std::printf("%8s %10s %9s %9s %12s %14s %12s\n", "shards", "ops",
              "ins", "del", "update s", "store MiB", "wall ops/s");
  Rule();

  const int kBatches = 8;
  const int kOpsPerBatch = 4000;
  for (int shards : {1, 2, 4, 8}) {
    rdf::Dataset ds = MakeDataset(WorkloadKind::kYago);
    core::DualStoreConfig cfg;
    cfg.graph_capacity_triples = DefaultGraphBudget(ds);
    cfg.num_shards = shards;

    const uint64_t rss_before_kb = CurrentRssKb();
    core::OnlineStore store(ds, cfg);
    const uint64_t store_rss_kb =
        CurrentRssKb() > rss_before_kb ? CurrentRssKb() - rss_before_kb : 0;

    workload::UpdateStreamConfig uc;
    uc.num_batches = kBatches;
    uc.ops_per_batch = kOpsPerBatch;
    const core::UpdateLog updates = workload::GenerateUpdateStream(ds, uc);

    CostMeter meter;
    uint64_t inserted = 0, deleted = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (uint64_t b = 0; b < updates.size(); ++b) {
      auto r = store.ApplyUpdates(updates.at(b), &meter);
      if (!r.ok()) {
        std::fprintf(stderr, "apply failed (%d shards): %s\n", shards,
                     r.status().ToString().c_str());
        std::abort();
      }
      inserted += r->inserted;
      deleted += r->deleted;
    }
    const double ingest_ms = WallMillis(t0);
    const uint64_t total_ops =
        static_cast<uint64_t>(kBatches) * kOpsPerBatch;
    const double wall_ops_per_sec =
        ingest_ms > 0 ? 1000.0 * static_cast<double>(total_ops) / ingest_ms
                      : 0;
    const uint64_t store_bytes = store.StorageBytes();

    std::printf("%8d %10llu %9llu %9llu %12.3f %14.2f %12.0f\n", shards,
                static_cast<unsigned long long>(total_ops),
                static_cast<unsigned long long>(inserted),
                static_cast<unsigned long long>(deleted),
                Sec(meter.sim_micros()),
                static_cast<double>(store_bytes) / (1024.0 * 1024.0),
                wall_ops_per_sec);
    if (json != nullptr) {
      json->Row("shard_scaling",
                {{"num_shards", shards},
                 {"total_ops", total_ops},
                 {"inserted", inserted},
                 {"deleted", deleted},
                 {"update_s", Sec(meter.sim_micros())},
                 {"store_bytes", store_bytes},
                 {"store_rss_kb", store_rss_kb},
                 {"wall_ingest_ms", ingest_ms},
                 {"wall_ops_per_sec", wall_ops_per_sec}});
    }
  }
  Rule();
  std::printf(
      "inserted/deleted and the simulated apply cost are shard-count\n"
      "invariant (id resolution and per-shard application preserve op\n"
      "order); wall-clock throughput is what parallel shard apply buys\n"
      "(N shards run on N - 1 pool workers plus the injector thread).\n"
      "store_bytes is the single-copy storage tier — snapshots add only\n"
      "transient copy-on-write deltas, reclaimed after each batch.\n");
}

}  // namespace
}  // namespace dskg::bench

int main(int argc, char** argv) {
  dskg::bench::JsonReporter json(argc, argv, "bench_shard_scaling");
  dskg::bench::RunShardScaling(json.enabled() ? &json : nullptr);
  return 0;
}
