// Online updates: query latency/TTI as a function of update rate.
//
// Not a figure of the paper — the paper's protocol takes the store
// offline between batches and never mutates it while queries run. This
// bench exercises the streaming-update subsystem built on top of the
// reproduction: an `OnlineStore` (share-nothing predicate shards with
// copy-on-write B+-tree snapshots + epoch reclamation) serves the YAGO
// workload's query batches on a thread pool while the injector publishes
// a synthetic insert/delete stream, re-triggering DOTIL when partition
// statistics drift.
//
// Reported per update rate (mutations per query batch):
//   * query TTI — simulated, deterministic, directly comparable with the
//     rate-0 row (the cost of concurrent updates on the query path);
//   * update apply cost and drift-triggered tuning cost (simulated);
//   * retunes, triples inserted/deleted, wall-clock of the whole run.
//
// `--json out.json` additionally writes the table machine-readably
// (bench_util.h JsonReporter) for cross-PR perf trajectories.

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "core/online_store.h"
#include "workload/update_stream.h"

namespace dskg::bench {
namespace {

double WallMillis(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void RunUpdateRateSweep(JsonReporter* json) {
  std::printf("Online updates: query TTI vs. update rate (YAGO)\n");
  std::printf("hardware threads: %zu\n\n", ThreadPool::DefaultThreads());

  Rule();
  std::printf("%10s %14s %12s %10s %8s %9s %9s %10s\n", "ops/batch",
              "query TTI s", "update s", "tuning s", "retunes", "ins",
              "del", "wall ms");
  Rule();

  const int kRates[] = {0, 500, 2000, 8000};
  double base_tti = -1;
  // One point per update rate for the TTI-vs-freshness frontier emitted
  // after the sweep: how much simulated query latency buys how much
  // absorbed-update throughput.
  struct FrontierPoint {
    int rate;
    uint64_t absorbed;
    double tti_s;
    double tti_slowdown;
    double update_s;
    double tuning_s;
    double freshness_ops_per_s;
  };
  std::vector<FrontierPoint> frontier;
  for (int rate : kRates) {
    rdf::Dataset ds = MakeDataset(WorkloadKind::kYago);
    workload::Workload w = MakeWorkload(WorkloadKind::kYago, ds,
                                        /*ordered=*/true);

    core::DualStoreConfig cfg;
    cfg.graph_capacity_triples = DefaultGraphBudget(ds);
    // Bracket the store's resident footprint: the delta isolates what the
    // online store itself adds on top of the (architecture-independent)
    // dataset/workload scaffolding, so the single-copy-vs-left-right
    // memory claim is a guarded number rather than process noise (CI pins
    // store_bytes at <= 0.65x the frozen left-right baseline).
    const uint64_t rss_before_kb = CurrentRssKb();
    core::OnlineStore store(ds, cfg);
    const uint64_t store_rss_kb =
        CurrentRssKb() > rss_before_kb ? CurrentRssKb() - rss_before_kb : 0;
    const uint64_t store_bytes = store.StorageBytes();

    workload::UpdateStreamConfig uc;
    uc.num_batches = 5;
    uc.ops_per_batch = rate;
    const core::UpdateLog updates = workload::GenerateUpdateStream(ds, uc);

    core::DotilTuner tuner;
    core::WorkloadRunner runner(/*store=*/nullptr, &tuner);
    core::OnlineRunOptions opt;
    opt.num_batches = 5;
    opt.drift_threshold = 0.10;

    ThreadPool pool(ThreadPool::DefaultThreads());
    const auto t0 = std::chrono::steady_clock::now();
    auto m = runner.RunOnline(&store, w, updates, opt, &pool);
    const double wall_ms = WallMillis(t0);
    if (!m.ok()) {
      std::fprintf(stderr, "online run failed (rate %d): %s\n", rate,
                   m.status().ToString().c_str());
      std::abort();
    }

    const double tti = m->TotalTtiMicros();
    if (base_tti < 0) base_tti = tti;
    std::printf("%10d %14.3f %12.3f %10.3f %8d %9llu %9llu %10.1f\n", rate,
                Sec(tti), Sec(m->TotalUpdateMicros()),
                Sec(m->TotalTuningMicros()), m->Retunes(),
                static_cast<unsigned long long>(m->TotalInserted()),
                static_cast<unsigned long long>(m->TotalDeleted()), wall_ms);
    if (json != nullptr) {
      json->Row("tti_vs_update_rate",
                {{"ops_per_batch", rate},
                 {"query_tti_s", Sec(tti)},
                 {"update_s", Sec(m->TotalUpdateMicros())},
                 {"tuning_s", Sec(m->TotalTuningMicros())},
                 {"retunes", m->Retunes()},
                 {"inserted", m->TotalInserted()},
                 {"deleted", m->TotalDeleted()},
                 {"tti_vs_static", base_tti > 0 ? tti / base_tti : 1.0},
                 {"store_bytes", store_bytes},
                 {"store_rss_kb", store_rss_kb},
                 {"wall_ms", wall_ms}});
    }

    // Frontier coordinates, all simulated but not all deterministic:
    // RunOnline runs a window's queries on the pool while this thread
    // applies the window's update batches, so which snapshot a query
    // reads, and so a nonzero rate's query TTI, can depend on timing.
    // Freshness = absorbed mutations per simulated second of TOTAL store
    // work (query TTI + update apply + retuning), so a rate that saves
    // apply time but explodes tuning cost does not get credit for it.
    const uint64_t absorbed = m->TotalInserted() + m->TotalDeleted();
    const double total_s =
        Sec(tti) + Sec(m->TotalUpdateMicros()) + Sec(m->TotalTuningMicros());
    frontier.push_back({rate, absorbed, Sec(tti),
                        base_tti > 0 ? tti / base_tti : 1.0,
                        Sec(m->TotalUpdateMicros()),
                        Sec(m->TotalTuningMicros()),
                        total_s > 0 ? absorbed / total_s : 0.0});
  }
  Rule();

  // The frontier table: each rate is one point trading query latency
  // (tti_slowdown vs the static rate-0 run) against update freshness
  // (absorbed mutations per simulated second). A dominated point — more
  // slowdown AND less freshness than a neighbour — marks a rate not
  // worth running at.
  std::printf("\nTTI-vs-freshness frontier\n");
  std::printf("%10s %10s %12s %14s %18s\n", "ops/batch", "absorbed",
              "tti_s", "tti_slowdown", "freshness ops/s");
  Rule();
  for (const FrontierPoint& p : frontier) {
    std::printf("%10d %10llu %12.3f %14.3f %18.1f\n", p.rate,
                static_cast<unsigned long long>(p.absorbed), p.tti_s,
                p.tti_slowdown, p.freshness_ops_per_s);
    if (json != nullptr) {
      json->Row("freshness_frontier",
                {{"ops_per_batch", p.rate},
                 {"absorbed", p.absorbed},
                 {"query_tti_s", p.tti_s},
                 {"tti_slowdown", p.tti_slowdown},
                 {"update_cost_s", p.update_s},
                 {"tuning_cost_s", p.tuning_s},
                 {"freshness_ops_per_s", p.freshness_ops_per_s}});
    }
  }
  Rule();
  std::printf(
      "rate 0 is the static, never-retuned baseline (zero drift means the\n"
      "tuner never re-triggers). TTI differences at higher rates reflect\n"
      "genuinely changed knowledge (inserted facts join, deleted ones stop\n"
      "matching) and drift-triggered DOTIL placements — never reader-side\n"
      "blocking: the read path is epoch-pinned and lock-free.\n");
}

}  // namespace
}  // namespace dskg::bench

int main(int argc, char** argv) {
  dskg::bench::JsonReporter json(argc, argv, "bench_online_updates");
  dskg::bench::RunUpdateRateSweep(json.enabled() ? &json : nullptr);
  return 0;
}
