// Streaming freshness: `RunOnline` end to end against the sharded
// copy-on-write store. A YAGO-style query workload runs on a thread pool
// while the injector concurrently publishes an insert/delete stream
// across four predicate shards; every query window sees a consistent
// batch-boundary snapshot, and DOTIL re-tunes when partition statistics
// drift.
//
// The printout is the freshness trade-off: the same query workload runs
// once against a frozen store (stale, never drift-re-tuned) and once with
// live updates (fresh facts join the answers), with per-window TTI, apply
// cost and drift so the price of freshness is a number, not a claim.
//
// The per-window table is sourced from the telemetry registry, not from
// the returned metrics struct: an `after_window` callback snapshots
// `SnapshotValues()` while the store is quiesced, and each row is the
// delta between consecutive snapshots — the same numbers any monitoring
// scrape would see.
//
//   $ ./build/examples/streaming_freshness
//   $ ./build/examples/streaming_freshness --slow-query-ms 0.05
//   $ ./build/examples/streaming_freshness --snapshot-dir /tmp/dskg_demo
//   $ ./build/examples/streaming_freshness --snapshot-dir /tmp/dskg_demo --resume
//
// `--slow-query-ms` arms the registry's slow-query log at the given
// wall-clock threshold and then replays a few queries through a `Session`
// over the final store, printing what the log captured.
//
// `--snapshot-dir DIR` runs the durability e2e instead: a durable store
// ingests a stream (snapshot mid-way, the rest WAL-only), is destroyed
// without a final snapshot — the simulated kill — and is recovered from
// DIR; the recovered rows are verified identical to a store that applied
// the same stream serially. DIR is wiped first. Adding `--resume` skips
// the ingest and only recovers whatever a previous run left in DIR.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "core/dotil.h"
#include "core/online_store.h"
#include "core/runner.h"
#include "core/session.h"
#include "persist/wal.h"
#include "workload/generators.h"
#include "workload/templates.h"
#include "workload/update_stream.h"
#include "workload/workload.h"

using namespace dskg;

namespace {

constexpr const char* kFlagship =
    "SELECT ?p WHERE { ?p y:wasBornIn ?city . "
    "?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city . }";

/// One full online run on a fresh store; `updates` may be empty (the
/// static baseline — same protocol, zero mutations).
Result<core::OnlineRunMetrics> RunOnce(
    const rdf::Dataset& ds, const workload::Workload& w,
    const core::UpdateLog& updates, uint64_t* store_bytes,
    std::function<void(int)> after_window = nullptr) {
  core::DualStoreConfig cfg;
  cfg.graph_capacity_triples = ds.num_triples() / 4;
  cfg.num_shards = 4;
  core::OnlineStore store(ds, cfg);
  if (store_bytes != nullptr) *store_bytes = store.StorageBytes();

  core::DotilTuner tuner;
  core::WorkloadRunner runner(/*store=*/nullptr, &tuner);
  core::OnlineRunOptions opt;
  opt.num_batches = 5;
  opt.drift_threshold = 0.10;
  opt.after_window = std::move(after_window);

  ThreadPool pool(ThreadPool::DefaultThreads());
  return runner.RunOnline(&store, w, updates, opt, &pool);
}

/// `m[key]`, 0 when absent (a metric nobody touched yet has no entry).
double Val(const std::map<std::string, double>& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

/// Runs a few queries through a `Session` over a fresh store so the
/// armed slow-query log has traffic to catch, then prints its contents.
void DemoSlowQueryLog(const rdf::Dataset& ds, double threshold_ms) {
  auto& reg = telemetry::MetricsRegistry::Global();
  reg.slow_queries().set_threshold_ms(threshold_ms);

  core::DualStoreConfig cfg;
  cfg.graph_capacity_triples = ds.num_triples() / 4;
  core::OnlineStore store(ds, cfg);
  core::Session session(&store);
  for (int i = 0; i < 5; ++i) {
    auto exec = session.Execute(kFlagship);
    if (!exec.ok()) {
      std::fprintf(stderr, "%s\n", exec.status().ToString().c_str());
      return;
    }
  }

  std::printf("\nslow-query log (threshold %.3f ms, %llu caught):\n",
              threshold_ms,
              static_cast<unsigned long long>(reg.slow_queries().total()));
  for (const telemetry::SlowQueryLog::Entry& e :
       reg.slow_queries().Snapshot()) {
    std::printf("  #%llu %8.3f ms [%s] %s\n",
                static_cast<unsigned long long>(e.seq), e.wall_ms,
                e.route.c_str(), e.text.c_str());
  }
}

/// Sorted canonical rows of a store (text-decoded, id-layout-free).
std::vector<std::string> CanonRows(const core::OnlineStore& store) {
  const rdf::Dataset& ds = store.active().dataset();
  std::vector<std::string> rows;
  rows.reserve(ds.triples().size());
  for (const rdf::Triple& t : ds.triples()) {
    rows.push_back(std::string(ds.dict().TermOf(t.subject)) + "|" +
                   std::string(ds.dict().TermOf(t.predicate)) + "|" +
                   std::string(ds.dict().TermOf(t.object)));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

void PrintReport(const core::OnlineStore::RecoveryReport& report) {
  std::printf("  snapshot:          %s (watermark %llu%s)\n",
              report.snapshot_file.c_str(),
              static_cast<unsigned long long>(report.snapshot_watermark),
              report.used_fallback_snapshot ? ", FALLBACK" : "");
  std::printf("  replayed from WAL: %llu batches%s\n",
              static_cast<unsigned long long>(report.replayed_batches),
              report.dropped_tail ? " (partial tail dropped)" : "");
  if (!report.wal_status.ok()) {
    std::printf("  wal status:        %s\n",
                report.wal_status.ToString().c_str());
  }
}

/// Recover-only mode (`--resume`): rebuild from whatever a previous run
/// left in `dir` and prove the store answers queries.
int ResumeDemo(const std::string& dir) {
  persist::DurabilityOptions opts;
  opts.dir = dir;
  core::DualStoreConfig cfg;
  cfg.num_shards = 2;
  cfg.graph_capacity_triples = 32768;
  core::OnlineStore::RecoveryReport report;
  auto store = core::OnlineStore::Recover(cfg, opts, &report);
  if (!store.ok()) {
    std::fprintf(stderr,
                 "cannot resume from %s: %s\n(run once with --snapshot-dir "
                 "%s first)\n",
                 dir.c_str(), store.status().ToString().c_str(), dir.c_str());
    return 1;
  }
  std::printf("resumed from %s:\n", dir.c_str());
  PrintReport(report);
  std::printf("  rows:              %llu\n",
              static_cast<unsigned long long>(
                  (*store)->active().dataset().num_triples()));
  core::Session session(store->get());
  auto exec = session.Execute(kFlagship);
  if (!exec.ok()) {
    std::fprintf(stderr, "%s\n", exec.status().ToString().c_str());
    return 1;
  }
  std::printf("  flagship query:    %llu rows — the recovered store serves\n",
              static_cast<unsigned long long>(exec->result.NumRows()));
  return 0;
}

/// Durability e2e (`--snapshot-dir`): ingest with a mid-stream snapshot,
/// "kill" the process (destroy the store with batches only in the WAL),
/// recover, and verify zero diff against a serial re-run.
int DurabilityDemo(const std::string& dir) {
  std::filesystem::remove_all(dir);

  workload::YagoConfig gen;
  gen.target_triples = 20000;
  rdf::Dataset yago = workload::GenerateYago(gen);

  workload::UpdateStreamConfig uc;
  uc.num_batches = 6;
  uc.ops_per_batch = 1000;
  const core::UpdateLog updates = workload::GenerateUpdateStream(yago, uc);

  core::DualStoreConfig cfg;
  cfg.num_shards = 2;
  cfg.graph_capacity_triples = yago.num_triples() / 4;

  persist::DurabilityOptions opts;
  opts.dir = dir;
  opts.sync_policy = persist::SyncPolicy::kEveryBatch;

  std::printf("durability e2e in %s:\n", dir.c_str());
  std::vector<std::string> live_rows;
  {
    core::OnlineStore store(yago, cfg, opts);
    if (!store.poison_status().ok()) {
      std::fprintf(stderr, "%s\n", store.poison_status().ToString().c_str());
      return 1;
    }
    for (uint64_t k = 0; k < updates.size(); ++k) {
      if (k == 3) {
        Status s = store.SaveSnapshot();
        if (!s.ok()) {
          std::fprintf(stderr, "%s\n", s.ToString().c_str());
          return 1;
        }
        std::printf("  checkpoint at batch %llu (snapshot + WAL rotation)\n",
                    static_cast<unsigned long long>(k));
      }
      auto r = store.ApplyUpdates(updates.at(k));
      if (!r.ok()) {
        std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
        return 1;
      }
    }
    live_rows = CanonRows(store);
    std::printf("  ingested %llu batches; batches 3..5 live only in the WAL\n",
                static_cast<unsigned long long>(updates.size()));
    std::printf("  -- simulated kill (no final snapshot) --\n");
  }

  core::OnlineStore::RecoveryReport report;
  auto recovered = core::OnlineStore::Recover(cfg, opts, &report);
  if (!recovered.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 recovered.status().ToString().c_str());
    return 1;
  }
  PrintReport(report);

  // Zero-diff verification, twice over: against the killed store's final
  // rows, and against an independent serial re-run of the same stream.
  if (CanonRows(**recovered) != live_rows) {
    std::fprintf(stderr, "FAIL: recovered rows differ from the live store\n");
    return 1;
  }
  core::OnlineStore oracle(yago, cfg);
  for (uint64_t k = 0; k < updates.size(); ++k) {
    auto r = oracle.ApplyUpdates(updates.at(k));
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
  }
  if (CanonRows(**recovered) != CanonRows(oracle)) {
    std::fprintf(stderr, "FAIL: recovered rows differ from a serial re-run\n");
    return 1;
  }
  std::printf("  verified: recovered rows == killed store == serial re-run "
              "(%llu rows)\n",
              static_cast<unsigned long long>(live_rows.size()));
  std::printf("  re-run with --resume to recover again from this directory\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  double slow_query_ms = 0.0;
  std::string snapshot_dir;
  bool resume = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--slow-query-ms") == 0 && i + 1 < argc) {
      slow_query_ms = std::atof(argv[i + 1]);
    } else if (std::strncmp(argv[i], "--slow-query-ms=", 16) == 0) {
      slow_query_ms = std::atof(argv[i] + 16);
    } else if (std::strcmp(argv[i], "--snapshot-dir") == 0 && i + 1 < argc) {
      snapshot_dir = argv[i + 1];
      ++i;
    } else if (std::strncmp(argv[i], "--snapshot-dir=", 15) == 0) {
      snapshot_dir = argv[i] + 15;
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    }
  }
  if (resume && snapshot_dir.empty()) {
    std::fprintf(stderr, "--resume requires --snapshot-dir DIR\n");
    return 1;
  }
  if (!snapshot_dir.empty()) {
    return resume ? ResumeDemo(snapshot_dir) : DurabilityDemo(snapshot_dir);
  }

  // The whole point of this example is the observability surface; make
  // sure it is on even if the environment disabled it.
  auto& reg = telemetry::MetricsRegistry::Global();
  reg.set_enabled(true);

  workload::YagoConfig gen;
  gen.target_triples = 60000;
  rdf::Dataset yago = workload::GenerateYago(gen);
  std::printf("knowledge graph: %llu triples, %zu predicates\n",
              static_cast<unsigned long long>(yago.num_triples()),
              yago.num_predicates());

  workload::WorkloadBuilder builder(&yago);
  workload::WorkloadOptions wopt;
  auto w = builder.Build("yago", workload::YagoTemplates(), wopt);
  if (!w.ok()) {
    std::fprintf(stderr, "%s\n", w.status().ToString().c_str());
    return 1;
  }

  // A live ingestion stream: five update batches, applied concurrently
  // with the five query windows (one batch per window).
  workload::UpdateStreamConfig uc;
  uc.num_batches = 5;
  uc.ops_per_batch = 2000;
  const core::UpdateLog updates = workload::GenerateUpdateStream(yago, uc);

  uint64_t store_bytes = 0;
  auto stale = RunOnce(yago, *w, core::UpdateLog{}, nullptr);

  // Registry snapshots bracketing each window of the fresh run: snaps[0]
  // is the pre-run state, snaps[i + 1] lands right after window i while
  // the store is quiesced. Row i of the table is snaps[i+1] - snaps[i].
  std::vector<std::map<std::string, double>> snaps;
  snaps.push_back(reg.SnapshotValues());
  auto fresh = RunOnce(yago, *w, updates, &store_bytes,
                       [&snaps, &reg](int) {
                         snaps.push_back(reg.SnapshotValues());
                       });
  if (!stale.ok() || !fresh.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!stale.ok() ? stale : fresh).status().ToString().c_str());
    return 1;
  }
  std::printf("sharded store: 4 predicate shards, %.2f MiB single copy "
              "(snapshots share nodes)\n\n",
              static_cast<double>(store_bytes) / (1024.0 * 1024.0));

  std::printf("per-window table (from telemetry registry deltas):\n");
  std::printf("%7s %12s %12s %8s %8s %8s %8s\n", "window", "TTI s",
              "update s", "ins", "del", "drift", "retuned");
  for (size_t i = 0; i + 1 < snaps.size(); ++i) {
    const std::map<std::string, double>& a = snaps[i];
    const std::map<std::string, double>& b = snaps[i + 1];
    const double tti_us =
        Val(b, "online.window.tti_sim_us.sum") -
        Val(a, "online.window.tti_sim_us.sum");
    const double upd_us =
        Val(b, "online.window.update_sim_us.sum") -
        Val(a, "online.window.update_sim_us.sum");
    const double ins = Val(b, "store.triples_inserted") -
                       Val(a, "store.triples_inserted");
    const double del = Val(b, "store.triples_deleted") -
                       Val(a, "store.triples_deleted");
    const double retunes =
        Val(b, "online.retunes") - Val(a, "online.retunes");
    const double drift = Val(b, "online.max_drift");  // gauge: last window
    std::printf("%7zu %12.4f %12.4f %8.0f %8.0f %7.0f%% %8s\n", i + 1,
                tti_us * 1e-6, upd_us * 1e-6, ins, del, 100.0 * drift,
                retunes > 0 ? "yes" : "-");
  }

  const double stale_tti = stale->TotalTtiMicros() * 1e-6;
  const double fresh_tti = fresh->TotalTtiMicros() * 1e-6;
  std::printf("\nstale store  (no updates): TTI %.4f s\n", stale_tti);
  std::printf("fresh store (%llu ins, %llu del): TTI %.4f s (%+.1f%%), "
              "apply %.4f s, re-tuning %.4f s (%d retunes)\n",
              static_cast<unsigned long long>(fresh->TotalInserted()),
              static_cast<unsigned long long>(fresh->TotalDeleted()),
              fresh_tti,
              stale_tti > 0 ? 100.0 * (fresh_tti - stale_tti) / stale_tti : 0,
              fresh->TotalUpdateMicros() * 1e-6,
              fresh->TotalTuningMicros() * 1e-6, fresh->Retunes());
  std::printf("queries never block on the stream: readers pin an epoch and\n"
              "traverse an immutable snapshot while appliers build the next\n"
              "one; the TTI delta is changed knowledge and re-tuning, not\n"
              "contention.\n");

  if (slow_query_ms > 0) DemoSlowQueryLog(yago, slow_query_ms);

  // Freshness must have been real: the stream landed facts, and the
  // store absorbed them without poisoning any shard. The registry must
  // agree with the returned metrics — it watched the same run.
  const auto& last = snaps.back();
  const double reg_ins = Val(last, "store.triples_inserted") -
                         Val(snaps.front(), "store.triples_inserted");
  const bool ok = fresh->TotalInserted() > 0 && fresh->TotalDeleted() > 0 &&
                  reg_ins == static_cast<double>(fresh->TotalInserted());
  return ok ? 0 : 1;
}
