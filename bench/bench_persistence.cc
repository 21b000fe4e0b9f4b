// Durability tier benchmarks + snapshot format compatibility harness.
//
// Not a figure of the paper — the paper's store is rebuilt from the
// dataset on every run. This bench measures the crash-recovery tier this
// reproduction adds on top (src/persist/): snapshot save/load wall time
// and byte footprint, WAL append throughput under each fsync policy, and
// end-to-end recovery (snapshot load + WAL replay).
//
// Deterministic columns (guarded by ci/check_bench_regression.py against
// bench/baselines/persistence.json): snapshot bytes, bytes/triple, WAL
// bytes and record counts, replayed batches, recovered rows. Wall-clock
// columns end in `_ms`/`_us` and are ignored by the guard.
//
// Compatibility harness:
//   --write-fixture DIR   writes a golden fixture (snapshot + WAL +
//                         expected.json) from a tiny fixed dataset that
//                         does NOT scale with DSKG_BENCH_SCALE.
//   --check-compat DIR    recovers from a COPY of the fixture and prints
//                         one machine-readable line:
//                           COMPAT {"ok": ..., ...}
//                         ci/check_snapshot_compat.py runs this against
//                         the committed fixture in tests/persist/golden/
//                         so a format change that breaks old snapshots
//                         fails CI instead of failing a user.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/online_store.h"
#include "persist/crc32c.h"
#include "persist/file.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "relstore/triple_table.h"
#include "workload/update_stream.h"

namespace dskg::bench {
namespace {

double WallMillis(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::string ScratchDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("dskg_bench_" + name))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Canonical row digest: CRC32C over the sorted decoded triples of the
/// store's table. Two stores with the same digest hold identical logical
/// content.
uint32_t RowsCrc(const core::OnlineStore& store) {
  const rdf::Dictionary& dict = store.active().dict();
  std::vector<std::string> rows;
  rows.reserve(store.active().table().size());
  CostMeter meter;
  const Status s = store.active().table().ScanPattern(
      relstore::BoundPattern{}, &meter, [&](const rdf::Triple& t) {
        rows.push_back(std::string(dict.TermOf(t.subject)) + "|" +
                       std::string(dict.TermOf(t.predicate)) + "|" +
                       std::string(dict.TermOf(t.object)) + "\n");
        return true;
      });
  if (!s.ok()) {
    std::fprintf(stderr, "row scan failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  std::sort(rows.begin(), rows.end());
  uint32_t crc = 0;
  for (const std::string& r : rows) {
    crc = persist::Crc32cExtend(crc, r.data(), r.size());
  }
  return crc;
}

// ---- snapshot save/load ----------------------------------------------------

void RunSnapshotBench(JsonReporter* json) {
  std::printf("Snapshot save/load (YAGO at DSKG_BENCH_SCALE=%.2f)\n\n",
              ScaleFactor());
  Rule();
  std::printf("%12s %12s %12s %14s %12s %12s\n", "triples", "save ms",
              "load ms", "snapshot B", "B/triple", "rows crc");
  Rule();

  rdf::Dataset ds = MakeDataset(WorkloadKind::kYago);
  core::DualStoreConfig cfg;
  cfg.num_shards = 2;
  cfg.graph_capacity_triples = DefaultGraphBudget(ds);
  core::OnlineStore store(ds, cfg);

  const std::string dir = ScratchDir("snapshot");
  const std::string path = dir + "/" + persist::SnapshotFileName(0);

  const auto save0 = std::chrono::steady_clock::now();
  Status s = persist::SaveStoreSnapshot(store.active(), /*watermark=*/0, path,
                                        nullptr);
  const double save_ms = WallMillis(save0);
  if (!s.ok()) {
    std::fprintf(stderr, "snapshot save failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  uint64_t bytes = 0;
  if (auto sz = persist::FileSize(path); sz.ok()) bytes = *sz;

  const auto load0 = std::chrono::steady_clock::now();
  auto loaded = persist::LoadStoreSnapshot(path);
  const double load_ms = WallMillis(load0);
  if (!loaded.ok()) {
    std::fprintf(stderr, "snapshot load failed: %s\n",
                 loaded.status().ToString().c_str());
    std::abort();
  }

  // The rows the image restores: its table section, deserialized the way
  // recovery does it.
  relstore::TripleTable restored(loaded->num_shards);
  ByteReader table_reader(loaded->table_payload);
  s = restored.DeserializeFrom(&table_reader);
  if (!s.ok()) {
    std::fprintf(stderr, "table restore failed: %s\n", s.ToString().c_str());
    std::abort();
  }

  const uint64_t triples = ds.num_triples();
  const double per_triple =
      triples > 0 ? static_cast<double>(bytes) / static_cast<double>(triples)
                  : 0;
  const uint32_t crc = RowsCrc(store);
  std::printf("%12llu %12.2f %12.2f %14llu %12.2f %12u\n",
              static_cast<unsigned long long>(triples), save_ms, load_ms,
              static_cast<unsigned long long>(bytes), per_triple, crc);
  if (json != nullptr) {
    json->Row("snapshot",
              {{"triples", triples},
               {"snapshot_bytes", bytes},
               {"bytes_per_triple", per_triple},
               {"loaded_triples", restored.size()},
               {"rows_crc", static_cast<uint64_t>(crc)},
               {"save_ms", save_ms},
               {"load_ms", load_ms}});
  }
  std::printf("\n");
}

// ---- WAL throughput per sync policy ----------------------------------------

void RunWalBench(JsonReporter* json) {
  std::printf("WAL append throughput per fsync policy\n\n");
  Rule();
  std::printf("%14s %10s %12s %12s %14s\n", "policy", "records", "ops",
              "append ms", "wal bytes");
  Rule();

  rdf::Dataset ds = MakeDataset(WorkloadKind::kYago);
  workload::UpdateStreamConfig uc;
  uc.seed = 17;
  uc.num_batches = static_cast<int>(Scaled(200));
  uc.ops_per_batch = 50;
  const core::UpdateLog log = workload::GenerateUpdateStream(ds, uc);

  struct PolicyRow {
    const char* name;
    persist::SyncPolicy policy;
  };
  const PolicyRow policies[] = {
      {"every-batch", persist::SyncPolicy::kEveryBatch},
      {"every-8", persist::SyncPolicy::kEveryN},
      {"interval", persist::SyncPolicy::kInterval},
      {"never", persist::SyncPolicy::kNever},
  };
  for (const PolicyRow& p : policies) {
    const std::string dir = ScratchDir(std::string("wal_") + p.name);
    persist::DurabilityOptions opts;
    opts.dir = dir;
    opts.sync_policy = p.policy;
    auto w = persist::WalWriter::Open(opts, 0);
    if (!w.ok()) {
      std::fprintf(stderr, "wal open failed: %s\n",
                   w.status().ToString().c_str());
      std::abort();
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (uint64_t k = 0; k < log.size(); ++k) {
      Status s = (*w)->Append(log.at(k), k);
      if (!s.ok()) {
        std::fprintf(stderr, "wal append failed: %s\n", s.ToString().c_str());
        std::abort();
      }
    }
    Status closed = (*w)->Close();
    const double append_ms = WallMillis(t0);
    if (!closed.ok()) {
      std::fprintf(stderr, "wal close failed: %s\n",
                   closed.ToString().c_str());
      std::abort();
    }
    uint64_t bytes = 0;
    if (auto sz = persist::FileSize(dir + "/" + persist::WalSegmentName(0));
        sz.ok()) {
      bytes = *sz;
    }
    std::printf("%14s %10llu %12llu %12.2f %14llu\n", p.name,
                static_cast<unsigned long long>(log.size()),
                static_cast<unsigned long long>(log.TotalOps()), append_ms,
                static_cast<unsigned long long>(bytes));
    if (json != nullptr) {
      json->Row("wal", {{"policy", p.name},
                        {"records", log.size()},
                        {"ops", log.TotalOps()},
                        {"wal_bytes", bytes},
                        {"append_ms", append_ms}});
    }
  }
  std::printf("\n");
}

// ---- end-to-end recovery ---------------------------------------------------

void RunRecoveryBench(JsonReporter* json) {
  std::printf("End-to-end recovery (snapshot load + WAL replay)\n\n");
  Rule();
  std::printf("%12s %12s %14s %14s %12s\n", "batches", "replayed",
              "recover ms", "rows", "rows crc");
  Rule();

  rdf::Dataset ds = MakeDataset(WorkloadKind::kYago);
  core::DualStoreConfig cfg;
  cfg.num_shards = 2;
  cfg.graph_capacity_triples = DefaultGraphBudget(ds);

  workload::UpdateStreamConfig uc;
  uc.seed = 31;
  uc.num_batches = 10;
  uc.ops_per_batch = static_cast<int>(Scaled(300));
  const core::UpdateLog log = workload::GenerateUpdateStream(ds, uc);

  persist::DurabilityOptions opts;
  opts.dir = ScratchDir("recovery");
  opts.sync_policy = persist::SyncPolicy::kEveryBatch;

  uint32_t live_crc = 0;
  {
    core::OnlineStore store(ds, cfg, opts);
    if (!store.poison_status().ok()) {
      std::fprintf(stderr, "durable store failed: %s\n",
                   store.poison_status().ToString().c_str());
      std::abort();
    }
    for (uint64_t k = 0; k < log.size(); ++k) {
      auto r = store.ApplyUpdates(log.at(k));
      if (!r.ok()) {
        std::fprintf(stderr, "apply failed: %s\n",
                     r.status().ToString().c_str());
        std::abort();
      }
    }
    live_crc = RowsCrc(store);
    // Dies here without a final snapshot: every batch replays from WAL.
  }

  core::OnlineStore::RecoveryReport report;
  const auto t0 = std::chrono::steady_clock::now();
  auto recovered = core::OnlineStore::Recover(cfg, opts, &report);
  const double recover_ms = WallMillis(t0);
  if (!recovered.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 recovered.status().ToString().c_str());
    std::abort();
  }
  const uint32_t crc = RowsCrc(**recovered);
  const uint64_t rows = (*recovered)->active().table().size();
  if (crc != live_crc) {
    std::fprintf(stderr, "recovered rows diverge from the live store\n");
    std::abort();
  }
  std::printf("%12llu %12llu %14.2f %14llu %12u\n",
              static_cast<unsigned long long>(log.size()),
              static_cast<unsigned long long>(report.replayed_batches),
              recover_ms, static_cast<unsigned long long>(rows), crc);
  if (json != nullptr) {
    json->Row("recovery", {{"batches", log.size()},
                           {"replayed_batches", report.replayed_batches},
                           {"recovered_rows", rows},
                           {"rows_crc", static_cast<uint64_t>(crc)},
                           {"zero_diff", 1},
                           {"recover_ms", recover_ms}});
  }
  std::printf("\n");
}

// ---- compatibility fixture -------------------------------------------------

/// Tiny fixed dataset for the golden fixture — deliberately independent
/// of DSKG_BENCH_SCALE so the committed bytes never depend on the
/// environment.
rdf::Dataset FixtureDataset() {
  rdf::Dataset ds(1);
  for (int i = 0; i < 40; ++i) {
    ds.Add("s" + std::to_string(i % 7), "p" + std::to_string(i % 3),
           "o" + std::to_string(i));
  }
  return ds;
}

core::UpdateLog FixtureLog() {
  core::UpdateLog log;
  for (int b = 0; b < 3; ++b) {
    core::UpdateBatch batch;
    for (int i = 0; i < 10; ++i) {
      const int v = b * 10 + i;
      if (i % 3 == 0) {
        batch.ops.push_back(core::UpdateOp::Delete(
            "s" + std::to_string(v % 7), "p" + std::to_string(v % 3),
            "o" + std::to_string(v)));
      } else {
        batch.ops.push_back(core::UpdateOp::Insert(
            "n" + std::to_string(v), "p" + std::to_string(v % 3),
            "m" + std::to_string(v)));
      }
    }
    log.Append(std::move(batch));
  }
  return log;
}

core::DualStoreConfig FixtureConfig() {
  core::DualStoreConfig cfg;
  cfg.num_shards = 1;
  cfg.graph_capacity_triples = 64;
  return cfg;
}

int WriteFixture(const std::string& dir) {
  std::filesystem::remove_all(dir);
  rdf::Dataset ds = FixtureDataset();
  const core::UpdateLog log = FixtureLog();

  persist::DurabilityOptions opts;
  opts.dir = dir;
  opts.sync_policy = persist::SyncPolicy::kEveryBatch;

  uint32_t crc = 0;
  uint64_t rows = 0;
  {
    core::OnlineStore store(ds, FixtureConfig(), opts);
    if (!store.poison_status().ok()) {
      std::fprintf(stderr, "fixture store failed: %s\n",
                   store.poison_status().ToString().c_str());
      return 1;
    }
    for (uint64_t k = 0; k < log.size(); ++k) {
      auto r = store.ApplyUpdates(log.at(k));
      if (!r.ok()) {
        std::fprintf(stderr, "fixture apply failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
    }
    crc = RowsCrc(store);
    rows = store.active().table().size();
    // Dies WITHOUT a final snapshot: the fixture exercises both the
    // snapshot reader (snapshot-0) and the WAL replay path (3 records).
  }

  auto f = persist::OpenWritable(dir + "/expected.json", /*truncate=*/true);
  if (!f.ok()) return 1;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"format_version\": %u, \"rows\": %llu, \"rows_crc\": %u, "
                "\"wal_batches\": %llu}\n",
                persist::kSnapshotVersion, static_cast<unsigned long long>(rows),
                crc, static_cast<unsigned long long>(log.size()));
  if (!(*f)->Append(buf).ok() || !(*f)->Close().ok()) return 1;
  std::printf("fixture written to %s (rows=%llu crc=%u)\n", dir.c_str(),
              static_cast<unsigned long long>(rows),
              static_cast<unsigned long long>(crc));
  return 0;
}

/// Pulls `"key": <number>` out of a one-line JSON file (fixture
/// expected.json only — not a general parser).
bool JsonNumber(const std::string& text, const std::string& key,
                uint64_t* out) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) return false;
  return std::sscanf(text.c_str() + pos + needle.size(), " %llu",
                     reinterpret_cast<unsigned long long*>(out)) == 1;
}

int CheckCompat(const std::string& fixture_dir) {
  // Recover from a COPY: Recover checkpoints into its directory, and the
  // committed golden fixture must stay pristine.
  const std::string work = ScratchDir("compat");
  auto names = persist::ListDir(fixture_dir);
  if (!names.ok()) {
    std::printf("COMPAT {\"ok\": false, \"error\": \"cannot list fixture\"}\n");
    return 1;
  }
  std::string expected_text;
  for (const std::string& name : *names) {
    auto data = persist::ReadFileToString(fixture_dir + "/" + name);
    if (!data.ok()) continue;
    if (name == "expected.json") {
      expected_text = *data;
      continue;
    }
    auto f = persist::OpenWritable(work + "/" + name, /*truncate=*/true);
    if (!f.ok() || !(*f)->Append(*data).ok() || !(*f)->Close().ok()) {
      std::printf("COMPAT {\"ok\": false, \"error\": \"copy failed\"}\n");
      return 1;
    }
  }
  uint64_t want_rows = 0, want_crc = 0, want_batches = 0;
  if (!JsonNumber(expected_text, "rows", &want_rows) ||
      !JsonNumber(expected_text, "rows_crc", &want_crc) ||
      !JsonNumber(expected_text, "wal_batches", &want_batches)) {
    std::printf("COMPAT {\"ok\": false, \"error\": \"bad expected.json\"}\n");
    return 1;
  }

  persist::DurabilityOptions opts;
  opts.dir = work;
  core::OnlineStore::RecoveryReport report;
  auto recovered =
      core::OnlineStore::Recover(FixtureConfig(), opts, &report);
  if (!recovered.ok()) {
    std::printf("COMPAT {\"ok\": false, \"error\": \"%s\"}\n",
                recovered.status().ToString().c_str());
    return 1;
  }
  const uint64_t rows = (*recovered)->active().table().size();
  const uint32_t crc = RowsCrc(**recovered);
  const bool ok = rows == want_rows && crc == want_crc &&
                  report.replayed_batches == want_batches &&
                  report.wal_status.ok() && !report.dropped_tail;
  std::printf(
      "COMPAT {\"ok\": %s, \"rows\": %llu, \"want_rows\": %llu, "
      "\"rows_crc\": %u, \"want_crc\": %llu, \"replayed\": %llu, "
      "\"want_replayed\": %llu}\n",
      ok ? "true" : "false", static_cast<unsigned long long>(rows),
      static_cast<unsigned long long>(want_rows), crc,
      static_cast<unsigned long long>(want_crc),
      static_cast<unsigned long long>(report.replayed_batches),
      static_cast<unsigned long long>(want_batches));
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dskg::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--write-fixture" && i + 1 < argc) {
      return dskg::bench::WriteFixture(argv[i + 1]);
    }
    if (arg.rfind("--write-fixture=", 0) == 0) {
      return dskg::bench::WriteFixture(arg.substr(16));
    }
    if (arg == "--check-compat" && i + 1 < argc) {
      return dskg::bench::CheckCompat(argv[i + 1]);
    }
    if (arg.rfind("--check-compat=", 0) == 0) {
      return dskg::bench::CheckCompat(arg.substr(15));
    }
  }
  dskg::bench::JsonReporter json(argc, argv, "bench_persistence");
  dskg::bench::RunSnapshotBench(json.enabled() ? &json : nullptr);
  dskg::bench::RunWalBench(json.enabled() ? &json : nullptr);
  dskg::bench::RunRecoveryBench(json.enabled() ? &json : nullptr);
  return 0;
}
