// Online-update subsystem tests.
//
// The headline property (ISSUE acceptance): queries running concurrently
// with `OnlineStore::ApplyUpdates` return results identical to *some*
// serial apply-then-query ordering — snapshot-per-batch consistency — on
// both the hand-checkable SmallPeopleGraph and a generated YAGO graph.
// The concurrent tests are also the ThreadSanitizer CI job's main load.
//
// Below that, per-op unit tests pin the cross-structure consistency
// contract on every write path (the serial `DualStore::ApplyUpdates` and
// `OnlineStore::ApplyUpdates` at 1 and 2 shards): triple table + all three
// indexes, per-predicate statistics, dictionary usage counts, resident
// graph partitions (maintained, or evicted on overflow), and the
// materialized-view catalog.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "core/dotil.h"
#include "core/dual_store.h"
#include "core/online_store.h"
#include "core/runner.h"
#include "core/session.h"
#include "core/update.h"
#include "sparql/parser.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/templates.h"
#include "workload/update_stream.h"
#include "workload/workload.h"

namespace dskg::core {
namespace {

using rdf::TermId;
using sparql::BindingTable;
using sparql::Parser;
using sparql::Query;

// ---- helpers --------------------------------------------------------------

Query Parse(const char* text) {
  auto q = Parser::Parse(text);
  EXPECT_TRUE(q.ok()) << q.status();
  return std::move(q).ValueOrDie();
}

/// Runs `q` against the snapshot `guard` pinned. The caller keeps the
/// guard alive past the call, so the rows can be decoded through the
/// same pin.
Result<QueryExecution> ExecuteOn(const OnlineStore::ReadGuard& guard,
                                 const Query& q) {
  DualStore::SnapshotScope scope(&guard.snapshot());
  DSKG_ASSIGN_OR_RETURN(PreparedPlan plan, guard->Prepare(q));
  return guard->ExecutePlan(plan, nullptr);
}

/// Order-insensitive, id-free canonical form of a result (rows decoded
/// through the dictionary that produced them, then sorted).
std::string Canon(const BindingTable& t, const rdf::Dictionary& dict) {
  std::vector<std::string> rows;
  rows.reserve(t.NumRows());
  for (const auto row : t.Rows()) {
    std::string r;
    for (TermId id : row) {
      r += dict.TermOf(id);
      r += '|';
    }
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const std::string& c : t.columns) {
    out += c;
    out += ',';
  }
  out += '#';
  for (const std::string& r : rows) {
    out += r;
    out += ';';
  }
  return out;
}

/// Per-query canonical results of every batch-prefix snapshot: entry k
/// holds the results after serially applying the first k batches to a
/// fresh store. This is the "some serial ordering" oracle.
void BuildSnapshotOracle(const rdf::Dataset& base, const DualStoreConfig& cfg,
                         const std::vector<Query>& queries,
                         const UpdateLog& log,
                         const std::vector<std::string>& resident_partitions,
                         std::vector<std::vector<std::string>>* oracle) {
  rdf::Dataset ds = base.Clone();
  DualStore store(&ds, cfg);
  CostMeter scratch;
  for (const std::string& p : resident_partitions) {
    const TermId id = ds.dict().Lookup(p);
    ASSERT_NE(id, rdf::kInvalidTermId) << p;
    ASSERT_TRUE(store.MigratePartition(id, &scratch).ok()) << p;
  }
  Session session(&store);
  for (uint64_t k = 0; k <= log.size(); ++k) {
    std::vector<std::string> per_query;
    for (const Query& q : queries) {
      auto exec = session.Execute(q.ToString());
      ASSERT_TRUE(exec.ok()) << exec.status();
      per_query.push_back(Canon(exec->result, store.dict()));
    }
    oracle->push_back(std::move(per_query));
    if (k < log.size()) {
      auto applied = store.ApplyUpdates(log.at(k), &scratch);
      ASSERT_TRUE(applied.ok()) << applied.status();
    }
  }
}

/// Runs readers hammering `store` with `queries` while this thread (the
/// single injector) publishes `log` through `num_shards` appliers, then
/// asserts every observed result matches some batch-prefix snapshot in
/// `oracle` (built once by the caller from the serial store).
void RunConcurrentShardedPhase(
    const rdf::Dataset& base, DualStoreConfig cfg, int num_shards,
    const std::vector<Query>& queries, const UpdateLog& log,
    const std::vector<std::string>& resident_partitions,
    const std::vector<std::vector<std::string>>& oracle) {
  SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
  cfg.num_shards = num_shards;
  OnlineStore store(base, cfg);
  ASSERT_EQ(store.num_shards(), num_shards);
  if (!resident_partitions.empty()) {
    ASSERT_TRUE(store
                    .TuneExclusive([&](DualStore* s) {
                      CostMeter scratch;
                      for (const std::string& p : resident_partitions) {
                        DSKG_RETURN_NOT_OK(s->MigratePartition(
                            s->dict().Lookup(p), &scratch));
                      }
                      return Status::OK();
                    })
                    .ok());
  }

  struct Observation {
    size_t query = 0;
    std::string canon;
  };
  std::atomic<bool> stop{false};
  const int kReaders = 4;
  std::vector<std::vector<Observation>> observed(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      size_t qi = static_cast<size_t>(r);  // staggered start
      while (!stop.load(std::memory_order_acquire)) {
        qi = (qi + 1) % queries.size();
        // The query reads the guard's pinned snapshot — the only read
        // mode that is safe while shard appliers run. The guard stays
        // alive through result decoding, so the epoch pin also protects
        // the dictionary spans the rows point into.
        OnlineStore::ReadGuard guard = store.Read();
        auto exec = ExecuteOn(guard, queries[qi]);
        if (!exec.ok()) {
          observed[r].push_back({qi, "ERROR: " + exec.status().ToString()});
          return;
        }
        observed[r].push_back(
            {qi, Canon(exec->result, guard.store().dict())});
      }
    });
  }

  CostMeter update_meter;
  for (uint64_t k = 0; k < log.size(); ++k) {
    auto applied = store.ApplyUpdates(log.at(k), &update_meter);
    ASSERT_TRUE(applied.ok()) << applied.status();
    // Give readers a slice of every snapshot (not required for
    // correctness — only for coverage of intermediate prefixes).
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  size_t total = 0;
  for (int r = 0; r < kReaders; ++r) {
    for (const Observation& ob : observed[r]) {
      ++total;
      const bool matches_some_prefix = [&] {
        for (uint64_t k = 0; k <= log.size(); ++k) {
          if (oracle[k][ob.query] == ob.canon) return true;
        }
        return false;
      }();
      ASSERT_TRUE(matches_some_prefix)
          << "reader " << r << " query " << ob.query
          << " saw a result matching no serial snapshot:\n  " << ob.canon;
    }
  }
  EXPECT_GT(total, 0u);

  // Final convergence: the published snapshot equals the all-batches
  // serial state, and stays equal across an empty-batch publish (which
  // still runs the full capture/publish/drain/reclaim cycle).
  for (int publish = 0; publish < 2; ++publish) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      OnlineStore::ReadGuard guard = store.Read();
      auto exec = ExecuteOn(guard, queries[qi]);
      ASSERT_TRUE(exec.ok()) << exec.status();
      EXPECT_EQ(Canon(exec->result, guard.store().dict()),
                oracle[log.size()][qi])
          << "query " << qi << " after " << publish << " extra publishes";
    }
    ASSERT_TRUE(store.ApplyUpdates(UpdateBatch{}, &update_meter).ok());
  }

  // Crash-free drain: every batch completed its post-publish
  // reclamation, so no copy-on-write garbage is left pending and the
  // store is not poisoned.
  EXPECT_TRUE(store.poison_status().ok());
  EXPECT_EQ(store.active().table().PendingNodes(), 0u);
  EXPECT_EQ(store.active().graph().PendingRetired(), 0u);
  EXPECT_EQ(store.applied_batches(), log.size() + 2);
}

/// Full matrix: one serial prefix oracle, then the concurrent phase at
/// every requested shard count (the same oracle must hold at each — the
/// injector resolves ids in op order, so shard routing is invisible).
void RunConcurrentEquivalence(
    const rdf::Dataset& base, const DualStoreConfig& cfg,
    const std::vector<Query>& queries, const UpdateLog& log,
    const std::vector<std::string>& resident_partitions = {},
    const std::vector<int>& shard_counts = {1, 2, 4}) {
  std::vector<std::vector<std::string>> oracle;
  BuildSnapshotOracle(base, cfg, queries, log, resident_partitions, &oracle);
  ASSERT_EQ(oracle.size(), log.size() + 1);
  for (int n : shard_counts) {
    RunConcurrentShardedPhase(base, cfg, n, queries, log,
                              resident_partitions, oracle);
  }
}

// ---- the update rule on every write path ---------------------------------

/// The serial store (`num_shards` 0) or an OnlineStore of `num_shards`
/// shards, built over `ds` with `cfg`: the per-op and refcount cases run
/// on every write path.
class AnyStore {
 public:
  AnyStore(rdf::Dataset* ds, int num_shards, DualStoreConfig cfg = {}) {
    if (num_shards == 0) {
      serial_ = std::make_unique<DualStore>(ds, cfg);
      session_ = std::make_unique<Session>(serial_.get());
    } else {
      cfg.num_shards = num_shards;
      online_ = std::make_unique<OnlineStore>(*ds, cfg);
      session_ = std::make_unique<Session>(online_.get());
    }
  }

  Result<UpdateResult> Apply(const UpdateBatch& batch,
                             CostMeter* meter = nullptr) {
    return serial_ != nullptr ? serial_->ApplyUpdates(batch, meter)
                              : online_->ApplyUpdates(batch, meter);
  }

  /// Makes `predicate`'s partition graph-resident (online: inside an
  /// exclusive tuning window).
  Status Migrate(const char* predicate, CostMeter* meter) {
    if (serial_ != nullptr) {
      return serial_->MigratePartition(Id(predicate), meter);
    }
    return online_->TuneExclusive([&](DualStore* s) {
      return s->MigratePartition(Id(predicate), meter);
    });
  }

  Result<QueryExecution> Execute(std::string_view text) {
    return session_->Execute(text);
  }

  const DualStore& store() const {
    return serial_ != nullptr ? *serial_ : online_->active();
  }

  TermId Id(const char* term) const { return store().dict().Lookup(term); }

  bool Stored(const char* s, const char* p, const char* o) const {
    CostMeter meter;
    return store().table().Contains({Id(s), Id(p), Id(o)}, &meter);
  }

 private:
  std::unique_ptr<DualStore> serial_;
  std::unique_ptr<OnlineStore> online_;
  std::unique_ptr<Session> session_;  // destroyed before its store
};

std::string PathName(int num_shards) {
  return num_shards == 0
             ? "serial DualStore"
             : "OnlineStore, " + std::to_string(num_shards) + " shards";
}

/// The per-op cases' graph budget: room for SmallPeopleGraph's 4-triple
/// `likes` partition and a little more.
DualStoreConfig SmallGraphConfig() {
  DualStoreConfig cfg;
  cfg.graph_capacity_triples = 8;
  return cfg;
}

TEST(UpdateRuleTest, InsertAndDeleteUpdateTheTable) {
  for (int shards : {0, 1, 2}) {
    SCOPED_TRACE(PathName(shards));
    rdf::Dataset ds = testing::SmallPeopleGraph();
    AnyStore s(&ds, shards, SmallGraphConfig());
    UpdateBatch batch;
    batch.ops.push_back(UpdateOp::Insert("eve", "bornIn", "berlin"));
    batch.ops.push_back(UpdateOp::Insert("alice", "bornIn", "berlin"));  // dup
    batch.ops.push_back(UpdateOp::Delete("dave", "likes", "film2"));
    batch.ops.push_back(UpdateOp::Delete("zed", "foo", "bar"));  // unknown
    CostMeter meter;
    auto res = s.Apply(batch, &meter);
    ASSERT_TRUE(res.ok()) << res.status();
    EXPECT_EQ(res->inserted, 1u);
    EXPECT_EQ(res->deleted, 1u);
    EXPECT_EQ(s.store().table().size(), 14u);  // 14 loaded, +1 -1
    EXPECT_EQ(meter.count(Op::kInsertTuple), 1u);
    EXPECT_EQ(meter.count(Op::kRemoveTuple), 1u);

    auto gone = s.Execute("SELECT ?f WHERE { dave likes ?f . }");
    ASSERT_TRUE(gone.ok());
    EXPECT_TRUE(gone->result.empty());
    auto there = s.Execute("SELECT ?p WHERE { ?p bornIn berlin . }");
    ASSERT_TRUE(there.ok());
    EXPECT_EQ(there->result.NumRows(), 3u);  // alice, bob, eve
  }
}

TEST(UpdateRuleTest, StatsDecayExactlyOnDelete) {
  for (int shards : {0, 1, 2}) {
    SCOPED_TRACE(PathName(shards));
    rdf::Dataset ds = testing::SmallPeopleGraph();
    AnyStore s(&ds, shards, SmallGraphConfig());
    const TermId born_in = s.Id("bornIn");
    const auto before = s.store().table().StatsOf(born_in);
    EXPECT_EQ(before.num_triples, 4u);
    EXPECT_EQ(before.num_distinct_objects, 2u);  // berlin, paris

    UpdateBatch batch;
    batch.ops.push_back(UpdateOp::Delete("carol", "bornIn", "paris"));
    batch.ops.push_back(UpdateOp::Delete("dave", "bornIn", "paris"));
    ASSERT_TRUE(s.Apply(batch).ok());

    const auto after = s.store().table().StatsOf(born_in);
    EXPECT_EQ(after.num_triples, 2u);
    EXPECT_EQ(after.num_distinct_subjects, 2u);  // alice, bob
    EXPECT_EQ(after.num_distinct_objects, 1u);   // paris fully gone
  }
}

TEST(UpdateRuleTest, ResidentGraphPartitionIsMaintained) {
  for (int shards : {0, 1, 2}) {
    SCOPED_TRACE(PathName(shards));
    rdf::Dataset ds = testing::SmallPeopleGraph();
    AnyStore s(&ds, shards, SmallGraphConfig());
    CostMeter meter;
    ASSERT_TRUE(s.Migrate("likes", &meter).ok());
    EXPECT_EQ(s.store().graph().PartitionTriples(s.Id("likes")), 4u);

    UpdateBatch batch;
    batch.ops.push_back(UpdateOp::Insert("eve", "likes", "film2"));
    batch.ops.push_back(UpdateOp::Delete("bob", "likes", "film1"));
    auto res = s.Apply(batch, &meter);
    ASSERT_TRUE(res.ok()) << res.status();
    EXPECT_EQ(res->graph_maintained, 2u);
    EXPECT_EQ(s.store().graph().PartitionTriples(s.Id("likes")), 4u);  // +1 -1

    // The graph copy answers with the new knowledge (Case 1 route).
    auto exec = s.Execute("SELECT ?p WHERE { ?p likes film2 . }");
    ASSERT_TRUE(exec.ok());
    EXPECT_EQ(exec->result.NumRows(), 3u);  // carol, dave, eve
  }
}

// An insert into a resident partition that already fills the graph
// budget evicts the partition rather than leave a stale graph copy: the
// table takes the triple, the eviction is charged per evicted triple, and
// queries over the predicate fall back to the relational route.
TEST(UpdateRuleTest, OverflowingInsertEvictsTheResidentPartition) {
  // Every pattern is `likes` with a variable endpoint that repeats, so
  // the whole query is a complex subquery while `likes` is resident.
  const char* kAlsoLikeFilm2 =
      "SELECT ?p WHERE { carol likes ?f . ?p likes ?f . ?p likes film2 . }";
  for (int shards : {0, 1, 2}) {
    SCOPED_TRACE(PathName(shards));
    rdf::Dataset ds = testing::SmallPeopleGraph();
    DualStoreConfig cfg;
    cfg.graph_capacity_triples = 4;  // exactly the `likes` partition
    AnyStore s(&ds, shards, cfg);
    CostMeter scratch;
    ASSERT_TRUE(s.Migrate("likes", &scratch).ok());
    const uint64_t partition_size =
        s.store().graph().PartitionTriples(s.Id("likes"));
    ASSERT_EQ(partition_size, 4u);
    auto resident = s.Execute(kAlsoLikeFilm2);
    ASSERT_TRUE(resident.ok()) << resident.status();
    EXPECT_EQ(resident->route, Route::kGraphOnly);

    UpdateBatch batch;
    batch.ops.push_back(UpdateOp::Insert("eve", "likes", "film2"));
    CostMeter meter;
    auto res = s.Apply(batch, &meter);
    ASSERT_TRUE(res.ok()) << res.status();
    EXPECT_EQ(res->inserted, 1u);
    EXPECT_EQ(res->graph_maintained, 0u);
    EXPECT_TRUE(s.Stored("eve", "likes", "film2"));
    EXPECT_FALSE(s.store().IsResident(s.Id("likes")));
    EXPECT_EQ(meter.count(Op::kEvictTriple), partition_size);

    auto exec = s.Execute(kAlsoLikeFilm2);
    ASSERT_TRUE(exec.ok()) << exec.status();
    EXPECT_EQ(exec->route, Route::kRelationalOnly);
    std::vector<std::string> people;
    for (const auto row : exec->result.Rows()) {
      people.emplace_back(s.store().dict().TermOf(row[0]));
    }
    std::sort(people.begin(), people.end());
    EXPECT_EQ(people, (std::vector<std::string>{"carol", "dave", "eve"}));
  }
}

// The online store copies a resident partition per chunk: a batch that
// touches one chunk of each direction copies exactly those two, counts
// them in graph.cow.chunks_cloned, and publishes the live graph's size
// in graph.bytes. Every SmallPeopleGraph id falls in chunk 0.
TEST(OnlineGraphCowTest, BatchCopiesOnlyTheChunksItTouches) {
  auto& reg = telemetry::MetricsRegistry::Global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  DualStoreConfig cfg;
  cfg.graph_capacity_triples = 16;
  cfg.num_shards = 2;
  OnlineStore store(testing::SmallPeopleGraph(), cfg);
  ASSERT_TRUE(store
                  .TuneExclusive([](DualStore* s) {
                    CostMeter m;
                    return s->MigratePartition(s->dict().Lookup("likes"),
                                               &m);
                  })
                  .ok());
  telemetry::Counter* cloned = reg.counter("graph.cow.chunks_cloned");
  const uint64_t cloned0 = cloned->value();
  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::Insert("eve", "likes", "film2"));
  batch.ops.push_back(UpdateOp::Delete("bob", "likes", "film1"));
  batch.ops.push_back(UpdateOp::Insert("eve", "bornIn", "paris"));
  auto res = store.ApplyUpdates(batch);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res->graph_maintained, 2u);
  EXPECT_EQ(cloned->value() - cloned0, 2u);
  const graphstore::PropertyGraph& graph = store.active().graph();
  EXPECT_EQ(reg.gauge("graph.bytes")->value(),
            static_cast<double>(graph.MemoryBytes()));
  EXPECT_GT(graph.MemoryBytes(), 0u);
  EXPECT_EQ(graph.PendingRetired(), 0u);
  reg.set_enabled(was_enabled);
}

// ---- serial DualStore only ------------------------------------------------

// Offline, a term is forgotten and its id recycled as soon as its last
// triple goes; the online store defers both past the epoch drain.
TEST(ApplyUpdatesTest, DictionaryReclaimsAndRecyclesTerms) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStore store(&ds, SmallGraphConfig());
  rdf::Dictionary& dict = ds.mutable_dict();
  const TermId film2 = dict.Lookup("film2");
  const TermId comedy = dict.Lookup("comedy");
  EXPECT_GT(dict.RefCount(film2), 0u);

  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::Delete("carol", "likes", "film2"));
  batch.ops.push_back(UpdateOp::Delete("dave", "likes", "film2"));
  batch.ops.push_back(UpdateOp::Delete("film2", "genre", "comedy"));
  ASSERT_TRUE(store.ApplyUpdates(batch).ok());
  // film2 and comedy lost their last uses: both forgotten and reclaimed.
  EXPECT_EQ(dict.Lookup("film2"), rdf::kInvalidTermId);
  EXPECT_EQ(dict.Lookup("comedy"), rdf::kInvalidTermId);
  EXPECT_EQ(dict.RefCount(film2), 0u);
  EXPECT_EQ(dict.free_ids(), 2u);

  // Freed ids are recycled LIFO by fresh interns (comedy was freed last).
  UpdateBatch next;
  next.ops.push_back(UpdateOp::Insert("alice", "likes", "film3"));
  ASSERT_TRUE(store.ApplyUpdates(next).ok());
  EXPECT_EQ(dict.Lookup("film3"), comedy);
  Session session(&store);
  auto exec = session.Execute("SELECT ?p WHERE { ?p likes film3 . }");
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->result.NumRows(), 1u);
}

TEST(ApplyUpdatesViewsTest, TouchedPredicatesInvalidateViews) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStoreConfig cfg;
  cfg.use_graph = false;
  cfg.use_views = true;
  cfg.views_budget_rows = 100;
  DualStore store(&ds, cfg);

  CostMeter meter;
  const Query vq = Parse(
      "SELECT ?p ?c WHERE { ?p bornIn ?c . ?p advisor ?a . ?a bornIn ?c . }");
  ASSERT_TRUE(store.views()->CreateView(vq, &meter).ok());
  const Query other = Parse("SELECT ?p ?f WHERE { ?p likes ?f . }");
  ASSERT_TRUE(store.views()->CreateView(other, &meter).ok());
  ASSERT_EQ(store.views()->num_views(), 2u);

  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::Insert("eve", "advisor", "alice"));
  auto res = store.ApplyUpdates(batch, &meter);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res->views_dropped, 1u);  // advisor view gone, likes view kept
  EXPECT_EQ(store.views()->num_views(), 1u);
  EXPECT_TRUE(store.views()->HasViewFor(other.patterns));
}

// ---- refcounts: a term lives exactly as long as a stored triple uses it ---

TEST(RefCountTest, DeleteThenReinsertWithinOneBatch) {
  for (int shards : {0, 1, 2}) {
    SCOPED_TRACE(PathName(shards));
    rdf::Dataset ds = testing::SmallPeopleGraph();
    AnyStore s(&ds, shards);
    UpdateBatch batch;
    batch.ops.push_back(UpdateOp::Delete("alice", "likes", "film1"));
    batch.ops.push_back(UpdateOp::Insert("alice", "likes", "film1"));
    batch.ops.push_back(UpdateOp::Insert("gina", "bornIn", "paris"));
    batch.ops.push_back(UpdateOp::Delete("gina", "bornIn", "paris"));
    auto res = s.Apply(batch);
    ASSERT_TRUE(res.ok()) << res.status();
    EXPECT_EQ(s.store().table().size(), 14u);
    EXPECT_TRUE(s.Stored("alice", "likes", "film1"));
    EXPECT_GT(s.store().dict().RefCount(s.store().dict().Lookup("alice")),
              0u);
    EXPECT_EQ(s.store().dict().Lookup("gina"), rdf::kInvalidTermId);
  }
}

TEST(RefCountTest, DeletingATripleLoadedTwiceForgetsItsSubject) {
  for (int shards : {0, 1, 2}) {
    SCOPED_TRACE(PathName(shards));
    // "solo" occurs in no other triple; the store holds the pair once.
    rdf::Dataset ds = testing::SmallPeopleGraph();
    ds.Add("solo", "likes", "film1");
    ds.Add("solo", "likes", "film1");
    AnyStore s(&ds, shards);
    ASSERT_EQ(s.store().table().size(), 15u);

    UpdateBatch del;
    del.ops.push_back(UpdateOp::Delete("solo", "likes", "film1"));
    auto res = s.Apply(del);
    ASSERT_TRUE(res.ok()) << res.status();
    EXPECT_EQ(res->deleted, 1u);
    EXPECT_EQ(s.store().table().size(), 14u);
    EXPECT_EQ(s.store().dict().Lookup("solo"), rdf::kInvalidTermId);

    UpdateBatch ins;
    ins.ops.push_back(UpdateOp::Insert("solo", "likes", "film1"));
    res = s.Apply(ins);
    ASSERT_TRUE(res.ok()) << res.status();
    EXPECT_EQ(res->inserted, 1u);
    EXPECT_EQ(s.store().table().size(), 15u);
    EXPECT_TRUE(s.Stored("solo", "likes", "film1"));
    EXPECT_EQ(s.store().dict().RefCount(s.store().dict().Lookup("solo")), 1u);
  }
}

TEST(RefCountTest, StoresSharingADatasetReleaseItsDuplicatesOnce) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  ds.Add("solo", "likes", "film1");
  ds.Add("solo", "likes", "film1");
  DualStore first(&ds, {});
  DualStore second(&ds, {});
  EXPECT_EQ(ds.dict().RefCount(ds.dict().Lookup("solo")), 1u);
  EXPECT_EQ(second.table().size(), 15u);
}

// ---- OnlineStore: snapshot equivalence under concurrency ------------------

std::vector<Query> SmallQueries() {
  return {
      Parse("SELECT ?p WHERE { ?p bornIn ?c . ?p advisor ?a . "
            "?a bornIn ?c . }"),
      Parse("SELECT ?p ?f WHERE { ?p likes ?f . ?f genre drama . }"),
      Parse("SELECT ?s WHERE { ?s bornIn berlin . }"),
      Parse("SELECT ?x ?y WHERE { ?x advisor ?y . ?y likes ?f . }"),
      Parse("SELECT ?p WHERE { ?p bornIn paris . ?p likes ?f . "
            "?f genre comedy . }"),
  };
}

UpdateLog SmallLog() {
  UpdateLog log;
  {
    UpdateBatch b;
    b.ops.push_back(UpdateOp::Insert("eve", "bornIn", "berlin"));
    b.ops.push_back(UpdateOp::Insert("eve", "likes", "film1"));
    b.ops.push_back(UpdateOp::Delete("alice", "likes", "film1"));
    log.Append(std::move(b));
  }
  {
    UpdateBatch b;
    b.ops.push_back(UpdateOp::Delete("eve", "bornIn", "berlin"));
    b.ops.push_back(UpdateOp::Insert("frank", "advisor", "alice"));
    b.ops.push_back(UpdateOp::Insert("frank", "bornIn", "berlin"));
    b.ops.push_back(UpdateOp::Insert("frank", "likes", "film2"));
    log.Append(std::move(b));
  }
  {
    UpdateBatch b;
    b.ops.push_back(UpdateOp::Delete("carol", "advisor", "alice"));
    b.ops.push_back(UpdateOp::Insert("carol", "advisor", "alice"));
    b.ops.push_back(UpdateOp::Insert("gina", "bornIn", "paris"));
    b.ops.push_back(UpdateOp::Delete("gina", "bornIn", "paris"));
    b.ops.push_back(UpdateOp::Delete("dave", "likes", "film2"));
    log.Append(std::move(b));
  }
  {
    UpdateBatch b;
    b.ops.push_back(UpdateOp::Insert("alice", "likes", "film1"));
    b.ops.push_back(UpdateOp::Delete("film1", "genre", "drama"));
    log.Append(std::move(b));
  }
  return log;
}

TEST(OnlineEquivalenceTest, SmallPeopleGraphRelationalOnly) {
  DualStoreConfig cfg;
  cfg.use_graph = false;
  RunConcurrentEquivalence(testing::SmallPeopleGraph(), cfg, SmallQueries(),
                           SmallLog());
}

TEST(OnlineEquivalenceTest, SmallPeopleGraphWithResidentPartitions) {
  DualStoreConfig cfg;
  cfg.graph_capacity_triples = 16;
  RunConcurrentEquivalence(testing::SmallPeopleGraph(), cfg, SmallQueries(),
                           SmallLog(), {"likes", "genre"});
}

TEST(OnlineEquivalenceTest, RandomizedYagoStream) {
  workload::YagoConfig gen;
  gen.target_triples = 6000;
  rdf::Dataset ds = workload::GenerateYago(gen);

  // Queries: the YAGO templates plus random BGPs anchored on the data.
  workload::WorkloadBuilder builder(&ds);
  auto w = builder.Build("yago", workload::YagoTemplates(), {});
  ASSERT_TRUE(w.ok()) << w.status();
  std::vector<Query> queries;
  for (size_t i = 0; i < w->queries.size() && queries.size() < 6; i += 3) {
    auto bound = workload::BoundQuery(w->queries[i]);
    ASSERT_TRUE(bound.ok()) << bound.status();
    queries.push_back(*std::move(bound));
  }
  Rng rng(13);
  for (int i = 0; i < 6; ++i) {
    queries.push_back(testing::RandomBgp(ds, &rng));
  }

  workload::UpdateStreamConfig uc;
  uc.seed = 99;
  uc.num_batches = 4;
  uc.ops_per_batch = 250;
  uc.insert_fraction = 0.6;
  const UpdateLog log = workload::GenerateUpdateStream(ds, uc);
  ASSERT_EQ(log.size(), 4u);

  DualStoreConfig cfg;
  cfg.graph_capacity_triples = ds.num_triples();  // roomy: no eviction noise
  RunConcurrentEquivalence(ds, cfg, queries, log,
                           {"y:wasBornIn", "y:actedIn", "y:hasGenre"});
}

// Cross-shard fan-in: one batch whose ops span predicates owned by
// different shards must land identically to the serial store — result
// counters, op counts and picosecond charges, and query-visible state.
TEST(OnlineEquivalenceTest, CrossShardFanInMatchesSerial) {
  rdf::Dataset base = testing::SmallPeopleGraph();
  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::Insert("eve", "bornIn", "berlin"));
  batch.ops.push_back(UpdateOp::Insert("eve", "likes", "film1"));
  batch.ops.push_back(UpdateOp::Delete("alice", "likes", "film1"));
  batch.ops.push_back(UpdateOp::Insert("alice", "likes", "film1"));
  batch.ops.push_back(UpdateOp::Insert("frank", "advisor", "alice"));
  batch.ops.push_back(UpdateOp::Delete("film1", "genre", "drama"));
  batch.ops.push_back(UpdateOp::Delete("zed", "foo", "bar"));  // unknown
  batch.ops.push_back(UpdateOp::Insert("film9", "genre", "noir"));

  DualStoreConfig cfg;
  cfg.graph_capacity_triples = 16;

  rdf::Dataset serial_ds = base.Clone();
  DualStore serial(&serial_ds, cfg);
  CostMeter scratch;
  ASSERT_TRUE(
      serial.MigratePartition(serial_ds.dict().Lookup("likes"), &scratch)
          .ok());
  CostMeter serial_meter;
  auto want = serial.ApplyUpdates(batch, &serial_meter);
  ASSERT_TRUE(want.ok()) << want.status();

  for (int shards : {1, 2, 4}) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    DualStoreConfig scfg = cfg;
    scfg.num_shards = shards;
    OnlineStore store(base, scfg);
    ASSERT_TRUE(store
                    .TuneExclusive([&](DualStore* s) {
                      CostMeter m;
                      return s->MigratePartition(s->dict().Lookup("likes"),
                                                 &m);
                    })
                    .ok());
    CostMeter meter;
    auto got = store.ApplyUpdates(batch, &meter);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->inserted, want->inserted);
    EXPECT_EQ(got->deleted, want->deleted);
    EXPECT_EQ(got->graph_maintained, want->graph_maintained);
    EXPECT_EQ(meter.count(Op::kInsertTuple),
              serial_meter.count(Op::kInsertTuple));
    EXPECT_EQ(meter.count(Op::kRemoveTuple),
              serial_meter.count(Op::kRemoveTuple));
    EXPECT_EQ(meter.count(Op::kImportTriple),
              serial_meter.count(Op::kImportTriple));
    EXPECT_EQ(meter.count(Op::kEvictTriple),
              serial_meter.count(Op::kEvictTriple));
    // Charges are integer picoseconds, so the shard-order merge of the
    // per-shard meters equals the serial sum exactly at every shard count.
    EXPECT_EQ(meter.sim_picos(), serial_meter.sim_picos());
    EXPECT_EQ(meter.io_picos(), serial_meter.io_picos());
    EXPECT_EQ(meter.cpu_picos(), serial_meter.cpu_picos());
    Session serial_session(&serial);
    Session online_session(&store);
    for (const Query& q : SmallQueries()) {
      auto s = serial_session.Execute(q.ToString());
      auto o = online_session.Execute(q.ToString());
      ASSERT_TRUE(s.ok() && o.ok());
      EXPECT_EQ(Canon(o->result, store.active().dict()),
                Canon(s->result, serial.dict()));
    }
    EXPECT_EQ(store.active().table().PendingNodes(), 0u);
  }
}

// Quiescent shard invariance on a generated stream: per-batch result
// counters, the batches' charges and final query-visible state are
// identical at every shard count (and to the serial reference), because
// the injector resolves ids in op order and each shard applies its ops in
// op order.
TEST(OnlineEquivalenceTest, YagoStreamCountsAreShardCountInvariant) {
  workload::YagoConfig gen;
  gen.target_triples = 6000;
  rdf::Dataset ds = workload::GenerateYago(gen);

  workload::UpdateStreamConfig uc;
  uc.seed = 7;
  uc.num_batches = 4;
  uc.ops_per_batch = 300;
  uc.insert_fraction = 0.55;
  const UpdateLog log = workload::GenerateUpdateStream(ds, uc);

  DualStoreConfig cfg;
  cfg.graph_capacity_triples = ds.num_triples();

  rdf::Dataset serial_ds = ds.Clone();
  DualStore serial(&serial_ds, cfg);
  CostMeter scratch;
  ASSERT_TRUE(serial
                  .MigratePartition(serial_ds.dict().Lookup("y:wasBornIn"),
                                    &scratch)
                  .ok());
  std::vector<UpdateResult> serial_results;
  CostMeter serial_meter;
  for (uint64_t k = 0; k < log.size(); ++k) {
    auto r = serial.ApplyUpdates(log.at(k), &serial_meter);
    ASSERT_TRUE(r.ok()) << r.status();
    serial_results.push_back(*r);
  }

  Rng rng(29);
  std::vector<Query> probes;
  for (int i = 0; i < 5; ++i) probes.push_back(testing::RandomBgp(ds, &rng));

  for (int shards : {1, 2, 4}) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    DualStoreConfig scfg = cfg;
    scfg.num_shards = shards;
    OnlineStore store(ds, scfg);
    ASSERT_TRUE(store
                    .TuneExclusive([&](DualStore* s) {
                      CostMeter m;
                      return s->MigratePartition(
                          s->dict().Lookup("y:wasBornIn"), &m);
                    })
                    .ok());
    CostMeter meter;
    for (uint64_t k = 0; k < log.size(); ++k) {
      auto r = store.ApplyUpdates(log.at(k), &meter);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(r->inserted, serial_results[k].inserted) << "batch " << k;
      EXPECT_EQ(r->deleted, serial_results[k].deleted) << "batch " << k;
      EXPECT_EQ(r->graph_maintained, serial_results[k].graph_maintained)
          << "batch " << k;
    }
    EXPECT_EQ(meter.sim_picos(), serial_meter.sim_picos());
    EXPECT_EQ(meter.io_picos(), serial_meter.io_picos());
    EXPECT_EQ(meter.cpu_picos(), serial_meter.cpu_picos());
    Session serial_session(&serial);
    Session online_session(&store);
    for (const Query& q : probes) {
      auto s = serial_session.Execute(q.ToString());
      auto o = online_session.Execute(q.ToString());
      ASSERT_TRUE(s.ok() && o.ok());
      EXPECT_EQ(Canon(o->result, store.active().dict()),
                Canon(s->result, serial.dict()));
    }
    EXPECT_EQ(store.active().table().PendingNodes(), 0u);
    EXPECT_TRUE(store.poison_status().ok());
  }
}

// ---- WorkloadRunner::RunOnline --------------------------------------------

TEST(RunOnlineTest, InterleavesUpdatesAndRetunesOnDrift) {
  workload::YagoConfig gen;
  gen.target_triples = 8000;
  rdf::Dataset ds = workload::GenerateYago(gen);
  workload::WorkloadBuilder builder(&ds);
  auto w = builder.Build("yago", workload::YagoTemplates(), {});
  ASSERT_TRUE(w.ok()) << w.status();

  DualStoreConfig cfg;
  cfg.graph_capacity_triples = ds.num_triples() / 4;
  OnlineStore store(ds, cfg);

  workload::UpdateStreamConfig uc;
  uc.num_batches = 5;
  uc.ops_per_batch = 400;
  const UpdateLog updates = workload::GenerateUpdateStream(ds, uc);

  DotilTuner tuner;
  WorkloadRunner runner(/*store=*/nullptr, &tuner);
  OnlineRunOptions opt;
  opt.num_batches = 5;
  opt.drift_threshold = 0.0;  // re-tune after every window
  ThreadPool pool(4);
  auto m = runner.RunOnline(&store, *w, updates, opt, &pool);
  ASSERT_TRUE(m.ok()) << m.status();
  ASSERT_EQ(m->batches.size(), 5u);
  EXPECT_GT(m->TotalTtiMicros(), 0.0);
  EXPECT_GT(m->TotalUpdateMicros(), 0.0);
  EXPECT_GT(m->TotalInserted(), 0u);
  EXPECT_GT(m->TotalDeleted(), 0u);
  EXPECT_EQ(m->Retunes(), 5);  // threshold 0: every window re-tunes
  EXPECT_EQ(store.applied_batches(), updates.size());
  size_t traced_queries = 0;
  for (const OnlineBatchMetrics& b : m->batches) {
    traced_queries += b.queries.size();
  }
  EXPECT_EQ(traced_queries, w->queries.size());
}

TEST(RunOnlineTest, SerialPathAndDisabledTuningWork) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStoreConfig cfg;
  cfg.use_graph = false;
  OnlineStore store(ds, cfg);

  workload::Workload w;
  w.name = "small";
  for (const Query& q : SmallQueries()) {
    workload::WorkloadQuery wq;
    wq.prepared_text = q.ToString();
    w.queries.push_back(std::move(wq));
  }
  const UpdateLog log = SmallLog();

  WorkloadRunner runner(/*store=*/nullptr, /*tuner=*/nullptr);
  OnlineRunOptions opt;
  opt.num_batches = 2;
  auto m = runner.RunOnline(&store, w, log, opt, /*pool=*/nullptr);
  ASSERT_TRUE(m.ok()) << m.status();
  ASSERT_EQ(m->batches.size(), 2u);
  EXPECT_EQ(m->Retunes(), 0);
  EXPECT_EQ(store.applied_batches(), log.size());
}

}  // namespace
}  // namespace dskg::core
