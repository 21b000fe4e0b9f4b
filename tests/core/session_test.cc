// Session façade tests: prepared-query caching, $parameter binding,
// streaming cursors, uniform error handling at the API boundary, and
// plan-epoch invalidation across residency flips and online updates.

#include "core/session.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "core/dual_store.h"
#include "core/online_store.h"
#include "core/update.h"
#include "sparql/parser.h"
#include "test_util.h"
#include "workload/generators.h"

namespace dskg::core {
namespace {

using rdf::TermId;
using sparql::BindingTable;
using sparql::Parser;
using sparql::Query;

constexpr const char* kFlagshipParam =
    "SELECT ?p WHERE { ?p bornIn $city . "
    "?p advisor ?a . ?a bornIn $city . }";

void ExpectSameExecution(const QueryExecution& a, const QueryExecution& b) {
  EXPECT_EQ(a.route, b.route);
  EXPECT_TRUE(BindingTable::SameRows(a.result, b.result));
  EXPECT_DOUBLE_EQ(a.rel_micros, b.rel_micros);
  EXPECT_DOUBLE_EQ(a.graph_micros, b.graph_micros);
  EXPECT_DOUBLE_EQ(a.migrate_micros, b.migrate_micros);
}

// ---- error handling at the API boundary -------------------------------------

class SessionErrorTest : public ::testing::Test {
 protected:
  SessionErrorTest() : ds_(testing::SmallPeopleGraph()), store_(&ds_, {}) {}
  rdf::Dataset ds_;
  DualStore store_;
};

TEST_F(SessionErrorTest, ParseFailureSurfacesFromPrepare) {
  Session session(&store_);
  auto r = session.Prepare("SELEC ?p WHERE { ?p bornIn berlin . }");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

TEST_F(SessionErrorTest, ParameterInPredicatePositionIsRejected) {
  Session session(&store_);
  auto r = session.Prepare("SELECT ?p WHERE { ?p $pred berlin . }");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

TEST_F(SessionErrorTest, ProjectedParameterIsRejected) {
  Session session(&store_);
  auto r = session.Prepare("SELECT $x WHERE { ?p bornIn $x . }");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

TEST_F(SessionErrorTest, NameAsBothVariableAndParameterIsRejected) {
  Session session(&store_);
  auto r = session.Prepare("SELECT ?x WHERE { ?x bornIn $x . }");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

TEST_F(SessionErrorTest, BindUnknownParameterIsInvalidArgument) {
  Session session(&store_);
  auto prepared = session.Prepare(kFlagshipParam);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  const Status s = prepared->Bind("nosuch", "berlin");
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST_F(SessionErrorTest, BindUnknownTermIsNotFound) {
  Session session(&store_);
  auto prepared = session.Prepare(kFlagshipParam);
  ASSERT_TRUE(prepared.ok());
  const Status s = prepared->Bind("city", "atlantis");
  EXPECT_TRUE(s.IsNotFound());
}

TEST_F(SessionErrorTest, ExecuteWithUnboundParameterFails) {
  Session session(&store_);
  auto prepared = session.Prepare(kFlagshipParam);
  ASSERT_TRUE(prepared.ok());
  auto exec = prepared->ExecuteAll();
  ASSERT_FALSE(exec.ok());
  EXPECT_TRUE(exec.status().IsFailedPrecondition());
  auto cursor = prepared->OpenCursor();
  ASSERT_FALSE(cursor.ok());
  EXPECT_TRUE(cursor.status().IsFailedPrecondition());
  // One-shot Execute on parameterized text fails the same way.
  auto oneshot = session.Execute(kFlagshipParam);
  ASSERT_FALSE(oneshot.ok());
  EXPECT_TRUE(oneshot.status().IsFailedPrecondition());
}

TEST_F(SessionErrorTest, DirectEnginePathsRefuseUnboundParameters) {
  // The engines themselves refuse unbound parameters instead of treating
  // the open site as a wildcard or matching nothing.
  auto q = Parser::Parse(kFlagshipParam);
  ASSERT_TRUE(q.ok());
  auto plan = store_.Prepare(*q);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto exec = store_.ExecutePlan(*plan, /*params=*/nullptr);
  ASSERT_FALSE(exec.ok());
  EXPECT_TRUE(exec.status().IsFailedPrecondition());

  CostMeter m1;
  auto rel = testing::ExecuteRel(store_.executor(), *q, &m1);
  ASSERT_FALSE(rel.ok());
  EXPECT_TRUE(rel.status().IsFailedPrecondition());

  // All-resident store so the matcher's precondition is residency-clean.
  rdf::Dataset ds2 = testing::SmallPeopleGraph();
  DualStoreConfig cfg;
  cfg.graph_capacity_triples = ds2.num_triples();
  DualStore store2(&ds2, cfg);
  CostMeter load;
  for (const TermId pred : store2.table().Predicates()) {
    ASSERT_TRUE(store2.MigratePartition(pred, &load).ok());
  }
  CostMeter m3;
  auto matched = testing::MatchGraph(store2.matcher(), *q, &m3);
  ASSERT_FALSE(matched.ok());
  EXPECT_TRUE(matched.status().IsFailedPrecondition());
}

// ---- prepared execution semantics -------------------------------------------

TEST(SessionTest, PreparedBindExecutesLikeOneShotExecute) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStore store(&ds, {});
  Session session(&store);
  auto prepared = session.Prepare(kFlagshipParam);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_EQ(prepared->parameters(), std::vector<std::string>{"city"});

  for (const char* city : {"berlin", "paris"}) {
    ASSERT_TRUE(prepared->Bind("city", city).ok());
    auto exec = prepared->ExecuteAll();
    ASSERT_TRUE(exec.ok()) << exec.status();

    const std::string bound_text =
        "SELECT ?p WHERE { ?p bornIn " + std::string(city) +
        " . ?p advisor ?a . ?a bornIn " + std::string(city) + " . }";
    auto oneshot = session.Execute(bound_text);
    ASSERT_TRUE(oneshot.ok()) << oneshot.status();
    ExpectSameExecution(*exec, *oneshot);
  }
  // berlin: bob's advisor alice was born in berlin too.
  ASSERT_TRUE(prepared->Bind("city", "berlin").ok());
  auto exec = prepared->ExecuteAll();
  ASSERT_TRUE(exec.ok());
  ASSERT_EQ(exec->result.NumRows(), 1u);
  EXPECT_EQ(exec->result.At(0, 0), ds.dict().Lookup("bob"));
}

TEST(SessionTest, PrepareIsCachedByText) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStore store(&ds, {});
  Session session(&store);
  ASSERT_TRUE(session.Prepare(kFlagshipParam).ok());
  ASSERT_TRUE(session.Prepare(kFlagshipParam).ok());
  ASSERT_TRUE(session.Prepare(kFlagshipParam).ok());
  const Session::Stats stats = session.stats();
  EXPECT_EQ(stats.prepares, 1u);
  EXPECT_EQ(stats.cache_hits, 2u);
}

TEST(SessionTest, PlanCacheEvictsLeastRecentlyPrepared) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStore store(&ds, {});
  Session session(&store);
  session.SetPlanCacheCapacity(2);
  const std::string a = "SELECT ?p WHERE { ?p bornIn berlin . }";
  const std::string b = "SELECT ?p WHERE { ?p bornIn paris . }";
  const std::string c = "SELECT ?p WHERE { ?p bornIn tokyo . }";
  ASSERT_TRUE(session.Prepare(a).ok());
  ASSERT_TRUE(session.Prepare(b).ok());
  EXPECT_EQ(session.plan_cache_size(), 2u);
  EXPECT_EQ(session.stats().evictions, 0u);
  // Touch `a` so `b` becomes least-recently-prepared, then overflow.
  ASSERT_TRUE(session.Prepare(a).ok());
  ASSERT_TRUE(session.Prepare(c).ok());
  EXPECT_EQ(session.plan_cache_size(), 2u);
  EXPECT_EQ(session.stats().evictions, 1u);
  // `a` survived (hit), `b` was evicted (fresh parse).
  const uint64_t prepares_before = session.stats().prepares;
  ASSERT_TRUE(session.Prepare(a).ok());
  EXPECT_EQ(session.stats().prepares, prepares_before);
  ASSERT_TRUE(session.Prepare(b).ok());
  EXPECT_EQ(session.stats().prepares, prepares_before + 1);
}

TEST(SessionTest, EvictedPreparedHandleStillExecutes) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStore store(&ds, {});
  Session session(&store);
  session.SetPlanCacheCapacity(1);
  auto prepared = session.Prepare(kFlagshipParam);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Bind("city", "berlin").ok());
  // Evict the flagship entry by preparing a different text.
  ASSERT_TRUE(session.Prepare("SELECT ?p WHERE { ?p bornIn paris . }").ok());
  EXPECT_EQ(session.stats().evictions, 1u);
  // The outstanding handle shares the entry and keeps working.
  auto exec = prepared->ExecuteAll();
  ASSERT_TRUE(exec.ok());
  auto direct = Session(&store).Execute(
      "SELECT ?p WHERE { ?p bornIn berlin . "
      "?p advisor ?a . ?a bornIn berlin . }");
  ASSERT_TRUE(direct.ok());
  ExpectSameExecution(*exec, *direct);
}

TEST(SessionTest, ShrinkingCapacityEvictsImmediately) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStore store(&ds, {});
  Session session(&store);
  for (const char* city : {"berlin", "paris", "tokyo"}) {
    ASSERT_TRUE(session
                    .Prepare("SELECT ?p WHERE { ?p bornIn " +
                             std::string(city) + " . }")
                    .ok());
  }
  EXPECT_EQ(session.plan_cache_size(), 3u);
  session.SetPlanCacheCapacity(1);
  EXPECT_EQ(session.plan_cache_size(), 1u);
  EXPECT_EQ(session.stats().evictions, 2u);
  // Capacity 0 = unbounded again.
  session.SetPlanCacheCapacity(0);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(session
                    .Prepare("SELECT ?p WHERE { ?p bornIn city" +
                             std::to_string(i) + " . }")
                    .ok());
  }
  EXPECT_EQ(session.plan_cache_size(), 11u);
  EXPECT_EQ(session.stats().evictions, 2u);
}

TEST(SessionTest, SubmitAsyncExecutesOnThePool) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStore store(&ds, {});
  ThreadPool pool(2);
  Session session(&store, &pool);
  std::vector<std::future<Result<QueryExecution>>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(session.SubmitAsync(
        "SELECT ?p WHERE { ?p bornIn berlin . }"));
  }
  auto prepared = session.Prepare(kFlagshipParam);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Bind("city", "berlin").ok());
  futures.push_back(session.SubmitAsync(*std::move(prepared)));
  for (size_t i = 0; i < futures.size(); ++i) {
    auto r = futures[i].get();
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->result.NumRows(), i < 8 ? 2u : 1u);
  }
}

// ---- streaming cursors ------------------------------------------------------

/// Parameterizes ~half of a random query's constant endpoints.
struct ParameterizedQuery {
  Query query;  // with $params
  std::vector<std::pair<std::string, std::string>> bindings;
};

ParameterizedQuery Parameterize(const Query& q, Rng* rng) {
  ParameterizedQuery out;
  out.query = q;
  int next = 0;
  for (sparql::TriplePattern& p : out.query.patterns) {
    for (sparql::PatternTerm* end : {&p.subject, &p.object}) {
      if (end->is_variable || end->is_param) continue;
      if (!rng->NextBool(0.5)) continue;
      const std::string name = "prm" + std::to_string(next++);
      out.bindings.emplace_back(name, end->text);
      *end = sparql::PatternTerm::Param(name);
    }
  }
  return out;
}

class SessionCursorTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SessionCursorTest, CursorChunksMatchExecuteAllAndReference) {
  for (int corpus = 0; corpus < 2; ++corpus) {
    rdf::Dataset ds = [&] {
      if (corpus == 0) return testing::SmallPeopleGraph();
      workload::YagoConfig cfg;
      cfg.target_triples = 6000;
      return workload::GenerateYago(cfg);
    }();
    // Half the partitions resident: random BGPs route through all of
    // Case 1 (graph), Case 2 (dual) and Case 3 (relational).
    DualStoreConfig cfg;
    cfg.graph_capacity_triples = ds.num_triples();
    DualStore store(&ds, cfg);
    CostMeter load;
    size_t migrated = 0;
    for (const TermId pred : store.table().Predicates()) {
      if (migrated++ % 2 == 0) {
        ASSERT_TRUE(store.MigratePartition(pred, &load).ok());
      }
    }
    testing::ReferenceEvaluator reference(&ds);
    Session session(&store);

    Rng rng(GetParam() ^ 0x5e55);
    for (int i = 0; i < 30; ++i) {
      const Query q = testing::RandomBgp(ds, &rng);
      ParameterizedQuery pq = Parameterize(q, &rng);
      const BindingTable expected = reference.Evaluate(q);

      auto prepared = session.Prepare(pq.query.ToString());
      ASSERT_TRUE(prepared.ok()) << prepared.status();
      for (const auto& [name, term] : pq.bindings) {
        ASSERT_TRUE(prepared->Bind(name, term).ok()) << name << "=" << term;
      }

      auto exec = prepared->ExecuteAll();
      ASSERT_TRUE(exec.ok()) << exec.status() << "\n" << q.ToString();
      EXPECT_TRUE(BindingTable::SameRows(exec->result, expected))
          << "ExecuteAll diverged: " << q.ToString();

      // Stream the same execution in several chunk sizes; rows and, once
      // drained, cost totals must match the materialized call exactly.
      for (const size_t chunk_rows : {size_t{1}, size_t{3}, size_t{1024}}) {
        auto cursor = prepared->OpenCursor();
        ASSERT_TRUE(cursor.ok()) << cursor.status() << "\n" << q.ToString();
        BindingTable streamed;
        streamed.columns = cursor->columns();
        BindingTable chunk;
        bool done = false;
        while (!done) {
          ASSERT_TRUE(cursor->Next(&chunk, chunk_rows, &done).ok());
          ASSERT_LE(chunk.NumRows(), chunk_rows);
          streamed.AppendRowsFrom(chunk);
        }
        EXPECT_TRUE(BindingTable::SameRows(streamed, expected))
            << "cursor (chunk " << chunk_rows << ") diverged: "
            << q.ToString();
        const QueryExecution drained = cursor->Execution();
        EXPECT_EQ(drained.route, exec->route);
        EXPECT_DOUBLE_EQ(drained.rel_micros, exec->rel_micros);
        EXPECT_DOUBLE_EQ(drained.graph_micros, exec->graph_micros);
        EXPECT_DOUBLE_EQ(drained.migrate_micros, exec->migrate_micros);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionCursorTest,
                         ::testing::Values(7, 21, 42));

TEST(SessionCursorTest2, DualStoreRouteStreamsIdenticalRows) {
  // Deterministic Case 2: the complex subquery (bornIn/advisor) runs in
  // the graph store, the name-lookup remainder stays relational; the
  // cursor must stream exactly what the materialized call returns.
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStoreConfig cfg;
  cfg.graph_capacity_triples = ds.num_triples();
  DualStore store(&ds, cfg);
  CostMeter load;
  ASSERT_TRUE(store.MigratePartition(ds.dict().Lookup("bornIn"), &load).ok());
  ASSERT_TRUE(
      store.MigratePartition(ds.dict().Lookup("advisor"), &load).ok());

  Session session(&store);
  auto prepared = session.Prepare(
      "SELECT ?p ?f WHERE { ?p bornIn $city . ?p advisor ?a . "
      "?a bornIn $city . ?p likes ?f . }");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  ASSERT_TRUE(prepared->Bind("city", "berlin").ok());

  auto exec = prepared->ExecuteAll();
  ASSERT_TRUE(exec.ok()) << exec.status();
  EXPECT_EQ(exec->route, Route::kDualStore);
  ASSERT_EQ(exec->result.NumRows(), 1u);  // bob (advisor alice) likes film1

  auto cursor = prepared->OpenCursor();
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(cursor->route(), Route::kDualStore);
  auto streamed = cursor->DrainAll(1);
  ASSERT_TRUE(streamed.ok());
  EXPECT_TRUE(BindingTable::SameRows(*streamed, exec->result));
  const QueryExecution drained = cursor->Execution();
  EXPECT_DOUBLE_EQ(drained.rel_micros, exec->rel_micros);
  EXPECT_DOUBLE_EQ(drained.graph_micros, exec->graph_micros);
  EXPECT_DOUBLE_EQ(drained.migrate_micros, exec->migrate_micros);
}

TEST(SessionCursorTest2, EarlyAbandonedGraphCursorChargesLess) {
  // The graph route streams out of the resumable traversal: pulling one
  // row must not pay for the whole search space.
  workload::YagoConfig cfg;
  cfg.target_triples = 20000;
  rdf::Dataset ds = workload::GenerateYago(cfg);
  DualStoreConfig sc;
  sc.graph_capacity_triples = ds.num_triples();
  DualStore store(&ds, sc);
  CostMeter load;
  for (const char* pred : {"y:wasBornIn", "y:hasAcademicAdvisor"}) {
    ASSERT_TRUE(
        store.MigratePartition(ds.dict().Lookup(pred), &load).ok());
  }
  Session session(&store);
  auto prepared = session.Prepare(
      "SELECT ?p WHERE { ?p y:wasBornIn ?c . "
      "?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?c . }");
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  auto full = prepared->ExecuteAll();
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->route, Route::kGraphOnly);
  ASSERT_GT(full->result.NumRows(), 1u);

  auto cursor = prepared->OpenCursor();
  ASSERT_TRUE(cursor.ok());
  BindingTable chunk;
  bool done = false;
  ASSERT_TRUE(cursor->Next(&chunk, 1, &done).ok());
  ASSERT_EQ(chunk.NumRows(), 1u);
  EXPECT_FALSE(done);
  EXPECT_LT(cursor->Execution().graph_micros, full->graph_micros);
}

// ---- per-query telemetry ----------------------------------------------------

// Every execution, materialized or streamed, counts its route once and
// records one simulated-time sample equal to the drained total — the
// open step and the drain are one path, so cursors are not invisible to
// the route telemetry. Binds $city=berlin when the text has parameters.
void ExpectCursorRecordsLikeExecuteAll(Session* session, const char* text,
                                       Route route) {
  SCOPED_TRACE(text);
  auto& reg = telemetry::MetricsRegistry::Global();
  auto prepared = session->Prepare(text);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  if (!prepared->parameters().empty()) {
    ASSERT_TRUE(prepared->Bind("city", "berlin").ok());
  }
  const std::string name = RouteName(route);
  telemetry::Counter* count = reg.counter("query.route." + name);
  telemetry::Histogram* sim = reg.histogram("query.sim_us." + name);
  telemetry::Histogram* next_us = reg.histogram("session.cursor_next_us");

  // ExecuteAll: one count, one sample, and no Session cursor pulls.
  sim->Reset();
  const uint64_t count0 = count->value();
  const uint64_t next0 = next_us->count();
  auto exec = prepared->ExecuteAll();
  ASSERT_TRUE(exec.ok()) << exec.status();
  ASSERT_EQ(exec->route, route);
  ASSERT_GT(exec->total_micros(), 0.0);
  EXPECT_EQ(count->value(), count0 + 1);
  EXPECT_EQ(sim->count(), 1u);
  EXPECT_EQ(sim->sum(), exec->total_micros());
  EXPECT_EQ(next_us->count(), next0);

  // A Session cursor drained one row per pull records the same, once,
  // when it delivers its last row.
  sim->Reset();
  auto cursor = prepared->OpenCursor();
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  EXPECT_EQ(count->value(), count0 + 1);
  auto rows = cursor->DrainAll(1);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_TRUE(BindingTable::SameRows(*rows, exec->result));
  EXPECT_EQ(count->value(), count0 + 2);
  EXPECT_EQ(sim->count(), 1u);
  EXPECT_EQ(sim->sum(), exec->total_micros());
}

TEST(SessionTelemetryTest, DrainedCursorRecordsRouteAndSimLikeExecuteAll) {
  telemetry::MetricsRegistry::Global().set_enabled(true);
  {
    // bornIn and advisor resident: graph, dual and relational routes.
    rdf::Dataset ds = testing::SmallPeopleGraph();
    DualStoreConfig cfg;
    cfg.graph_capacity_triples = ds.num_triples();
    DualStore store(&ds, cfg);
    CostMeter load;
    for (const char* pred : {"bornIn", "advisor"}) {
      ASSERT_TRUE(store.MigratePartition(ds.dict().Lookup(pred), &load).ok());
    }
    Session session(&store);
    ExpectCursorRecordsLikeExecuteAll(&session, kFlagshipParam,
                                      Route::kGraphOnly);
    ExpectCursorRecordsLikeExecuteAll(
        &session,
        "SELECT ?p ?f WHERE { ?p bornIn $city . ?p advisor ?a . "
        "?a bornIn $city . ?p likes ?f . }",
        Route::kDualStore);
    ExpectCursorRecordsLikeExecuteAll(
        &session, "SELECT ?p ?f WHERE { ?p bornIn $city . ?p likes ?f . }",
        Route::kRelationalOnly);
  }
  {
    // RDB-views with the flagship's complex subquery materialized.
    constexpr const char* kFlagship =
        "SELECT ?p WHERE { ?p bornIn ?c . ?p advisor ?a . ?a bornIn ?c . }";
    rdf::Dataset ds = testing::SmallPeopleGraph();
    DualStoreConfig cfg;
    cfg.use_graph = false;
    cfg.use_views = true;
    cfg.views_budget_rows = 100;
    DualStore store(&ds, cfg);
    auto q = Parser::Parse(kFlagship);
    ASSERT_TRUE(q.ok());
    const IdentifiedQuery split = ComplexSubqueryIdentifier::Identify(*q);
    ASSERT_TRUE(split.HasComplexSubquery());
    CostMeter meter;
    ASSERT_TRUE(store.views()->CreateView(*split.complex, &meter).ok());
    Session session(&store);
    ExpectCursorRecordsLikeExecuteAll(&session, kFlagship,
                                      Route::kViewAssisted);
  }
}

// ---- plan-epoch invalidation ------------------------------------------------

TEST(SessionInvalidationTest, ResidencyFlipRevalidatesPlan) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStoreConfig cfg;
  cfg.graph_capacity_triples = ds.num_triples();
  DualStore store(&ds, cfg);
  Session session(&store);

  auto prepared = session.Prepare(kFlagshipParam);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Bind("city", "berlin").ok());
  auto cold = prepared->ExecuteAll();
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->route, Route::kRelationalOnly);
  const uint64_t parses = session.stats().prepares;

  // Flip residency: the prepared plan's route is stale and must be
  // re-validated, not silently executed.
  CostMeter tuning;
  ASSERT_TRUE(
      store.MigratePartition(ds.dict().Lookup("bornIn"), &tuning).ok());
  ASSERT_TRUE(
      store.MigratePartition(ds.dict().Lookup("advisor"), &tuning).ok());

  auto warm = prepared->ExecuteAll();
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->route, Route::kGraphOnly);
  EXPECT_TRUE(BindingTable::SameRows(warm->result, cold->result));
  EXPECT_GE(session.stats().replans, 1u);
  // A re-plan reuses the cached parse.
  EXPECT_EQ(session.stats().prepares, parses);

  // And back: eviction must downgrade the route again.
  ASSERT_TRUE(
      store.EvictPartition(ds.dict().Lookup("advisor"), &tuning).ok());
  auto after_evict = prepared->ExecuteAll();
  ASSERT_TRUE(after_evict.ok());
  EXPECT_NE(after_evict->route, Route::kGraphOnly);
  EXPECT_TRUE(BindingTable::SameRows(after_evict->result, cold->result));
}

TEST(SessionInvalidationTest, OnlineUpdatesRevalidateAndCursorsPinSnapshots) {
  rdf::Dataset initial = testing::SmallPeopleGraph();
  OnlineStore store(initial, {});
  Session session(&store);

  auto prepared = session.Prepare(kFlagshipParam);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Bind("city", "berlin").ok());
  auto before = prepared->ExecuteAll();
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->result.NumRows(), 1u);
  const uint64_t parses = session.stats().prepares;

  // A cursor opened now pins the pre-update snapshot for its lifetime.
  auto pinned_r = prepared->OpenCursor();
  ASSERT_TRUE(pinned_r.ok());
  std::optional<Cursor> pinned(std::move(pinned_r).ValueOrDie());

  // An update lands concurrently: eve, born in berlin, advised by alice.
  // The applier publishes immediately (readers are wait-free) but blocks
  // reclaiming the retired replica until the pinned cursor lets go — so
  // it must run on its own thread while the cursor is alive.
  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::Insert("eve", "bornIn", "berlin"));
  batch.ops.push_back(UpdateOp::Insert("eve", "advisor", "alice"));
  Status update_status;
  std::thread applier(
      [&] { update_status = store.ApplyUpdates(batch).status(); });

  // The pinned cursor still serves the snapshot it was opened against.
  BindingTable streamed;
  streamed.columns = pinned->columns();
  BindingTable chunk;
  bool done = false;
  while (!done) {
    ASSERT_TRUE(pinned->Next(&chunk, 2, &done).ok());
    streamed.AppendRowsFrom(chunk);
  }
  EXPECT_TRUE(BindingTable::SameRows(streamed, before->result));
  pinned.reset();  // drop the pin: the applier may reclaim and finish
  applier.join();
  ASSERT_TRUE(update_status.ok()) << update_status;

  // The prepared query re-validates transparently and sees the new row.
  auto after = prepared->ExecuteAll();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->result.NumRows(), 2u);
  EXPECT_GE(session.stats().replans, 1u);
  // The re-plan reused the cached parse.
  EXPECT_EQ(session.stats().prepares, parses);

  // Binding a term that only exists post-update works (the dictionary
  // grew; the plan epoch moved with it).
  UpdateBatch batch2;
  batch2.ops.push_back(UpdateOp::Insert("frank", "bornIn", "oslo"));
  batch2.ops.push_back(UpdateOp::Insert("gina", "bornIn", "oslo"));
  batch2.ops.push_back(UpdateOp::Insert("frank", "advisor", "gina"));
  ASSERT_TRUE(store.ApplyUpdates(batch2).ok());
  ASSERT_TRUE(prepared->Bind("city", "oslo").ok());
  auto oslo = prepared->ExecuteAll();
  ASSERT_TRUE(oslo.ok());
  EXPECT_EQ(oslo->result.NumRows(), 1u);
}

// Epochs only grow, so a plan replaces the cached one only when it is
// newer: a reader still pinned at an older epoch runs its own plan without
// evicting the newer one that later readers share.
TEST(SessionInvalidationTest, OnlyANewerPlanReplacesTheCachedOne) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStoreConfig cfg;
  cfg.graph_capacity_triples = ds.num_triples();
  DualStore store(&ds, cfg);
  auto q = Parser::Parse(kFlagshipParam);
  ASSERT_TRUE(q.ok());
  auto plan = [&]() -> std::shared_ptr<const PreparedPlan> {
    auto p = store.Prepare(*q);
    EXPECT_TRUE(p.ok()) << p.status();
    return std::make_shared<const PreparedPlan>(std::move(p).ValueOrDie());
  };
  const auto older = plan();
  const auto older_twin = plan();
  CostMeter tuning;
  ASSERT_TRUE(
      store.MigratePartition(ds.dict().Lookup("bornIn"), &tuning).ok());
  const auto newer = plan();
  ASSERT_LT(older->plan_epoch, newer->plan_epoch);

  session_internal::CacheEntry entry;
  entry.InstallIfNewer(older);  // an empty entry takes any plan
  EXPECT_EQ(entry.plan, older);
  entry.InstallIfNewer(older_twin);  // same epoch: the cached plan stays
  EXPECT_EQ(entry.plan, older);
  entry.InstallIfNewer(newer);
  EXPECT_EQ(entry.plan, newer);
  entry.InstallIfNewer(older);  // an older reader's plan is not cached
  EXPECT_EQ(entry.plan, newer);
}

}  // namespace
}  // namespace dskg::core
