// Randomized equivalence suite for the slot-compiled columnar pipeline:
// every execution path (relational, seeded, serial and sharded graph
// traversal) must produce the same multiset of rows
// (`BindingTable::SameRows`) as the brute-force reference evaluator on
// SmallPeopleGraph and a generated YAGO graph, plus directed
// slot-compiler edge cases (duplicate variables, unused select
// variables, seed-column overlap).

#include <gtest/gtest.h>

#include <array>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dotil.h"
#include "core/dual_store.h"
#include "core/online_store.h"
#include "core/session.h"
#include "core/update.h"
#include "graphstore/matcher.h"
#include "relstore/executor.h"
#include "sparql/parser.h"
#include "test_util.h"
#include "workload/generators.h"

namespace dskg::core {
namespace {

using rdf::TermId;
using relstore::Executor;
using relstore::TripleTable;
using sparql::BindingTable;
using sparql::Parser;

/// The two corpora of the suite: index 0 the hand-written people graph,
/// index 1 a generated YAGO graph (Dataset is move-only, so tests build
/// by index instead of iterating a list of values).
rdf::Dataset MakeCorpus(int which) {
  if (which == 0) return testing::SmallPeopleGraph();
  workload::YagoConfig cfg;
  cfg.target_triples = 6000;
  return workload::GenerateYago(cfg);
}

/// Splits `q`'s patterns into a seed prefix and a remainder, evaluates
/// the prefix with the executor (SELECT *), and runs the remainder from
/// that seed. Equivalent to evaluating the whole query — the dual-store
/// migration contract a seeded `ExecuteCompiled` exists for.
Result<BindingTable> RunSeeded(const Executor& ex, const sparql::Query& q,
                               size_t seed_patterns, CostMeter* meter) {
  sparql::Query seed_q;
  seed_q.patterns.assign(q.patterns.begin(),
                         q.patterns.begin() + seed_patterns);
  sparql::Query rest;
  rest.patterns.assign(q.patterns.begin() + seed_patterns, q.patterns.end());
  rest.select_vars =
      q.select_vars.empty() ? q.AllVariables() : q.select_vars;
  DSKG_ASSIGN_OR_RETURN(BindingTable seed,
                        testing::ExecuteRel(ex, seed_q, meter));
  return testing::ExecuteRel(ex, rest, meter, &seed);
}

class EngineEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineEquivalenceTest, AllRelationalPathsMatchReference) {
  for (int corpus = 0; corpus < 2; ++corpus) {
    const rdf::Dataset ds = MakeCorpus(corpus);
    TripleTable table;
    CostMeter load;
    table.BulkLoad(ds.triples(), &load);
    Executor ex(&table, &ds.dict());
    testing::ReferenceEvaluator reference(&ds);

    Rng rng(GetParam());
    for (int i = 0; i < 40; ++i) {
      const sparql::Query q = testing::RandomBgp(ds, &rng);
      const BindingTable expected = reference.Evaluate(q);

      CostMeter m1;
      auto serial = testing::ExecuteRel(ex, q, &m1);
      ASSERT_TRUE(serial.ok()) << serial.status() << "\n" << q.ToString();
      EXPECT_TRUE(BindingTable::SameRows(*serial, expected))
          << "ExecuteCompiled diverged: " << q.ToString();

      // Seed with every possible pattern prefix (seed columns then
      // overlap the remainder's join variables in all combinations the
      // query offers).
      for (size_t k = 1; k < q.patterns.size(); ++k) {
        CostMeter m3;
        auto seeded = RunSeeded(ex, q, k, &m3);
        ASSERT_TRUE(seeded.ok()) << seeded.status() << "\n" << q.ToString();
        EXPECT_TRUE(BindingTable::SameRows(*seeded, expected))
            << "seeded ExecuteCompiled diverged (prefix " << k
            << "): " << q.ToString();
      }
    }
  }
}

TEST_P(EngineEquivalenceTest, TraversalMatcherMatchesReference) {
  for (int corpus = 0; corpus < 2; ++corpus) {
    rdf::Dataset ds = MakeCorpus(corpus);
    DualStoreConfig cfg;
    cfg.use_graph = true;
    cfg.graph_capacity_triples = ds.num_triples();
    DualStore store(&ds, cfg);
    CostMeter load;
    for (const TermId pred : store.table().Predicates()) {
      ASSERT_TRUE(store.MigratePartition(pred, &load).ok());
    }
    graphstore::TraversalMatcher matcher(&store.graph(), &ds.dict());
    testing::ReferenceEvaluator reference(&ds);

    Rng rng(GetParam() ^ 0xabcdef);
    for (int i = 0; i < 40; ++i) {
      const sparql::Query q = testing::RandomBgp(ds, &rng);
      CostMeter meter;
      auto actual = testing::MatchGraph(matcher, q, &meter);
      ASSERT_TRUE(actual.ok()) << actual.status() << "\n" << q.ToString();
      EXPECT_TRUE(BindingTable::SameRows(*actual, reference.Evaluate(q)))
          << "serial traversal diverged: " << q.ToString();
    }
  }
}

// Sharded traversal must be indistinguishable from serial traversal at
// every thread count: the same rows in the same order, and bit-identical
// simulated charges (the integer-picosecond meter makes shard merges
// exact, not approximately equal).
TEST_P(EngineEquivalenceTest, ShardedTraversalMatchesSerial) {
  for (int corpus = 0; corpus < 2; ++corpus) {
    rdf::Dataset ds = MakeCorpus(corpus);
    DualStoreConfig cfg;
    cfg.use_graph = true;
    cfg.graph_capacity_triples = ds.num_triples();
    DualStore store(&ds, cfg);
    CostMeter load;
    for (const TermId pred : store.table().Predicates()) {
      ASSERT_TRUE(store.MigratePartition(pred, &load).ok());
    }
    graphstore::TraversalMatcher matcher(&store.graph(), &ds.dict());

    Rng rng(GetParam() ^ 0x5eed);
    for (int i = 0; i < 25; ++i) {
      const sparql::Query q = testing::RandomBgp(ds, &rng);
      auto plan = matcher.Compile(q);
      ASSERT_TRUE(plan.ok()) << plan.status() << "\n" << q.ToString();

      CostMeter serial_meter;
      auto serial = matcher.MatchSharded(*plan, nullptr, &serial_meter,
                                         /*pool=*/nullptr, /*max_shards=*/0);
      ASSERT_TRUE(serial.ok()) << serial.status() << "\n" << q.ToString();

      for (const int threads : {1, 2, 4}) {
        ThreadPool pool(static_cast<size_t>(threads));
        CostMeter meter;
        auto sharded = matcher.MatchSharded(*plan, nullptr, &meter, &pool,
                                            /*max_shards=*/0);
        ASSERT_TRUE(sharded.ok()) << sharded.status() << "\n"
                                  << q.ToString();

        // Rows: identical content *and* order (shards merge in shard
        // order, and each shard preserves DFS order).
        ASSERT_EQ(sharded->columns, serial->columns) << q.ToString();
        ASSERT_EQ(sharded->NumRows(), serial->NumRows())
            << threads << " threads: " << q.ToString();
        for (size_t r = 0; r < serial->NumRows(); ++r) {
          for (size_t c = 0; c < serial->NumColumns(); ++c) {
            ASSERT_EQ(sharded->At(r, c), serial->At(r, c))
                << "row " << r << " col " << c << " at " << threads
                << " threads: " << q.ToString();
          }
        }

        // Charges: every op count and all three simulated-time components,
        // down to the picosecond.
        for (int op = 0; op < kNumOps; ++op) {
          EXPECT_EQ(meter.count(static_cast<Op>(op)),
                    serial_meter.count(static_cast<Op>(op)))
              << OpName(static_cast<Op>(op)) << " at " << threads
              << " threads: " << q.ToString();
        }
        EXPECT_EQ(meter.sim_picos(), serial_meter.sim_picos())
            << q.ToString();
        EXPECT_EQ(meter.io_picos(), serial_meter.io_picos())
            << q.ToString();
        EXPECT_EQ(meter.cpu_picos(), serial_meter.cpu_picos())
            << q.ToString();
      }
    }
  }
}

// Parallel dataset generation must be byte-identical to serial: the same
// triples in the same order over the same term-id assignment.
TEST(GeneratorDeterminismTest, ParallelGenerationMatchesSerial) {
  ThreadPool pool(4);
  const auto expect_same = [](const char* name, const rdf::Dataset& serial,
                              const rdf::Dataset& parallel) {
    ASSERT_EQ(serial.triples().size(), parallel.triples().size()) << name;
    for (size_t i = 0; i < serial.triples().size(); ++i) {
      const rdf::Triple& a = serial.triples()[i];
      const rdf::Triple& b = parallel.triples()[i];
      ASSERT_TRUE(a.subject == b.subject && a.predicate == b.predicate &&
                  a.object == b.object)
          << name << ": triple " << i << " diverged";
    }
    EXPECT_EQ(serial.dict().size(), parallel.dict().size()) << name;
  };
  {
    workload::YagoConfig c;
    c.target_triples = 40000;
    expect_same("yago", workload::GenerateYago(c),
                workload::GenerateYago(c, &pool));
  }
  {
    workload::WatDivConfig c;
    c.target_triples = 40000;
    expect_same("watdiv", workload::GenerateWatDiv(c),
                workload::GenerateWatDiv(c, &pool));
  }
  {
    workload::Bio2RdfConfig c;
    c.target_triples = 40000;
    expect_same("bio2rdf", workload::GenerateBio2Rdf(c),
                workload::GenerateBio2Rdf(c, &pool));
  }
}

// DOTIL with a probe pool must make exactly the decisions — and charge
// exactly the costs — of the serial tuner at every thread count: the
// speculative c1/c2 probes change wall-clock only.
TEST(DotilParallelProbeTest, DecisionsAndChargesMatchSerial) {
  const auto make_queries = [] {
    std::vector<sparql::Query> qs;
    const auto bgp = [](std::initializer_list<std::array<const char*, 3>>
                            patterns) {
      sparql::Query q;
      for (const auto& p : patterns) {
        sparql::PatternTerm s = p[0][0] == '?'
                                    ? sparql::PatternTerm::Var(p[0] + 1)
                                    : sparql::PatternTerm::Const(p[0]);
        sparql::PatternTerm o = p[2][0] == '?'
                                    ? sparql::PatternTerm::Var(p[2] + 1)
                                    : sparql::PatternTerm::Const(p[2]);
        q.patterns.push_back({s, sparql::PatternTerm::Const(p[1]), o});
      }
      q.select_vars = q.AllVariables();
      return q;
    };
    qs.push_back(bgp({{"?p", "y:wasBornIn", "?c"},
                      {"?p", "y:hasAcademicAdvisor", "?a"},
                      {"?a", "y:wasBornIn", "?c"}}));
    qs.push_back(bgp({{"?p", "y:livesIn", "?c"},
                      {"?p", "y:isMarriedTo", "?s"},
                      {"?s", "y:livesIn", "?c"}}));
    qs.push_back(bgp({{"?p", "y:actedIn", "?m"},
                      {"?m", "y:hasGenre", "?g"}}));
    qs.push_back(bgp({{"?p", "y:worksAt", "?k"},
                      {"?k", "y:headquarteredIn", "?c"},
                      {"?p", "y:livesIn", "?c"}}));
    return qs;
  };
  const std::vector<sparql::Query> queries = make_queries();

  // Serial reference run.
  const auto run = [&](ThreadPool* probe_pool, CostMeter* meter,
                       DotilTuner* tuner, std::vector<TermId>* resident) {
    rdf::Dataset ds = MakeCorpus(1);
    DualStoreConfig cfg;
    cfg.use_graph = true;
    cfg.graph_capacity_triples = ds.num_triples();
    DualStore store(&ds, cfg);
    tuner->set_probe_pool(probe_pool);
    for (int round = 0; round < 3; ++round) {
      ASSERT_TRUE(tuner->AfterBatch(&store, queries, meter).ok());
    }
    *resident = store.graph().LoadedPredicates();
    std::sort(resident->begin(), resident->end());
  };

  CostMeter serial_meter;
  DotilTuner serial_tuner;
  std::vector<TermId> serial_resident;
  run(nullptr, &serial_meter, &serial_tuner, &serial_resident);
  ASSERT_GT(serial_tuner.num_trained(), 0u);

  for (const int threads : {2, 4}) {
    ThreadPool pool(static_cast<size_t>(threads));
    CostMeter meter;
    DotilTuner tuner;
    std::vector<TermId> resident;
    run(&pool, &meter, &tuner, &resident);

    EXPECT_EQ(resident, serial_resident) << threads << " threads";
    EXPECT_EQ(tuner.num_trained(), serial_tuner.num_trained());
    const std::array<double, 4> a = tuner.QMatrixSums();
    const std::array<double, 4> b = serial_tuner.QMatrixSums();
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(a[i], b[i]) << "Q sum " << i << " at " << threads
                            << " threads";
    }
    for (int op = 0; op < kNumOps; ++op) {
      EXPECT_EQ(meter.count(static_cast<Op>(op)),
                serial_meter.count(static_cast<Op>(op)))
          << OpName(static_cast<Op>(op)) << " at " << threads << " threads";
    }
    EXPECT_EQ(meter.sim_picos(), serial_meter.sim_picos());
    EXPECT_EQ(meter.io_picos(), serial_meter.io_picos());
    EXPECT_EQ(meter.cpu_picos(), serial_meter.cpu_picos());
  }
}

// A prepared query (kept across mutations of the store) must always
// return exactly what a freshly prepared query returns: plans
// carry a plan epoch and re-validate after `ApplyUpdates` or re-tuning
// moves graph residency, the view catalog or the dictionary. This is the
// randomized oracle for that invariant: random parameterized BGPs are
// prepared once, then the store is mutated round after round (update
// batches interleaved with migrate/evict tuning windows) and every
// prepared handle is compared — rows and simulated charges — against a
// fresh one-shot execution of its bound form.
TEST_P(EngineEquivalenceTest, PreparedVsFreshOracleUnderMutations) {
  for (int corpus = 0; corpus < 2; ++corpus) {
    rdf::Dataset initial = MakeCorpus(corpus);
    const std::vector<rdf::Triple> triples = initial.triples();
    DualStoreConfig cfg;
    cfg.graph_capacity_triples = initial.num_triples();
    OnlineStore store(initial, cfg);
    Session session(&store);

    Rng rng(GetParam() ^ 0xfeed);

    // Prepare a pool of parameterized queries once, up front.
    struct Prepared {
      sparql::Query bound;    // the equivalent constant-only query
      std::optional<PreparedQuery> handle;
      std::vector<std::pair<std::string, std::string>> bindings;
    };
    std::vector<Prepared> pool;
    for (int i = 0; i < 6; ++i) {
      const sparql::Query q = testing::RandomBgp(initial, &rng);
      Prepared p;
      p.bound = q;
      // Parameterize each constant endpoint with probability 1/2.
      sparql::Query tmpl = q;
      int next = 0;
      for (sparql::TriplePattern& tp : tmpl.patterns) {
        for (sparql::PatternTerm* end : {&tp.subject, &tp.object}) {
          if (end->is_variable || !rng.NextBool(0.5)) continue;
          const std::string name = "prm" + std::to_string(next++);
          p.bindings.emplace_back(name, end->text);
          *end = sparql::PatternTerm::Param(name);
        }
      }
      auto prepared = session.Prepare(tmpl.ToString());
      ASSERT_TRUE(prepared.ok()) << prepared.status() << "\n"
                                 << tmpl.ToString();
      p.handle.emplace(std::move(prepared).ValueOrDie());
      pool.push_back(std::move(p));
    }

    for (int round = 0; round < 6; ++round) {
      // ---- mutate the store -------------------------------------------
      if (round % 2 == 0) {
        // An update batch: inserts of novel facts + deletes of existing
        // triples (term strings survive via the initial triple list).
        UpdateBatch batch;
        for (int u = 0; u < 5; ++u) {
          if (rng.NextBool(0.5) && !triples.empty()) {
            const rdf::Triple& t = triples[rng.NextIndex(triples.size())];
            batch.ops.push_back(UpdateOp::Delete(
                std::string(initial.dict().TermOf(t.subject)),
                std::string(initial.dict().TermOf(t.predicate)),
                std::string(initial.dict().TermOf(t.object))));
          } else {
            const rdf::Triple& t = triples[rng.NextIndex(triples.size())];
            batch.ops.push_back(UpdateOp::Insert(
                "fresh:s" + std::to_string(round) + "_" + std::to_string(u),
                std::string(initial.dict().TermOf(t.predicate)),
                std::string(initial.dict().TermOf(t.object))));
          }
        }
        ASSERT_TRUE(store.ApplyUpdates(batch).ok());
      } else {
        // A tuning window: flip residency of a random predicate.
        ASSERT_TRUE(store.TuneExclusive([&](DualStore* s) {
          const std::vector<rdf::TermId> preds = s->table().Predicates();
          if (preds.empty()) return Status::OK();
          const rdf::TermId pred = preds[rng.NextIndex(preds.size())];
          CostMeter scratch;
          if (s->IsResident(pred)) {
            (void)s->EvictPartition(pred, &scratch);
          } else {
            (void)s->MigratePartition(pred, &scratch);
          }
          return Status::OK();
        }).ok());
      }

      // ---- every prepared handle vs a fresh execution -----------------
      for (Prepared& p : pool) {
        for (const auto& [name, term] : p.bindings) {
          // Terms referenced by the pool come from the immutable initial
          // triple list; deletes can only remove whole triples, not the
          // sampled subjects/objects used elsewhere — but a vanished
          // term is still possible, and then both paths must agree that
          // nothing matches.
          const Status s = p.handle->Bind(name, term);
          if (!s.ok()) {
            ASSERT_TRUE(s.IsNotFound()) << s;
          }
        }
        Result<QueryExecution> prepared_exec = p.handle->ExecuteAll();
        // A cache-cold session plans the bound text anew.
        Result<QueryExecution> fresh =
            Session(&store).Execute(p.bound.ToString());
        if (!prepared_exec.ok()) {
          // Only a vanished bound term may fail; the fresh path then
          // returns the empty result that constant could never match.
          ASSERT_TRUE(prepared_exec.status().IsNotFound())
              << prepared_exec.status();
          ASSERT_TRUE(fresh.ok()) << fresh.status();
          EXPECT_TRUE(fresh->result.empty());
          continue;
        }
        ASSERT_TRUE(fresh.ok()) << fresh.status();
        EXPECT_EQ(prepared_exec->route, fresh->route)
            << p.bound.ToString();
        EXPECT_TRUE(BindingTable::SameRows(prepared_exec->result,
                                           fresh->result))
            << "prepared diverged from fresh after round " << round << ": "
            << p.bound.ToString();
        EXPECT_DOUBLE_EQ(prepared_exec->rel_micros, fresh->rel_micros);
        EXPECT_DOUBLE_EQ(prepared_exec->graph_micros, fresh->graph_micros);
        EXPECT_DOUBLE_EQ(prepared_exec->migrate_micros,
                         fresh->migrate_micros);

        // And against a second, cache-cold session (a truly fresh
        // prepare of the same parameterized text).
        Session cold(&store);
        auto cold_prep = cold.Prepare(p.handle->text());
        ASSERT_TRUE(cold_prep.ok());
        bool bound_ok = true;
        for (const auto& [name, term] : p.bindings) {
          if (!cold_prep->Bind(name, term).ok()) bound_ok = false;
        }
        if (bound_ok) {
          auto cold_exec = cold_prep->ExecuteAll();
          ASSERT_TRUE(cold_exec.ok()) << cold_exec.status();
          EXPECT_TRUE(BindingTable::SameRows(cold_exec->result,
                                             fresh->result));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalenceTest,
                         ::testing::Values(11, 22, 33, 44));

// ---- slot-compiler edge cases ---------------------------------------------

class SlotCompilerEdgeTest : public ::testing::Test {
 protected:
  SlotCompilerEdgeTest() : ds_(testing::SmallPeopleGraph()) {
    CostMeter load;
    table_.BulkLoad(ds_.triples(), &load);
    ex_ = std::make_unique<Executor>(&table_, &ds_.dict());
  }

  rdf::Dataset ds_;
  TripleTable table_;
  std::unique_ptr<Executor> ex_;
};

TEST_F(SlotCompilerEdgeTest, DuplicateVariableAcrossAllPositions) {
  // The same variable in subject and object compiles to one slot; no row
  // of SmallPeopleGraph is reflexive, and the reference agrees.
  auto q = Parser::Parse("SELECT ?x WHERE { ?x marriedTo ?x . }");
  ASSERT_TRUE(q.ok());
  CostMeter meter;
  auto r = testing::ExecuteRel(*ex_, *q, &meter);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());

  // Variable repeated across *patterns* shares the slot through the
  // bound-variable set instead.
  auto q2 = Parser::Parse(
      "SELECT ?x WHERE { alice likes ?x . bob likes ?x . }");
  ASSERT_TRUE(q2.ok());
  CostMeter m2;
  auto r2 = testing::ExecuteRel(*ex_, *q2, &m2);
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->NumRows(), 1u);
  EXPECT_EQ(r2->At(0, 0), ds_.dict().Lookup("film1"));
}

// A select variable with no slot in any pattern (the parser rejects this
// at the surface syntax, so build the AST directly): with rows present
// the executor refuses rather than fabricating values; with no rows the
// header is still normalized to the full projection.
TEST_F(SlotCompilerEdgeTest, UnusedSelectVariableErrorsWhenRowsExist) {
  sparql::Query q;
  q.select_vars = {"p", "zz"};
  q.patterns.push_back({sparql::PatternTerm::Var("p"),
                        sparql::PatternTerm::Const("bornIn"),
                        sparql::PatternTerm::Const("berlin")});
  CostMeter meter;
  auto r = testing::ExecuteRel(*ex_, q, &meter);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
}

TEST_F(SlotCompilerEdgeTest, UnusedSelectVariableEmptyResultKeepsHeader) {
  sparql::Query q;
  q.select_vars = {"p", "zz"};
  q.patterns.push_back({sparql::PatternTerm::Var("p"),
                        sparql::PatternTerm::Const("bornIn"),
                        sparql::PatternTerm::Const("atlantis")});
  CostMeter meter;
  auto r = testing::ExecuteRel(*ex_, q, &meter);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->empty());
  EXPECT_EQ(r->columns, (std::vector<std::string>{"p", "zz"}));
}

TEST_F(SlotCompilerEdgeTest, SeedColumnOverlapJoinsAndCarries) {
  // Seed columns: one overlapping the remainder's variables (p, a join
  // column) and one the remainder never mentions (tag, carried through).
  BindingTable seed;
  seed.columns = {"p", "tag"};
  seed.AppendRow({ds_.dict().Lookup("alice"), 77});
  seed.AppendRow({ds_.dict().Lookup("carol"), 88});

  // ?tag only exists in the seed, so the surface parser would reject the
  // projection; build the AST directly (the dual-store remainder path
  // projects seed columns the same way).
  sparql::Query q;
  q.select_vars = {"p", "c", "tag"};
  q.patterns.push_back({sparql::PatternTerm::Var("p"),
                        sparql::PatternTerm::Const("bornIn"),
                        sparql::PatternTerm::Var("c")});
  CostMeter meter;
  auto r = testing::ExecuteRel(*ex_, q, &meter, &seed);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->NumRows(), 2u);
  r->Canonicalize();
  for (const BindingTable::RowView row : r->Rows()) {
    if (row[0] == ds_.dict().Lookup("alice")) {
      EXPECT_EQ(row[1], ds_.dict().Lookup("berlin"));
      EXPECT_EQ(row[2], 77u);
    } else {
      EXPECT_EQ(row[0], ds_.dict().Lookup("carol"));
      EXPECT_EQ(row[1], ds_.dict().Lookup("paris"));
      EXPECT_EQ(row[2], 88u);
    }
  }
}

TEST_F(SlotCompilerEdgeTest, SeedColumnsIdenticalToPatternVars) {
  // Full overlap: every remainder variable is already seeded — the join
  // degenerates to a filter and must not duplicate columns.
  BindingTable seed;
  seed.columns = {"p", "c"};
  seed.AppendRow({ds_.dict().Lookup("alice"), ds_.dict().Lookup("berlin")});
  seed.AppendRow({ds_.dict().Lookup("alice"), ds_.dict().Lookup("paris")});

  auto q = Parser::Parse("SELECT ?p ?c WHERE { ?p bornIn ?c . }");
  ASSERT_TRUE(q.ok());
  CostMeter meter;
  auto r = testing::ExecuteRel(*ex_, *q, &meter, &seed);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->NumRows(), 1u);  // only alice/berlin survives
  EXPECT_EQ(r->NumColumns(), 2u);
  EXPECT_EQ(r->At(0, 0), ds_.dict().Lookup("alice"));
  EXPECT_EQ(r->At(0, 1), ds_.dict().Lookup("berlin"));
}

}  // namespace
}  // namespace dskg::core
