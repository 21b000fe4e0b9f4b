// Workload runner tests: batching, metric accumulation, tuning hooks,
// averaged repetitions, and workload queries whose bound term updates
// deleted.

#include <gtest/gtest.h>

#include "core/baseline_tuners.h"
#include "core/dotil.h"
#include "core/online_store.h"
#include "core/runner.h"
#include "core/session.h"
#include "core/update.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/templates.h"

namespace dskg::core {
namespace {

workload::Workload SmallYagoWorkload(const rdf::Dataset& ds, bool ordered) {
  workload::WorkloadBuilder builder(&ds);
  workload::WorkloadOptions opt;
  opt.ordered = ordered;
  auto w = builder.Build("yago", workload::YagoTemplates(), opt);
  EXPECT_TRUE(w.ok()) << w.status();
  return std::move(w).ValueOrDie();
}

class RunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::YagoConfig cfg;
    cfg.target_triples = 15000;
    ds_ = workload::GenerateYago(cfg);
    DualStoreConfig scfg;
    scfg.graph_capacity_triples = ds_.num_triples() / 4;
    store_ = std::make_unique<DualStore>(&ds_, scfg);
  }

  rdf::Dataset ds_;
  std::unique_ptr<DualStore> store_;
};

TEST_F(RunnerTest, RunsAllQueriesInFiveBatches) {
  workload::Workload w = SmallYagoWorkload(ds_, /*ordered=*/true);
  ASSERT_EQ(w.queries.size(), 20u);
  WorkloadRunner runner(store_.get(), /*tuner=*/nullptr);
  auto m = runner.Run(w, 5);
  ASSERT_TRUE(m.ok()) << m.status();
  ASSERT_EQ(m->batches.size(), 5u);
  size_t total = 0;
  for (const auto& b : m->batches) {
    total += b.queries.size();
    EXPECT_EQ(b.queries.size(), 4u);
    EXPECT_GT(b.tti_micros, 0.0);
    EXPECT_DOUBLE_EQ(b.tuning_micros, 0.0);  // no tuner
  }
  EXPECT_EQ(total, 20u);
  EXPECT_GT(m->TotalTtiMicros(), 0.0);
  EXPECT_DOUBLE_EQ(m->TotalTuningMicros(), 0.0);
}

TEST_F(RunnerTest, BatchMetricsDecompose) {
  workload::Workload w = SmallYagoWorkload(ds_, true);
  WorkloadRunner runner(store_.get(), nullptr);
  auto m = runner.Run(w, 5);
  ASSERT_TRUE(m.ok());
  for (const auto& b : m->batches) {
    double sum = 0;
    for (const auto& q : b.queries) sum += q.total_micros;
    EXPECT_NEAR(b.tti_micros, sum, 1e-6);
    EXPECT_NEAR(b.tti_micros,
                b.graph_micros + b.rel_micros + b.migrate_micros, 1e-6);
  }
}

TEST_F(RunnerTest, DotilTuningCostIsOffline) {
  workload::Workload w = SmallYagoWorkload(ds_, true);
  DotilTuner tuner;
  WorkloadRunner runner(store_.get(), &tuner);
  auto m = runner.Run(w, 5);
  ASSERT_TRUE(m.ok()) << m.status();
  double tuning = m->TotalTuningMicros();
  EXPECT_GT(tuning, 0.0);  // migrations + training happened
  EXPECT_GT(store_->graph().used_triples(), 0u);
}

TEST_F(RunnerTest, GraphShareGrowsAfterTuning) {
  workload::Workload w = SmallYagoWorkload(ds_, true);
  DotilTuner tuner;
  WorkloadRunner runner(store_.get(), &tuner);
  auto first = runner.Run(w, 5);
  ASSERT_TRUE(first.ok());
  // Second pass over the same workload: the store is warm, so most
  // complex queries route through the graph store.
  auto second = runner.Run(w, 5);
  ASSERT_TRUE(second.ok());
  EXPECT_LT(second->TotalTtiMicros(), first->TotalTtiMicros());
}

TEST_F(RunnerTest, OneOffTuningChargedToFirstBatch) {
  workload::Workload w = SmallYagoWorkload(ds_, true);
  OneOffTuner tuner;
  WorkloadRunner runner(store_.get(), &tuner);
  auto m = runner.Run(w, 5);
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_GT(m->batches[0].tuning_micros, 0.0);
  for (size_t b = 1; b < m->batches.size(); ++b) {
    EXPECT_DOUBLE_EQ(m->batches[b].tuning_micros, 0.0);
  }
}

TEST_F(RunnerTest, RunAveragedValidatesArguments) {
  workload::Workload w = SmallYagoWorkload(ds_, true);
  WorkloadRunner runner(store_.get(), nullptr);
  EXPECT_TRUE(runner.RunAveraged(w, 5, /*reps=*/1, /*warmup=*/1)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(RunnerTest, RunAveragedAveragesTrailingReps) {
  workload::Workload w = SmallYagoWorkload(ds_, true);
  // Without a tuner the store is stateless across reps, so the average
  // equals a single run.
  WorkloadRunner runner(store_.get(), nullptr);
  auto single = runner.Run(w, 5);
  ASSERT_TRUE(single.ok());
  auto averaged = runner.RunAveraged(w, 5, /*reps=*/3, /*warmup=*/1);
  ASSERT_TRUE(averaged.ok());
  ASSERT_EQ(averaged->batches.size(), 5u);
  for (size_t b = 0; b < 5; ++b) {
    EXPECT_NEAR(averaged->batches[b].tti_micros,
                single->batches[b].tti_micros, 1.0);
  }
}

TEST_F(RunnerTest, UnevenBatchSplit) {
  workload::Workload w = SmallYagoWorkload(ds_, true);
  WorkloadRunner runner(store_.get(), nullptr);
  auto m = runner.Run(w, 3);  // 20 queries -> 7 + 7 + 6
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m->batches.size(), 3u);
  EXPECT_EQ(m->batches[0].queries.size(), 7u);
  EXPECT_EQ(m->batches[1].queries.size(), 7u);
  EXPECT_EQ(m->batches[2].queries.size(), 6u);
}


// ---- a bound term that updates deleted -------------------------------------
//
// Once an update batch deletes the last triple naming a workload query's
// bound constant, the term leaves the dictionary and `Bind` answers
// NotFound. The constant must then simply match nothing: the runner
// executes the query's bound text, and its trace must equal that text's
// own execution on the same store state.

constexpr const char* kSameCityAdvisors =
    "SELECT ?p WHERE { ?p bornIn $c . ?p advisor ?a . ?a bornIn $c . }";

workload::Workload SameCityWorkload() {
  workload::WorkloadQuery wq;
  wq.prepared_text = kSameCityAdvisors;
  wq.bindings = {{"c", "berlin"}};
  workload::Workload w;
  w.name = "same-city";
  w.queries.push_back(std::move(wq));
  return w;
}

/// Deletes every SmallPeopleGraph triple that names berlin.
UpdateBatch DeleteBerlin() {
  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::Delete("alice", "bornIn", "berlin"));
  batch.ops.push_back(UpdateOp::Delete("bob", "bornIn", "berlin"));
  return batch;
}

/// Checks `trace` against `Session::Execute` of the bound text on `store`
/// (a `DualStore` or an `OnlineStore`).
template <typename Store>
void ExpectTraceEqualsBoundText(Store* store, const QueryTrace& trace) {
  Session session(store);
  auto prepared = session.Prepare(kSameCityAdvisors);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  ASSERT_TRUE(prepared->Bind("c", "berlin").IsNotFound())
      << "berlin is still in the dictionary; the case is not exercised";

  auto bound = workload::BoundQuery(SameCityWorkload().queries[0]);
  ASSERT_TRUE(bound.ok()) << bound.status();
  auto want = session.Execute(bound->ToString());
  ASSERT_TRUE(want.ok()) << want.status();
  EXPECT_EQ(want->result.NumRows(), 0u);
  EXPECT_EQ(trace.result_rows, 0u);
  EXPECT_EQ(trace.route, want->route);
  EXPECT_EQ(trace.rel_micros, want->rel_micros);
  EXPECT_EQ(trace.graph_micros, want->graph_micros);
  EXPECT_EQ(trace.migrate_micros, want->migrate_micros);
  EXPECT_EQ(trace.total_micros, want->total_micros());
}

TEST(RunnerDeletedTermTest, OfflineRunExecutesTheBoundText) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStoreConfig cfg;
  cfg.graph_capacity_triples = ds.num_triples();
  DualStore store(&ds, cfg);
  // Both partitions resident: the query takes the graph route.
  CostMeter load;
  for (const char* pred : {"bornIn", "advisor"}) {
    ASSERT_TRUE(store.MigratePartition(ds.dict().Lookup(pred), &load).ok());
  }
  auto applied = store.ApplyUpdates(DeleteBerlin());
  ASSERT_TRUE(applied.ok()) << applied.status();
  ASSERT_EQ(applied->deleted, 2u);

  WorkloadRunner runner(&store, /*tuner=*/nullptr);
  auto m = runner.Run(SameCityWorkload(), /*num_batches=*/1);
  ASSERT_TRUE(m.ok()) << m.status();
  ASSERT_EQ(m->batches.size(), 1u);
  ASSERT_EQ(m->batches[0].queries.size(), 1u);
  EXPECT_EQ(m->batches[0].queries[0].route, Route::kGraphOnly);
  ExpectTraceEqualsBoundText(&store, m->batches[0].queries[0]);
}

TEST(RunnerDeletedTermTest, OnlineRunExecutesTheBoundText) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStoreConfig cfg;
  cfg.graph_capacity_triples = ds.num_triples();
  OnlineStore store(ds, cfg);
  ASSERT_TRUE(store
                  .TuneExclusive([](DualStore* s) {
                    CostMeter load;
                    for (const char* pred : {"bornIn", "advisor"}) {
                      DSKG_RETURN_NOT_OK(s->MigratePartition(
                          s->dict().Lookup(pred), &load));
                    }
                    return Status::OK();
                  })
                  .ok());
  UpdateLog log;
  log.Append(DeleteBerlin());

  WorkloadRunner runner(/*store=*/nullptr, /*tuner=*/nullptr);
  OnlineRunOptions opt;
  opt.num_batches = 1;
  // No pool: the window's updates apply before its queries run.
  auto m = runner.RunOnline(&store, SameCityWorkload(), log, opt,
                            /*pool=*/nullptr);
  ASSERT_TRUE(m.ok()) << m.status();
  ASSERT_EQ(m->batches.size(), 1u);
  EXPECT_EQ(m->batches[0].deleted, 2u);
  ASSERT_EQ(m->batches[0].queries.size(), 1u);
  EXPECT_EQ(m->batches[0].queries[0].route, Route::kGraphOnly);
  ExpectTraceEqualsBoundText(&store, m->batches[0].queries[0]);
}

}  // namespace
}  // namespace dskg::core
