/// Parallel-vs-serial equivalence: the whole value of the parallel
/// subsystem rests on it changing *nothing* about results or simulated
/// costs. These tests pin that down on the hand-checkable SmallPeopleGraph
/// and on a generated YAGO workload:
///
///   * `WorkloadRunner::Run` with a pool must produce bit-identical
///     metrics (TTI, tuning, per-query traces) to `Run` without one;
///   * concurrent `Session::Execute` calls on one session must return the
///     same binding tables as serial calls.

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/dotil.h"
#include "core/dual_store.h"
#include "core/runner.h"
#include "core/session.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/templates.h"
#include "workload/workload.h"

namespace dskg::core {
namespace {

using sparql::BindingTable;
using workload::Workload;
using workload::WorkloadQuery;

Workload SmallWorkload() {
  const char* texts[] = {
      "SELECT ?p WHERE { ?p bornIn ?c . ?p advisor ?a . ?a bornIn ?c . }",
      "SELECT ?p ?f WHERE { ?p likes ?f . ?f genre drama . }",
      "SELECT ?s WHERE { ?s bornIn berlin . }",
      "SELECT ?a ?b WHERE { ?a marriedTo ?b . }",
      "SELECT ?x ?y WHERE { ?x advisor ?y . ?y likes ?f . }",
      "SELECT ?p WHERE { ?p bornIn paris . ?p likes ?f . ?f genre comedy . }",
  };
  Workload w;
  w.name = "small";
  int idx = 0;
  for (const char* t : texts) {
    WorkloadQuery wq;
    wq.prepared_text = t;
    wq.template_index = idx++;
    w.queries.push_back(std::move(wq));
  }
  return w;
}

void ExpectSameMetrics(const RunMetrics& serial, const RunMetrics& parallel) {
  ASSERT_EQ(serial.batches.size(), parallel.batches.size());
  EXPECT_EQ(serial.TotalTtiMicros(), parallel.TotalTtiMicros());
  EXPECT_EQ(serial.TotalTuningMicros(), parallel.TotalTuningMicros());
  for (size_t b = 0; b < serial.batches.size(); ++b) {
    const BatchMetrics& sb = serial.batches[b];
    const BatchMetrics& pb = parallel.batches[b];
    EXPECT_EQ(sb.tti_micros, pb.tti_micros) << "batch " << b;
    EXPECT_EQ(sb.graph_micros, pb.graph_micros) << "batch " << b;
    EXPECT_EQ(sb.rel_micros, pb.rel_micros) << "batch " << b;
    EXPECT_EQ(sb.migrate_micros, pb.migrate_micros) << "batch " << b;
    EXPECT_EQ(sb.tuning_micros, pb.tuning_micros) << "batch " << b;
    ASSERT_EQ(sb.queries.size(), pb.queries.size()) << "batch " << b;
    for (size_t q = 0; q < sb.queries.size(); ++q) {
      EXPECT_EQ(sb.queries[q].route, pb.queries[q].route);
      EXPECT_EQ(sb.queries[q].total_micros, pb.queries[q].total_micros);
      EXPECT_EQ(sb.queries[q].result_rows, pb.queries[q].result_rows);
    }
  }
}

TEST(ParallelEquivalenceTest, PooledRunMatchesRunOnSmallPeopleGraph) {
  const Workload w = SmallWorkload();
  ThreadPool pool(4);

  // Two identical stores: tuning mutates store state, so serial and
  // parallel runs each get a fresh one.
  rdf::Dataset ds1 = testing::SmallPeopleGraph();
  rdf::Dataset ds2 = testing::SmallPeopleGraph();
  DualStoreConfig cfg;
  cfg.graph_capacity_triples = 8;
  DualStore serial_store(&ds1, cfg);
  DualStore parallel_store(&ds2, cfg);
  DotilTuner serial_tuner;
  DotilTuner parallel_tuner;

  WorkloadRunner serial_runner(&serial_store, &serial_tuner);
  WorkloadRunner parallel_runner(&parallel_store, &parallel_tuner);

  auto sm = serial_runner.Run(w, /*num_batches=*/3);
  ASSERT_TRUE(sm.ok()) << sm.status();
  auto pm = parallel_runner.Run(w, /*num_batches=*/3, &pool);
  ASSERT_TRUE(pm.ok()) << pm.status();
  ExpectSameMetrics(*sm, *pm);
}

TEST(ParallelEquivalenceTest, PooledRunMatchesRunOnYagoWorkload) {
  workload::YagoConfig gen;
  gen.target_triples = 20000;
  rdf::Dataset ds1 = workload::GenerateYago(gen);
  rdf::Dataset ds2 = workload::GenerateYago(gen);

  workload::WorkloadBuilder builder(&ds1);
  auto w = builder.Build("yago", workload::YagoTemplates(), {});
  ASSERT_TRUE(w.ok()) << w.status();

  DualStoreConfig cfg;
  cfg.graph_capacity_triples = ds1.num_triples() / 4;
  DualStore serial_store(&ds1, cfg);
  DualStore parallel_store(&ds2, cfg);
  DotilTuner serial_tuner;
  DotilTuner parallel_tuner;

  WorkloadRunner serial_runner(&serial_store, &serial_tuner);
  WorkloadRunner parallel_runner(&parallel_store, &parallel_tuner);

  auto sm = serial_runner.Run(*w, /*num_batches=*/5);
  ASSERT_TRUE(sm.ok()) << sm.status();
  ThreadPool pool(4);
  auto pm = parallel_runner.Run(*w, /*num_batches=*/5, &pool);
  ASSERT_TRUE(pm.ok()) << pm.status();
  ExpectSameMetrics(*sm, *pm);
}

TEST(ParallelEquivalenceTest, ConcurrentExecuteReturnsSameBindingTables) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStoreConfig cfg;
  cfg.graph_capacity_triples = 8;
  DualStore store(&ds, cfg);
  Session session(&store);
  const Workload w = SmallWorkload();

  std::vector<BindingTable> serial(w.queries.size());
  for (size_t i = 0; i < w.queries.size(); ++i) {
    auto exec = session.Execute(w.queries[i].prepared_text);
    ASSERT_TRUE(exec.ok()) << exec.status();
    serial[i] = exec->result;
  }

  ThreadPool pool(4);
  std::vector<BindingTable> parallel(w.queries.size());
  for (int round = 0; round < 4; ++round) {
    pool.ParallelFor(w.queries.size(), [&](size_t i) {
      auto exec = session.Execute(w.queries[i].prepared_text);
      ASSERT_TRUE(exec.ok()) << exec.status();
      parallel[i] = exec->result;
    });
    for (size_t i = 0; i < w.queries.size(); ++i) {
      EXPECT_TRUE(BindingTable::SameRows(serial[i], parallel[i]))
          << "query " << i << " round " << round;
    }
  }
}

}  // namespace
}  // namespace dskg::core
