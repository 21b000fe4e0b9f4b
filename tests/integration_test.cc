// Cross-module integration tests: every workload query returns identical
// results through the relational-only store and through a fully loaded
// graph store, and a full DOTIL-tuned workload run is deterministic and
// faster than RDB-only.

#include <gtest/gtest.h>

#include "core/dotil.h"
#include "core/dual_store.h"
#include "core/runner.h"
#include "core/session.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/templates.h"

namespace dskg {
namespace {

struct WorkloadCase {
  const char* name;
  int kind;  // 0 = yago, 1 = watdiv, 2 = bio2rdf
  std::vector<workload::QueryTemplate> (*templates)();
};

class CrossEngineEquivalenceTest
    : public ::testing::TestWithParam<WorkloadCase> {};

TEST_P(CrossEngineEquivalenceTest, AllQueriesAgreeAcrossEngines) {
  const WorkloadCase& wc = GetParam();
  rdf::Dataset ds;
  switch (wc.kind) {
    case 0: {
      workload::YagoConfig c;
      c.target_triples = 12000;
      ds = workload::GenerateYago(c);
      break;
    }
    case 1: {
      workload::WatDivConfig c;
      c.target_triples = 12000;
      ds = workload::GenerateWatDiv(c);
      break;
    }
    default: {
      workload::Bio2RdfConfig c;
      c.target_triples = 14000;
      ds = workload::GenerateBio2Rdf(c);
      break;
    }
  }

  workload::WorkloadBuilder builder(&ds);
  auto w = builder.Build(wc.name, wc.templates(), workload::WorkloadOptions{});
  ASSERT_TRUE(w.ok()) << w.status();

  // Store A: relational only.
  core::DualStoreConfig rel_cfg;
  rel_cfg.use_graph = false;
  core::DualStore rel(&ds, rel_cfg);

  // Store B: graph store with EVERY partition resident (unlimited budget),
  // so any query with a complex subquery routes through the graph.
  core::DualStoreConfig gdb_cfg;
  core::DualStore dual(&ds, gdb_cfg);
  CostMeter meter;
  for (const auto& part : ds.AllPartitions()) {
    ASSERT_TRUE(dual.MigratePartition(part.predicate, &meter).ok());
  }

  core::Session rel_session(&rel);
  core::Session dual_session(&dual);
  for (const auto& wq : w->queries) {
    auto bound = workload::BoundQuery(wq);
    ASSERT_TRUE(bound.ok()) << bound.status();
    const std::string text = bound->ToString();
    auto a = rel_session.Execute(text);
    ASSERT_TRUE(a.ok()) << a.status() << "\n" << text;
    EXPECT_EQ(a->route, core::Route::kRelationalOnly);
    auto b = dual_session.Execute(text);
    ASSERT_TRUE(b.ok()) << b.status() << "\n" << text;
    EXPECT_TRUE(
        sparql::BindingTable::SameRows(a->result, b->result))
        << text << "\nrel rows: " << a->result.NumRows()
        << " dual rows: " << b->result.NumRows()
        << " route: " << core::RouteName(b->route);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, CrossEngineEquivalenceTest,
    ::testing::Values(
        WorkloadCase{"yago", 0, &workload::YagoTemplates},
        WorkloadCase{"watdiv_l", 1, &workload::WatDivLinearTemplates},
        WorkloadCase{"watdiv_s", 1, &workload::WatDivStarTemplates},
        WorkloadCase{"watdiv_f", 1, &workload::WatDivSnowflakeTemplates},
        WorkloadCase{"watdiv_c", 1, &workload::WatDivComplexTemplates},
        WorkloadCase{"bio2rdf", 2, &workload::Bio2RdfTemplates}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(EndToEnd, DotilRunIsDeterministic) {
  auto run_once = []() {
    workload::YagoConfig c;
    c.target_triples = 12000;
    rdf::Dataset ds = workload::GenerateYago(c);
    workload::WorkloadBuilder builder(&ds);
    auto w = builder.Build("yago", workload::YagoTemplates(),
                           workload::WorkloadOptions{});
    EXPECT_TRUE(w.ok());
    core::DualStoreConfig cfg;
    cfg.graph_capacity_triples = ds.num_triples() / 4;
    core::DualStore store(&ds, cfg);
    core::DotilTuner tuner;
    core::WorkloadRunner runner(&store, &tuner);
    auto m = runner.Run(*w, 5);
    EXPECT_TRUE(m.ok());
    return m->TotalTtiMicros();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(EndToEnd, WarmDualStoreBeatsRdbOnly) {
  workload::YagoConfig c;
  c.target_triples = 20000;
  rdf::Dataset ds1 = workload::GenerateYago(c);
  rdf::Dataset ds2 = workload::GenerateYago(c);

  workload::WorkloadBuilder builder(&ds1);
  auto w = builder.Build("yago", workload::YagoTemplates(),
                         workload::WorkloadOptions{});
  ASSERT_TRUE(w.ok());

  core::DualStoreConfig rel_cfg;
  rel_cfg.use_graph = false;
  core::DualStore rel(&ds1, rel_cfg);
  core::WorkloadRunner rel_runner(&rel, nullptr);
  auto rel_m = rel_runner.Run(*w, 5);
  ASSERT_TRUE(rel_m.ok());

  core::DualStoreConfig gdb_cfg;
  gdb_cfg.graph_capacity_triples = ds2.num_triples() / 4;
  core::DualStore dual(&ds2, gdb_cfg);
  core::DotilTuner tuner;
  core::WorkloadRunner dual_runner(&dual, &tuner);
  auto warm = dual_runner.RunAveraged(*w, 5, /*reps=*/3, /*warmup=*/1);
  ASSERT_TRUE(warm.ok());

  EXPECT_LT(warm->TotalTtiMicros(), rel_m->TotalTtiMicros());
}

}  // namespace
}  // namespace dskg
