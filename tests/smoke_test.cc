// End-to-end smoke test: build a small YAGO-like graph, run the paper's
// flagship query through all three store variants, and check the answers
// agree.

#include <gtest/gtest.h>

#include "core/dotil.h"
#include "core/dual_store.h"
#include "core/runner.h"
#include "core/session.h"
#include "workload/generators.h"
#include "workload/templates.h"

namespace dskg {
namespace {

TEST(Smoke, FlagshipQueryAgreesAcrossVariants) {
  workload::YagoConfig cfg;
  cfg.target_triples = 20000;
  rdf::Dataset ds = workload::GenerateYago(cfg);
  ASSERT_GT(ds.num_triples(), 10000u);

  const char* kQuery =
      "SELECT ?p WHERE { ?p y:wasBornIn ?city . "
      "?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city . }";

  core::DualStoreConfig rdb_only;
  rdb_only.use_graph = false;
  core::DualStore only(&ds, rdb_only);
  auto r1 = core::Session(&only).Execute(kQuery);
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_EQ(r1->route, core::Route::kRelationalOnly);
  EXPECT_GT(r1->result.NumRows(), 0u);

  core::DualStoreConfig gdb;
  gdb.use_graph = true;
  core::DualStore dual(&ds, gdb);
  // Load the two partitions the query needs.
  CostMeter meter;
  ASSERT_TRUE(
      dual.MigratePartition(ds.dict().Lookup("y:wasBornIn"), &meter).ok());
  ASSERT_TRUE(
      dual.MigratePartition(ds.dict().Lookup("y:hasAcademicAdvisor"), &meter)
          .ok());
  auto r2 = core::Session(&dual).Execute(kQuery);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(r2->route, core::Route::kGraphOnly);
  EXPECT_TRUE(sparql::BindingTable::SameRows(r1->result, r2->result));
  // The accelerator should beat the relational plan on this query.
  EXPECT_LT(r2->graph_micros, r1->rel_micros);
}

}  // namespace
}  // namespace dskg
