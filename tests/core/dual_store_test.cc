// DualStore facade tests: construction, routing (Algorithm 3 cases),
// migration/eviction admin, the Algorithm 2 cost probes, and knowledge
// updates.

#include <gtest/gtest.h>

#include "core/dual_store.h"
#include "core/session.h"
#include "sparql/parser.h"
#include "test_util.h"

namespace dskg::core {
namespace {

constexpr const char* kFlagship =
    "SELECT ?p WHERE { ?p bornIn ?c . ?p advisor ?a . ?a bornIn ?c . }";

class DualStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = testing::SmallPeopleGraph();
    DualStoreConfig cfg;
    cfg.graph_capacity_triples = 10;
    store_ = std::make_unique<DualStore>(&ds_, cfg);
    session_ = std::make_unique<Session>(store_.get());
  }

  rdf::TermId Id(const std::string& s) { return ds_.dict().Lookup(s); }

  Result<QueryExecution> Execute(std::string_view text) {
    return session_->Execute(text);
  }

  rdf::Dataset ds_;
  std::unique_ptr<DualStore> store_;
  std::unique_ptr<Session> session_;
};

TEST_F(DualStoreTest, LoadsEntireGraphIntoRelationalStore) {
  EXPECT_EQ(store_->table().size(), ds_.num_triples());
  EXPECT_EQ(store_->graph().used_triples(), 0u);  // graph starts empty
  EXPECT_GT(store_->load_micros(), 0.0);
}

TEST_F(DualStoreTest, Case3RelationalWhenGraphEmpty) {
  auto r = Execute(kFlagship);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->route, Route::kRelationalOnly);
  EXPECT_EQ(r->result.NumRows(), 2u);
  EXPECT_GT(r->rel_micros, 0.0);
  EXPECT_DOUBLE_EQ(r->graph_micros, 0.0);
}

TEST_F(DualStoreTest, Case1GraphOnlyWhenCovered) {
  CostMeter meter;
  ASSERT_TRUE(store_->MigratePartition(Id("bornIn"), &meter).ok());
  ASSERT_TRUE(store_->MigratePartition(Id("advisor"), &meter).ok());
  auto r = Execute(kFlagship);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->route, Route::kGraphOnly);
  EXPECT_EQ(r->result.NumRows(), 2u);
  EXPECT_GT(r->graph_micros, 0.0);
  EXPECT_DOUBLE_EQ(r->rel_micros, 0.0);
}

TEST_F(DualStoreTest, Case2DualStoreWhenOnlySubqueryCovered) {
  CostMeter meter;
  ASSERT_TRUE(store_->MigratePartition(Id("bornIn"), &meter).ok());
  ASSERT_TRUE(store_->MigratePartition(Id("advisor"), &meter).ok());
  // marriedTo is NOT resident: the query spans both stores.
  auto r = Execute(
      "SELECT ?s WHERE { ?p bornIn ?c . ?p advisor ?a . ?a bornIn ?c . "
      "?s marriedTo ?p . }");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->route, Route::kDualStore);
  ASSERT_EQ(r->result.NumRows(), 1u);  // alice marriedTo bob
  EXPECT_GT(r->graph_micros, 0.0);
  EXPECT_GT(r->rel_micros, 0.0);
  EXPECT_GT(r->migrate_micros, 0.0);
}

TEST_F(DualStoreTest, DualRouteAgreesWithRelationalRoute) {
  const char* query =
      "SELECT ?p ?s WHERE { ?p bornIn ?c . ?p advisor ?a . ?a bornIn ?c . "
      "?s marriedTo ?p . }";
  auto rel = Execute(query);
  ASSERT_TRUE(rel.ok());
  ASSERT_EQ(rel->route, Route::kRelationalOnly);

  CostMeter meter;
  ASSERT_TRUE(store_->MigratePartition(Id("bornIn"), &meter).ok());
  ASSERT_TRUE(store_->MigratePartition(Id("advisor"), &meter).ok());
  auto dual = Execute(query);
  ASSERT_TRUE(dual.ok());
  ASSERT_EQ(dual->route, Route::kDualStore);
  EXPECT_TRUE(sparql::BindingTable::SameRows(rel->result, dual->result));
}

TEST_F(DualStoreTest, MigrationRespectsBudget) {
  CostMeter meter;
  // bornIn (4) + advisor (3) + likes (4) = 11 > capacity 10.
  ASSERT_TRUE(store_->MigratePartition(Id("bornIn"), &meter).ok());
  ASSERT_TRUE(store_->MigratePartition(Id("advisor"), &meter).ok());
  EXPECT_TRUE(
      store_->MigratePartition(Id("likes"), &meter).IsCapacityExceeded());
  // Evicting advisor makes room.
  ASSERT_TRUE(store_->EvictPartition(Id("advisor"), &meter).ok());
  EXPECT_TRUE(store_->MigratePartition(Id("likes"), &meter).ok());
}

TEST_F(DualStoreTest, MigrationChargesTransferAndImport) {
  CostMeter meter;
  ASSERT_TRUE(store_->MigratePartition(Id("bornIn"), &meter).ok());
  EXPECT_EQ(meter.count(Op::kMigratePartitionTriple), 4u);
  EXPECT_EQ(meter.count(Op::kImportTriple), 4u);
}

TEST_F(DualStoreTest, MigrateErrors) {
  CostMeter meter;
  EXPECT_TRUE(store_->MigratePartition(999999, &meter).IsNotFound());
  ASSERT_TRUE(store_->MigratePartition(Id("bornIn"), &meter).ok());
  EXPECT_TRUE(
      store_->MigratePartition(Id("bornIn"), &meter).IsAlreadyExists());
}

TEST_F(DualStoreTest, PartitionSizeMatchesTable) {
  EXPECT_EQ(store_->PartitionSize(Id("bornIn")), 4u);
  EXPECT_EQ(store_->PartitionSize(Id("genre")), 2u);
  EXPECT_EQ(store_->PartitionSize(999999), 0u);
}

TEST_F(DualStoreTest, GraphQueryCostProbe) {
  CostMeter meter;
  ASSERT_TRUE(store_->MigratePartition(Id("bornIn"), &meter).ok());
  ASSERT_TRUE(store_->MigratePartition(Id("advisor"), &meter).ok());
  auto q = sparql::Parser::Parse(kFlagship);
  ASSERT_TRUE(q.ok());
  CostMeter probe;
  auto c1 = store_->GraphQueryCost(*q, &probe);
  ASSERT_TRUE(c1.ok()) << c1.status();
  EXPECT_GT(*c1, 0.0);
  EXPECT_GT(probe.sim_micros(), 0.0);  // charged to the tuning meter
}

TEST_F(DualStoreTest, CounterfactualCutoffCapsCost) {
  auto q = sparql::Parser::Parse(kFlagship);
  ASSERT_TRUE(q.ok());
  CostMeter probe;
  // Absurdly small budget: the relational run must be cut off at it.
  auto c2 = store_->RelationalQueryCostWithCutoff(*q, 0.1, &probe);
  ASSERT_TRUE(c2.ok()) << c2.status();
  EXPECT_DOUBLE_EQ(*c2, 0.1);
  // Generous budget: the actual cost comes back.
  CostMeter probe2;
  auto full = store_->RelationalQueryCostWithCutoff(*q, 1e9, &probe2);
  ASSERT_TRUE(full.ok());
  EXPECT_GT(*full, 0.1);
  EXPECT_LT(*full, 1e9);
}

TEST_F(DualStoreTest, InsertUpdatesBothStoresWhenResident) {
  CostMeter meter;
  ASSERT_TRUE(store_->MigratePartition(Id("likes"), &meter).ok());
  const uint64_t before = store_->graph().PartitionTriples(Id("likes"));
  ASSERT_TRUE(store_->Insert("eve", "likes", "film1", &meter).ok());
  EXPECT_EQ(store_->graph().PartitionTriples(Id("likes")), before + 1);
  // And queryable relationally immediately.
  auto r = Execute("SELECT ?p WHERE { ?p bornIn ?c . }");
  ASSERT_TRUE(r.ok());
  auto r2 = Execute("SELECT ?f WHERE { eve likes ?f . }");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->result.NumRows(), 1u);
}

TEST_F(DualStoreTest, InsertIntoNonResidentPartitionOnlyTouchesTable) {
  CostMeter meter;
  const uint64_t graph_before = store_->graph().used_triples();
  ASSERT_TRUE(store_->Insert("eve", "bornIn", "berlin", &meter).ok());
  EXPECT_EQ(store_->graph().used_triples(), graph_before);
  EXPECT_EQ(store_->table().size(), ds_.num_triples());
}

TEST_F(DualStoreTest, ParseErrorsSurface) {
  auto r = Execute("SELETC ?p WHERE { }");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

TEST(DualStoreVariants, ViewsVariantUsesViewRoute) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStoreConfig cfg;
  cfg.use_graph = false;
  cfg.use_views = true;
  cfg.views_budget_rows = 100;
  DualStore store(&ds, cfg);
  ASSERT_NE(store.views(), nullptr);

  // Materialize the flagship complex subquery as a view.
  auto q = sparql::Parser::Parse(kFlagship);
  ASSERT_TRUE(q.ok());
  auto split = ComplexSubqueryIdentifier::Identify(*q);
  ASSERT_TRUE(split.HasComplexSubquery());
  CostMeter meter;
  ASSERT_TRUE(store.views()->CreateView(*split.complex, &meter).ok());

  auto r = Session(&store).Execute(kFlagship);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->route, Route::kViewAssisted);
  EXPECT_EQ(r->result.NumRows(), 2u);
}

TEST(DualStoreVariants, RdbOnlyNeverRoutesToGraph) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStoreConfig cfg;
  cfg.use_graph = false;
  DualStore store(&ds, cfg);
  auto r = Session(&store).Execute(kFlagship);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->route, Route::kRelationalOnly);
}

}  // namespace
}  // namespace dskg::core
