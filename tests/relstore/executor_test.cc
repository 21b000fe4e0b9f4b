// Relational executor tests: hand-checked joins, seeded execution,
// budget aborts, and randomized differential testing against the
// brute-force reference evaluator.

#include <gtest/gtest.h>

#include "relstore/executor.h"
#include "sparql/parser.h"
#include "test_util.h"
#include "workload/generators.h"

namespace dskg::relstore {
namespace {

using sparql::BindingTable;
using sparql::Parser;

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = testing::SmallPeopleGraph();
    CostMeter meter;
    table_.BulkLoad(ds_.triples(), &meter);
    executor_ = std::make_unique<Executor>(&table_, &ds_.dict());
  }

  BindingTable Run(const std::string& text) {
    auto q = Parser::Parse(text);
    EXPECT_TRUE(q.ok()) << q.status();
    CostMeter meter;
    auto r = testing::ExecuteRel(*executor_, *q, &meter);
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(r).ValueOrDie();
  }

  rdf::Dataset ds_;
  TripleTable table_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(ExecutorTest, SinglePatternScan) {
  BindingTable r = Run("SELECT ?p WHERE { ?p bornIn berlin . }");
  EXPECT_EQ(r.NumRows(), 2u);  // alice, bob
}

TEST_F(ExecutorTest, TwoWayJoin) {
  // People born in the same city as their advisor: bob (alice/berlin)
  // and dave (carol/paris).
  BindingTable r = Run(
      "SELECT ?p WHERE { ?p bornIn ?c . ?p advisor ?a . ?a bornIn ?c . }");
  ASSERT_EQ(r.NumRows(), 2u);
  r.Canonicalize();
  std::set<rdf::TermId> people = {r.At(0, 0), r.At(1, 0)};
  EXPECT_TRUE(people.count(ds_.dict().Lookup("bob")));
  EXPECT_TRUE(people.count(ds_.dict().Lookup("dave")));
}

TEST_F(ExecutorTest, UnknownConstantYieldsEmptyWithHeader) {
  BindingTable r = Run("SELECT ?p WHERE { ?p bornIn atlantis . }");
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.columns, std::vector<std::string>{"p"});
}

TEST_F(ExecutorTest, RepeatedVariableWithinPattern) {
  // ?x likes ?x matches nothing here.
  BindingTable r = Run("SELECT ?x WHERE { ?x likes ?x . }");
  EXPECT_TRUE(r.empty());
}

TEST_F(ExecutorTest, VariablePredicate) {
  BindingTable r = Run("SELECT ?rel WHERE { alice ?rel bob . }");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.At(0, 0), ds_.dict().Lookup("marriedTo"));
}

TEST_F(ExecutorTest, CartesianProductWhenDisconnected) {
  BindingTable r = Run(
      "SELECT ?a ?b WHERE { ?a genre drama . ?b genre comedy . }");
  ASSERT_EQ(r.NumRows(), 1u);  // film1 x film2
}

TEST_F(ExecutorTest, SelectStarProjectsAllVariables) {
  BindingTable r = Run("SELECT * WHERE { ?p likes ?f . ?f genre ?g . }");
  EXPECT_EQ(r.columns.size(), 3u);
  EXPECT_EQ(r.NumRows(), 4u);
}

TEST_F(ExecutorTest, DuplicateResultsPreserved) {
  // Two people like film1 and two like film2 -> co-like pairs include
  // symmetric and self pairs (SELECT without DISTINCT keeps them all).
  BindingTable r =
      Run("SELECT ?a ?b WHERE { ?a likes ?f . ?b likes ?f . }");
  EXPECT_EQ(r.NumRows(), 8u);  // 2^2 + 2^2
}

TEST_F(ExecutorTest, SeededExecutionJoinsByColumnName) {
  // Seed with two people; the remainder looks up their birth city.
  BindingTable seed;
  seed.columns = {"p"};
  seed.AppendRow({ds_.dict().Lookup("alice")});
  seed.AppendRow({ds_.dict().Lookup("carol")});
  auto q = Parser::Parse("SELECT ?p ?c WHERE { ?p bornIn ?c . }");
  ASSERT_TRUE(q.ok());
  CostMeter meter;
  auto r = testing::ExecuteRel(*executor_, *q, &meter, &seed);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->NumRows(), 2u);
  // Each row's city matches the seeded person, not the cross product.
  for (const auto row : r->Rows()) {
    if (row[0] == ds_.dict().Lookup("alice")) {
      EXPECT_EQ(row[1], ds_.dict().Lookup("berlin"));
    } else {
      EXPECT_EQ(row[1], ds_.dict().Lookup("paris"));
    }
  }
}

TEST_F(ExecutorTest, BudgetCancelsExpensiveQuery) {
  auto q = Parser::Parse("SELECT ?a ?b WHERE { ?a likes ?f . ?b likes ?f . }");
  ASSERT_TRUE(q.ok());
  CostMeter meter;
  meter.set_budget_micros(0.5);
  auto r = testing::ExecuteRel(*executor_, *q, &meter);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled());
}

TEST_F(ExecutorTest, EmptyQueryRejected) {
  sparql::Query q;
  CostMeter meter;
  EXPECT_TRUE(
      testing::ExecuteRel(*executor_, q, &meter).status().IsInvalidArgument());
}

TEST_F(ExecutorTest, ChargesMaterializationPerIntermediateRow) {
  auto q = Parser::Parse(
      "SELECT ?p WHERE { ?p bornIn ?c . ?p advisor ?a . ?a bornIn ?c . }");
  ASSERT_TRUE(q.ok());
  CostMeter meter;
  ASSERT_TRUE(testing::ExecuteRel(*executor_, *q, &meter).ok());
  EXPECT_GT(meter.count(Op::kMaterializeTuple), 0u);
  EXPECT_GT(meter.sim_micros(), 0.0);
}

// ---- randomized differential testing -------------------------------------

class ExecutorFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorFuzzTest, AgreesWithReferenceEvaluator) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  TripleTable table;
  CostMeter load;
  table.BulkLoad(ds.triples(), &load);
  Executor executor(&table, &ds.dict());
  testing::ReferenceEvaluator reference(&ds);

  Rng rng(GetParam());
  for (int i = 0; i < 60; ++i) {
    sparql::Query q = testing::RandomBgp(ds, &rng);
    CostMeter meter;
    auto actual = testing::ExecuteRel(executor, q, &meter);
    ASSERT_TRUE(actual.ok()) << actual.status() << "\n" << q.ToString();
    BindingTable expected = reference.Evaluate(q);
    EXPECT_TRUE(BindingTable::SameRows(*actual, expected))
        << "query: " << q.ToString() << "\nactual rows: "
        << actual->NumRows() << " expected: " << expected.NumRows();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorFuzzTest,
                         ::testing::Values(10, 20, 30, 40, 50, 60, 70, 80));

TEST(ExecutorScale, FlagshipQueryOnGeneratedGraph) {
  workload::YagoConfig cfg;
  cfg.target_triples = 8000;
  rdf::Dataset ds = workload::GenerateYago(cfg);
  TripleTable table;
  CostMeter load;
  table.BulkLoad(ds.triples(), &load);
  Executor executor(&table, &ds.dict());
  auto q = Parser::Parse(
      "SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:hasAcademicAdvisor ?a . "
      "?a y:wasBornIn ?c . }");
  ASSERT_TRUE(q.ok());
  CostMeter meter;
  auto r = testing::ExecuteRel(executor, *q, &meter);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r->NumRows(), 0u);

  testing::ReferenceEvaluator reference(&ds);
  BindingTable expected = reference.Evaluate(*q);
  EXPECT_TRUE(BindingTable::SameRows(*r, expected));
}

}  // namespace
}  // namespace dskg::relstore
