// Traversal matcher tests: hand-checked traversals, routing
// preconditions, budget aborts, and randomized cross-engine equivalence
// against the brute-force reference.

#include <gtest/gtest.h>

#include "graphstore/matcher.h"
#include "sparql/parser.h"
#include "test_util.h"
#include "workload/generators.h"

namespace dskg::graphstore {
namespace {

using sparql::BindingTable;
using sparql::Parser;

/// Loads every partition of `ds` into a graph.
void LoadAll(const rdf::Dataset& ds, PropertyGraph* g) {
  CostMeter meter;
  for (const auto& part : ds.AllPartitions()) {
    std::vector<rdf::Triple> triples =
        ds.TriplesWithPredicate(part.predicate);
    // Engines use set semantics; dedupe to match.
    std::sort(triples.begin(), triples.end());
    triples.erase(std::unique(triples.begin(), triples.end()),
                  triples.end());
    ASSERT_TRUE(g->ImportPartition(part.predicate, triples, &meter).ok());
  }
}

class MatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = testing::SmallPeopleGraph();
    LoadAll(ds_, &graph_);
    matcher_ = std::make_unique<TraversalMatcher>(&graph_, &ds_.dict());
  }

  BindingTable Match(const std::string& text) {
    auto q = Parser::Parse(text);
    EXPECT_TRUE(q.ok()) << q.status();
    CostMeter meter;
    auto r = testing::MatchGraph(*matcher_, *q, &meter);
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(r).ValueOrDie();
  }

  rdf::Dataset ds_;
  PropertyGraph graph_;
  std::unique_ptr<TraversalMatcher> matcher_;
};

TEST_F(MatcherTest, FlagshipTraversal) {
  BindingTable r = Match(
      "SELECT ?p WHERE { ?p bornIn ?c . ?p advisor ?a . ?a bornIn ?c . }");
  EXPECT_EQ(r.NumRows(), 2u);  // bob, dave
}

TEST_F(MatcherTest, BoundSubjectExpansion) {
  BindingTable r = Match("SELECT ?f WHERE { alice likes ?f . }");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.At(0, 0), ds_.dict().Lookup("film1"));
}

TEST_F(MatcherTest, BoundObjectUsesInAdjacency) {
  BindingTable r = Match("SELECT ?p WHERE { ?p advisor alice . }");
  EXPECT_EQ(r.NumRows(), 2u);
}

TEST_F(MatcherTest, RepeatedVariableWithinPattern) {
  BindingTable r = Match("SELECT ?x WHERE { ?x likes ?x . }");
  EXPECT_TRUE(r.empty());
}

TEST_F(MatcherTest, UnknownConstantGivesEmpty) {
  BindingTable r = Match("SELECT ?p WHERE { ?p bornIn atlantis . }");
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.columns, std::vector<std::string>{"p"});
}

TEST_F(MatcherTest, VariablePredicateRejected) {
  auto q = Parser::Parse("SELECT ?p WHERE { alice ?p bob . }");
  ASSERT_TRUE(q.ok());
  CostMeter meter;
  EXPECT_TRUE(testing::MatchGraph(*matcher_, *q, &meter)
                  .status()
                  .IsFailedPrecondition());
}

TEST_F(MatcherTest, MissingPartitionRejected) {
  PropertyGraph partial;
  CostMeter meter;
  rdf::TermId likes = ds_.dict().Lookup("likes");
  std::vector<rdf::Triple> triples = ds_.TriplesWithPredicate(likes);
  ASSERT_TRUE(partial.ImportPartition(likes, triples, &meter).ok());
  TraversalMatcher m(&partial, &ds_.dict());
  auto q = Parser::Parse("SELECT ?p WHERE { ?p likes ?f . ?f genre ?g . }");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(
      testing::MatchGraph(m, *q, &meter).status().IsFailedPrecondition());
}

TEST_F(MatcherTest, BudgetCancelsTraversal) {
  auto q = Parser::Parse(
      "SELECT ?a ?b WHERE { ?a likes ?f . ?b likes ?f . }");
  ASSERT_TRUE(q.ok());
  CostMeter meter;
  meter.set_budget_micros(0.01);
  EXPECT_TRUE(
      testing::MatchGraph(*matcher_, *q, &meter).status().IsCancelled());
}

TEST_F(MatcherTest, ChargesTraversalCosts) {
  auto q = Parser::Parse(
      "SELECT ?p WHERE { ?p bornIn ?c . ?p advisor ?a . ?a bornIn ?c . }");
  ASSERT_TRUE(q.ok());
  CostMeter meter;
  ASSERT_TRUE(testing::MatchGraph(*matcher_, *q, &meter).ok());
  EXPECT_GT(meter.count(Op::kAdjExpandEdge), 0u);
  EXPECT_GT(meter.count(Op::kNodeLookup), 0u);
  EXPECT_EQ(meter.count(Op::kSeqScanTuple), 0u);  // no relational ops
}

// ---- randomized cross-engine equivalence ----------------------------------

class MatcherFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatcherFuzzTest, AgreesWithReferenceEvaluator) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  PropertyGraph graph;
  LoadAll(ds, &graph);
  TraversalMatcher matcher(&graph, &ds.dict());
  testing::ReferenceEvaluator reference(&ds);

  Rng rng(GetParam());
  for (int i = 0; i < 60; ++i) {
    sparql::Query q = testing::RandomBgp(ds, &rng);
    CostMeter meter;
    auto actual = testing::MatchGraph(matcher, q, &meter);
    ASSERT_TRUE(actual.ok()) << actual.status() << "\n" << q.ToString();
    BindingTable expected = reference.Evaluate(q);
    EXPECT_TRUE(BindingTable::SameRows(*actual, expected))
        << "query: " << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

TEST(MatcherScale, FlagshipOnGeneratedGraphMatchesReference) {
  workload::YagoConfig cfg;
  cfg.target_triples = 8000;
  rdf::Dataset ds = workload::GenerateYago(cfg);
  PropertyGraph graph;
  LoadAll(ds, &graph);
  TraversalMatcher matcher(&graph, &ds.dict());
  auto q = Parser::Parse(
      "SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:hasAcademicAdvisor ?a . "
      "?a y:wasBornIn ?c . }");
  ASSERT_TRUE(q.ok());
  CostMeter meter;
  auto r = testing::MatchGraph(matcher, *q, &meter);
  ASSERT_TRUE(r.ok()) << r.status();
  testing::ReferenceEvaluator reference(&ds);
  EXPECT_TRUE(BindingTable::SameRows(*r, reference.Evaluate(*q)));
}

}  // namespace
}  // namespace dskg::graphstore
