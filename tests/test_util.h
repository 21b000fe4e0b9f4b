#ifndef DSKG_TESTS_TEST_UTIL_H_
#define DSKG_TESTS_TEST_UTIL_H_

/// \file test_util.h
/// Shared test helpers: a tiny hand-written dataset, a brute-force BGP
/// reference evaluator (independent of both engines), a random BGP
/// generator for property tests, and compile-then-run shorthands for the
/// two engines.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/cost.h"
#include "common/rng.h"
#include "common/status.h"
#include "graphstore/matcher.h"
#include "rdf/dataset.h"
#include "relstore/executor.h"
#include "sparql/ast.h"
#include "sparql/bindings.h"

namespace dskg::testing {

/// A small fixed dataset about people, cities and movies, convenient for
/// hand-checkable assertions.
///
///   alice bornIn berlin      bob bornIn berlin    carol bornIn paris
///   bob   advisor alice      carol advisor alice  dave advisor carol
///   dave  bornIn paris       alice likes film1    bob likes film1
///   carol likes film2        dave likes film2     film1 genre drama
///   film2 genre comedy       alice marriedTo bob
inline rdf::Dataset SmallPeopleGraph() {
  rdf::Dataset ds;
  ds.Add("alice", "bornIn", "berlin");
  ds.Add("bob", "bornIn", "berlin");
  ds.Add("carol", "bornIn", "paris");
  ds.Add("dave", "bornIn", "paris");
  ds.Add("bob", "advisor", "alice");
  ds.Add("carol", "advisor", "alice");
  ds.Add("dave", "advisor", "carol");
  ds.Add("alice", "likes", "film1");
  ds.Add("bob", "likes", "film1");
  ds.Add("carol", "likes", "film2");
  ds.Add("dave", "likes", "film2");
  ds.Add("film1", "genre", "drama");
  ds.Add("film2", "genre", "comedy");
  ds.Add("alice", "marriedTo", "bob");
  return ds;
}

/// Brute-force BGP evaluation by exhaustive backtracking over the raw
/// triple list. Deliberately naive and engine-independent: the oracle for
/// both the relational executor and the graph matcher.
class ReferenceEvaluator {
 public:
  explicit ReferenceEvaluator(const rdf::Dataset* ds) : ds_(ds) {}

  sparql::BindingTable Evaluate(const sparql::Query& query) const {
    sparql::BindingTable out;
    out.columns = query.select_vars.empty() ? query.AllVariables()
                                            : query.select_vars;
    std::map<std::string, rdf::TermId> bindings;
    Recurse(query, 0, &bindings, &out);
    return out;
  }

 private:
  bool TermMatches(const sparql::PatternTerm& t, rdf::TermId value,
                   std::map<std::string, rdf::TermId>* bindings,
                   std::vector<std::string>* bound_here) const {
    if (!t.is_variable) {
      const rdf::TermId id = ds_->dict().Lookup(t.text);
      return id == value;
    }
    auto it = bindings->find(t.text);
    if (it != bindings->end()) return it->second == value;
    bindings->emplace(t.text, value);
    bound_here->push_back(t.text);
    return true;
  }

  void Recurse(const sparql::Query& query, size_t depth,
               std::map<std::string, rdf::TermId>* bindings,
               sparql::BindingTable* out) const {
    if (depth == query.patterns.size()) {
      rdf::TermId* row = out->AppendRow();
      for (size_t i = 0; i < out->columns.size(); ++i) {
        row[i] = bindings->at(out->columns[i]);
      }
      return;
    }
    const sparql::TriplePattern& p = query.patterns[depth];
    for (const rdf::Triple& t : CandidatesFor(p)) {
      std::vector<std::string> bound_here;
      const bool ok = TermMatches(p.subject, t.subject, bindings,
                                  &bound_here) &&
                      TermMatches(p.predicate, t.predicate, bindings,
                                  &bound_here) &&
                      TermMatches(p.object, t.object, bindings, &bound_here);
      if (ok) Recurse(query, depth + 1, bindings, out);
      for (const std::string& v : bound_here) bindings->erase(v);
    }
  }

  /// Candidate triples for a pattern: the predicate's partition when the
  /// predicate is a constant (still brute force within it), else all
  /// triples. Pure pruning — does not change results.
  const std::vector<rdf::Triple>& CandidatesFor(
      const sparql::TriplePattern& p) const {
    if (p.predicate.is_variable) return DedupedTriples();
    const rdf::TermId id = ds_->dict().Lookup(p.predicate.text);
    auto it = by_predicate_.find(id);
    if (it == by_predicate_.end()) {
      std::vector<rdf::Triple> filtered;
      for (const rdf::Triple& t : DedupedTriples()) {
        if (t.predicate == id) filtered.push_back(t);
      }
      it = by_predicate_.emplace(id, std::move(filtered)).first;
    }
    return it->second;
  }

  /// Engines store triples with set semantics; match that here.
  const std::vector<rdf::Triple>& DedupedTriples() const {
    if (deduped_.empty()) {
      std::vector<rdf::Triple> sorted = ds_->triples();
      std::sort(sorted.begin(), sorted.end());
      sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
      deduped_ = std::move(sorted);
    }
    return deduped_;
  }

  const rdf::Dataset* ds_;
  mutable std::vector<rdf::Triple> deduped_;
  mutable std::map<rdf::TermId, std::vector<rdf::Triple>> by_predicate_;
};

/// Generates a random connected BGP over the predicates/terms of `ds`.
/// Produces 1-4 patterns mixing fresh variables, reused variables and
/// constants — a fuzz driver for cross-engine equivalence tests.
inline sparql::Query RandomBgp(const rdf::Dataset& ds, Rng* rng) {
  sparql::Query q;
  const auto& triples = ds.triples();
  const size_t num_patterns = 1 + rng->NextIndex(3);
  std::vector<std::string> vars = {"a", "b", "c", "d", "e"};
  size_t next_var = 0;
  auto reuse_or_new_var = [&]() -> std::string {
    if (next_var > 0 && rng->NextBool(0.5)) {
      return vars[rng->NextIndex(next_var)];
    }
    if (next_var < vars.size()) return vars[next_var++];
    return vars[rng->NextIndex(vars.size())];
  };
  for (size_t i = 0; i < num_patterns; ++i) {
    // Anchor the pattern on a real triple so matches are likely.
    const rdf::Triple& t = triples[rng->NextIndex(triples.size())];
    sparql::TriplePattern p;
    p.predicate = sparql::PatternTerm::Const(
        std::string(ds.dict().TermOf(t.predicate)));
    p.subject = rng->NextBool(0.7)
                    ? sparql::PatternTerm::Var(reuse_or_new_var())
                    : sparql::PatternTerm::Const(
                          std::string(ds.dict().TermOf(t.subject)));
    p.object = rng->NextBool(0.7)
                   ? sparql::PatternTerm::Var(reuse_or_new_var())
                   : sparql::PatternTerm::Const(
                         std::string(ds.dict().TermOf(t.object)));
    q.patterns.push_back(std::move(p));
  }
  // SELECT * (all variables) keeps the comparison total.
  return q;
}

/// Compiles `q` and runs it on the relational executor, from `seed` when
/// given — the engine's compiled entry point, as the processor uses it.
inline Result<sparql::BindingTable> ExecuteRel(
    const relstore::Executor& ex, const sparql::Query& q, CostMeter* meter,
    const sparql::BindingTable* seed = nullptr) {
  return ex.ExecuteCompiled(ex.Compile(q), nullptr, seed, meter);
}

/// Compiles `q` and drains it serially on the traversal matcher.
inline Result<sparql::BindingTable> MatchGraph(
    const graphstore::TraversalMatcher& m, const sparql::Query& q,
    CostMeter* meter) {
  DSKG_ASSIGN_OR_RETURN(graphstore::TraversalMatcher::Plan plan,
                        m.Compile(q));
  return m.MatchSharded(plan, nullptr, meter, /*pool=*/nullptr,
                        /*max_shards=*/0);
}

}  // namespace dskg::testing

#endif  // DSKG_TESTS_TEST_UTIL_H_
