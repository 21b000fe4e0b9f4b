#ifndef DSKG_WORKLOAD_WORKLOAD_H_
#define DSKG_WORKLOAD_WORKLOAD_H_

/// \file workload.h
/// Query workload construction: templates + mutations, ordered/random
/// versions, and batch splitting.
///
/// Following the paper's methodology (§6.1): each workload consists of
/// query templates plus four *mutations* of each template — same BGP
/// structure, different constants sampled from the dataset. The *ordered*
/// version clusters each template with its mutations; the *random* version
/// shuffles all queries. Experiments consume the workload in batches of
/// one fifth.

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "rdf/dataset.h"
#include "sparql/ast.h"

namespace dskg::workload {

/// Splits [0, total) into `n` consecutive half-open ranges of near-equal
/// size, earlier ranges taking the remainder. The single splitting rule
/// behind `Workload::BatchRanges` and the online runner's update-log
/// spreading — shared so the two can never disagree.
std::vector<std::pair<size_t, size_t>> EvenRanges(size_t total, int n);

/// A query template: a BGP skeleton plus slots that mutations fill with
/// constants sampled from the dataset.
///
/// Slots are `$parameters` in the text ("?p y:wonPrize $prize"), so one
/// skeleton is prepared once and every mutation is a `Bind` — the runners
/// route every workload query through the session's prepared-query cache.
struct QueryTemplate {
  /// Identifier used in reports ("yago-advisor-city").
  std::string name;
  /// SPARQL text of the skeleton; slot positions are `$params`.
  std::string text;

  /// One mutable position of the skeleton.
  struct Slot {
    /// Parameter to fill, without the '$'.
    std::string variable;
    /// Predicate whose extent supplies sample values.
    std::string predicate;
    /// Sample from the predicate's objects (true) or subjects (false).
    bool sample_object = true;
  };
  std::vector<Slot> slots;
};

/// One query of a built workload: its template's parameterized text plus
/// the constant sampled for each parameter (`BoundQuery` derives the
/// substituted query from the two).
struct WorkloadQuery {
  /// Index of the originating template (for per-template analysis).
  int template_index = 0;
  /// 0 = the template's original instantiation, 1..k = mutations.
  int mutation = 0;

  /// The originating template's parameterized text — the key the runners
  /// prepare once per template and re-bind per mutation.
  std::string prepared_text;
  /// Parameter name -> sampled term text, one entry per slot.
  std::vector<std::pair<std::string, std::string>> bindings;
};

/// Parses `wq.prepared_text` and replaces every `$param` with its bound
/// term: the query with constants, as the tuners' complex-subquery input
/// and the engines' compiled entry points take it. ParseError when the
/// text does not parse; InvalidArgument when a parameter has no binding.
Result<sparql::Query> BoundQuery(const WorkloadQuery& wq);

/// A fully instantiated workload.
struct Workload {
  std::string name;
  std::vector<WorkloadQuery> queries;

  /// The half-open index ranges [begin, end) into `queries` of `n`
  /// consecutive batches of near-equal size (the paper uses n = 5),
  /// earlier batches taking the remainder. No query is copied.
  std::vector<std::pair<size_t, size_t>> BatchRanges(int n) const;
};

/// Options for workload construction.
struct WorkloadOptions {
  /// Mutations per template in addition to the original (paper: 4).
  int mutations_per_template = 4;
  /// Cluster template with its mutations (true) or shuffle all (false).
  bool ordered = true;
  uint64_t seed = 42;
};

/// Instantiates templates against a dataset.
class WorkloadBuilder {
 public:
  /// `dataset` is not owned and must outlive the builder.
  explicit WorkloadBuilder(const rdf::Dataset* dataset);

  /// Builds a workload named `name` from `templates`.
  /// Fails with InvalidArgument if a template has a slot that is not a
  /// `$param` of its skeleton, a `$param` without a slot, or a slot
  /// predicate absent from the dataset; with ParseError if its text does
  /// not parse.
  Result<Workload> Build(const std::string& name,
                         const std::vector<QueryTemplate>& templates,
                         const WorkloadOptions& options) const;

 private:
  /// Sampled value pool for one (predicate, position).
  Result<std::string> SampleTerm(const std::string& predicate,
                                 bool sample_object, Rng* rng) const;

  struct Pool {
    std::vector<rdf::TermId> subjects;
    std::vector<rdf::TermId> objects;
  };

  const rdf::Dataset* dataset_;
  /// Lazily built per-predicate sample pools (cache only; logically const).
  mutable std::unordered_map<rdf::TermId, Pool> pools_;
};

}  // namespace dskg::workload

#endif  // DSKG_WORKLOAD_WORKLOAD_H_
