#include "workload/workload.h"

#include <algorithm>
#include <cstddef>
#include <unordered_map>

#include "sparql/parser.h"

namespace dskg::workload {

using rdf::TermId;

std::vector<std::pair<size_t, size_t>> EvenRanges(size_t total, int n) {
  std::vector<std::pair<size_t, size_t>> out;
  if (n <= 0) return out;
  const size_t base = total / static_cast<size_t>(n);
  size_t remainder = total % static_cast<size_t>(n);
  size_t pos = 0;
  for (int b = 0; b < n; ++b) {
    size_t take = base + (remainder > 0 ? 1 : 0);
    if (remainder > 0) --remainder;
    take = std::min(take, total - pos);
    out.emplace_back(pos, pos + take);
    pos += take;
  }
  return out;
}

std::vector<std::pair<size_t, size_t>> Workload::BatchRanges(int n) const {
  return EvenRanges(queries.size(), n);
}

Result<sparql::Query> BoundQuery(const WorkloadQuery& wq) {
  DSKG_ASSIGN_OR_RETURN(sparql::Query q,
                        sparql::Parser::Parse(wq.prepared_text));
  for (sparql::TriplePattern& p : q.patterns) {
    for (sparql::PatternTerm* end : {&p.subject, &p.object}) {
      if (!end->is_param) continue;
      const auto it = std::find_if(
          wq.bindings.begin(), wq.bindings.end(),
          [&](const auto& b) { return b.first == end->text; });
      if (it == wq.bindings.end()) {
        return Status::InvalidArgument("parameter $" + end->text +
                                       " has no binding in \"" +
                                       wq.prepared_text + "\"");
      }
      *end = sparql::PatternTerm::Const(it->second);
    }
  }
  return q;
}

WorkloadBuilder::WorkloadBuilder(const rdf::Dataset* dataset)
    : dataset_(dataset) {}

Result<std::string> WorkloadBuilder::SampleTerm(const std::string& predicate,
                                                bool sample_object,
                                                Rng* rng) const {
  const rdf::Dictionary& dict = dataset_->dict();
  const TermId pred = dict.Lookup(predicate);
  if (pred == rdf::kInvalidTermId) {
    return Status::InvalidArgument("template predicate " + predicate +
                                   " not present in dataset");
  }
  // Reservoir-free frequency-weighted sampling: pick a uniformly random
  // triple of the predicate by a single pass with rejection on a
  // precomputed per-predicate extent would need an index; the dataset's
  // triple list is scanned once per Build() via the cache below.
  auto it = pools_.find(pred);
  if (it == pools_.end()) {
    Pool pool;
    for (const rdf::Triple& t : dataset_->triples()) {
      if (t.predicate != pred) continue;
      pool.subjects.push_back(t.subject);
      pool.objects.push_back(t.object);
    }
    it = pools_.emplace(pred, std::move(pool)).first;
  }
  const Pool& pool = it->second;
  const std::vector<TermId>& side =
      sample_object ? pool.objects : pool.subjects;
  if (side.empty()) {
    return Status::InvalidArgument("predicate " + predicate +
                                   " has no triples to sample from");
  }
  return std::string(dict.TermOf(side[rng->NextIndex(side.size())]));
}

Result<Workload> WorkloadBuilder::Build(
    const std::string& name, const std::vector<QueryTemplate>& templates,
    const WorkloadOptions& options) const {
  Workload out;
  out.name = name;
  Rng rng(options.seed);

  for (size_t ti = 0; ti < templates.size(); ++ti) {
    const QueryTemplate& tmpl = templates[ti];
    DSKG_ASSIGN_OR_RETURN(sparql::Query skeleton,
                          sparql::Parser::Parse(tmpl.text));
    // Every slot must name a skeleton `$param`, and every `$param` must
    // have a slot, or executions would fail with an unbound parameter.
    const std::vector<std::string> params = skeleton.Parameters();
    for (const QueryTemplate::Slot& slot : tmpl.slots) {
      if (std::find(params.begin(), params.end(), slot.variable) ==
          params.end()) {
        return Status::InvalidArgument("template " + tmpl.name + ": slot " +
                                       slot.variable +
                                       " is not a $parameter of the skeleton");
      }
    }
    for (const std::string& p : params) {
      const bool covered =
          std::any_of(tmpl.slots.begin(), tmpl.slots.end(),
                      [&](const QueryTemplate::Slot& s) {
                        return s.variable == p;
                      });
      if (!covered) {
        return Status::InvalidArgument("template " + tmpl.name +
                                       ": parameter $" + p +
                                       " has no sampling slot");
      }
    }

    const int versions = 1 + options.mutations_per_template;
    for (int m = 0; m < versions; ++m) {
      WorkloadQuery wq;
      wq.template_index = static_cast<int>(ti);
      wq.mutation = m;
      wq.prepared_text = tmpl.text;
      for (const QueryTemplate::Slot& slot : tmpl.slots) {
        DSKG_ASSIGN_OR_RETURN(
            std::string value,
            SampleTerm(slot.predicate, slot.sample_object, &rng));
        wq.bindings.emplace_back(slot.variable, std::move(value));
      }
      out.queries.push_back(std::move(wq));
    }
  }

  if (!options.ordered) {
    rng.Shuffle(&out.queries);
  }
  return out;
}

}  // namespace dskg::workload
