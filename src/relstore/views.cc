#include "relstore/views.h"

#include <algorithm>
#include <unordered_map>

#include "rdf/dictionary.h"

namespace dskg::relstore {

using sparql::BindingTable;
using sparql::PatternTerm;
using sparql::Query;
using sparql::TriplePattern;

namespace {

/// Canonical name assigner: the i-th distinct term seen becomes "n<i>".
/// Variables and subject/object constants share one renaming space (a
/// constant and the variable that generalizes it align to the same name).
class Renamer {
 public:
  const std::string& NameOf(const PatternTerm& t) {
    // Namespace-prefix the key so a variable ?x and a constant "x" do not
    // collide in the map, while both still canonicalize positionally.
    std::string key = (t.is_variable ? "?" : "c:") + t.text;
    auto it = names_.find(key);
    if (it == names_.end()) {
      it = names_.emplace(std::move(key), "n" + std::to_string(names_.size()))
               .first;
    }
    return it->second;
  }

 private:
  std::unordered_map<std::string, std::string> names_;
};

/// Generalizes a BGP: every subject/object constant becomes a fresh
/// variable (one per distinct constant text), predicates stay.
Query Generalize(const std::vector<TriplePattern>& patterns) {
  Query out;
  std::unordered_map<std::string, std::string> const_vars;
  auto generalize_term = [&](const PatternTerm& t) -> PatternTerm {
    if (t.is_variable) return t;
    auto it = const_vars.find(t.text);
    if (it == const_vars.end()) {
      it = const_vars
               .emplace(t.text, "_g" + std::to_string(const_vars.size()))
               .first;
    }
    return PatternTerm::Var(it->second);
  };
  for (const TriplePattern& p : patterns) {
    TriplePattern g;
    g.subject = generalize_term(p.subject);
    g.predicate = p.predicate;  // predicates are never generalized
    g.object = generalize_term(p.object);
    out.patterns.push_back(std::move(g));
  }
  // Project all variables (select_vars empty == SELECT *).
  return out;
}

}  // namespace

std::string BgpSignature(const std::vector<TriplePattern>& patterns) {
  Renamer renamer;
  std::string sig;
  for (const TriplePattern& p : patterns) {
    sig += renamer.NameOf(p.subject);
    sig += ' ';
    if (p.predicate.is_variable) {
      sig += renamer.NameOf(p.predicate);
    } else {
      sig += "P:";
      sig += p.predicate.text;
    }
    sig += ' ';
    sig += renamer.NameOf(p.object);
    sig += " . ";
  }
  return sig;
}

Status MaterializedViewManager::CreateView(const Query& subquery,
                                           CostMeter* meter) {
  const std::string sig = BgpSignature(subquery.patterns);
  if (views_.find(sig) != views_.end()) {
    return Status::AlreadyExists("view exists for signature: " + sig);
  }
  auto view = std::make_unique<MaterializedView>();
  view->signature = sig;
  view->definition = Generalize(subquery.patterns);

  Result<BindingTable> data = executor_->ExecuteCompiled(
      executor_->Compile(view->definition), nullptr, nullptr, meter);
  if (!data.ok()) return data.status();
  view->data = std::move(data).ValueOrDie();

  if (budget_rows_ > 0 && used_rows_ + view->data.NumRows() > budget_rows_) {
    return Status::CapacityExceeded(
        "view of " + std::to_string(view->data.NumRows()) +
        " rows exceeds remaining budget of " +
        std::to_string(budget_rows_ - used_rows_) + " rows");
  }
  meter->Add(Op::kTempTableTuple, view->data.NumRows());
  used_rows_ += view->data.NumRows();
  views_.emplace(sig, std::move(view));
  catalog_version_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

Status MaterializedViewManager::DropView(const std::string& signature) {
  auto it = views_.find(signature);
  if (it == views_.end()) {
    return Status::NotFound("no view with signature: " + signature);
  }
  RemoveView(it);
  catalog_version_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

void MaterializedViewManager::Clear() {
  if (views_.empty()) return;
  for (auto it = views_.begin(); it != views_.end();) it = RemoveView(it);
  catalog_version_.fetch_add(1, std::memory_order_release);
}

size_t MaterializedViewManager::InvalidatePredicates(
    const std::unordered_set<rdf::TermId>& predicates) {
  size_t dropped = 0;
  for (auto it = views_.begin(); it != views_.end();) {
    bool stale = false;
    for (const TriplePattern& p : it->second->definition.patterns) {
      if (p.predicate.is_variable) {
        // A variable-predicate view matches every partition: any batch
        // can change its rows, so it is stale by construction.
        stale = true;
        break;
      }
      const rdf::TermId id = dict_->Lookup(p.predicate.text);
      if (id != rdf::kInvalidTermId && predicates.count(id) > 0) {
        stale = true;
        break;
      }
    }
    if (stale) {
      it = RemoveView(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  if (dropped > 0) catalog_version_.fetch_add(1, std::memory_order_release);
  return dropped;
}

std::map<std::string, std::unique_ptr<MaterializedView>>::iterator
MaterializedViewManager::RemoveView(
    std::map<std::string, std::unique_ptr<MaterializedView>>::iterator it) {
  used_rows_ -= it->second->data.NumRows();
  if (deferred_) {
    // A published snapshot may still answer from this view: keep the
    // object alive until the post-drain CollectRetired.
    retired_.push_back(std::move(it->second));
  }
  return views_.erase(it);
}

const MaterializedView* MaterializedViewManager::FindView(
    const std::string& signature) const {
  if (const Snapshot* snap = CurrentSnapshot()) {
    const auto it = std::lower_bound(
        snap->views.begin(), snap->views.end(), signature,
        [](const auto& entry, const std::string& s) {
          return entry.first < s;
        });
    if (it == snap->views.end() || it->first != signature) return nullptr;
    return it->second;
  }
  const auto it = views_.find(signature);
  return it == views_.end() ? nullptr : it->second.get();
}

uint64_t MaterializedViewManager::used_rows() const {
  if (const Snapshot* snap = CurrentSnapshot()) return snap->used_rows;
  return used_rows_;
}

size_t MaterializedViewManager::num_views() const {
  if (const Snapshot* snap = CurrentSnapshot()) return snap->views.size();
  return views_.size();
}

uint64_t MaterializedViewManager::catalog_version() const {
  if (const Snapshot* snap = CurrentSnapshot()) return snap->catalog_version;
  return catalog_version_.load(std::memory_order_acquire);
}

std::vector<std::string> MaterializedViewManager::Signatures() const {
  std::vector<std::string> out;
  if (const Snapshot* snap = CurrentSnapshot()) {
    out.reserve(snap->views.size());
    for (const auto& [sig, _] : snap->views) out.push_back(sig);
    return out;  // snapshot is already sorted by signature
  }
  out.reserve(views_.size());
  for (const auto& [sig, _] : views_) out.push_back(sig);
  return out;
}

MaterializedViewManager::Snapshot MaterializedViewManager::MakeSnapshot()
    const {
  Snapshot snap;
  snap.owner = this;
  snap.views.reserve(views_.size());
  for (const auto& [sig, view] : views_) {
    snap.views.emplace_back(sig, view.get());
  }
  snap.used_rows = used_rows_;
  snap.catalog_version = catalog_version_.load(std::memory_order_acquire);
  return snap;
}

bool MaterializedViewManager::HasViewFor(
    const std::vector<TriplePattern>& patterns) const {
  return FindView(BgpSignature(patterns)) != nullptr;
}

std::optional<MaterializedViewManager::Answer>
MaterializedViewManager::TryAnswer(const std::vector<TriplePattern>& patterns,
                                   CostMeter* meter) const {
  const MaterializedView* found = FindView(BgpSignature(patterns));
  if (found == nullptr) return std::nullopt;
  const MaterializedView& view = *found;
  meter->Add(Op::kViewLookup);

  // Positionally align the query's terms with the view definition's
  // variables (signature equality guarantees structural alignment).
  // View column -> query variable name, or view column -> constant filter.
  std::unordered_map<std::string, std::string> col_to_var;
  std::unordered_map<std::string, rdf::TermId> col_filter;
  bool impossible = false;
  for (size_t i = 0; i < patterns.size(); ++i) {
    auto align = [&](const PatternTerm& q_term, const PatternTerm& v_term) {
      if (!v_term.is_variable) return;  // shared constant; nothing to bind
      if (q_term.is_variable) {
        col_to_var[v_term.text] = q_term.text;
      } else {
        const rdf::TermId id = dict_->Lookup(q_term.text);
        if (id == rdf::kInvalidTermId) {
          impossible = true;  // constant unknown => no rows can match
        } else {
          col_filter[v_term.text] = id;
        }
      }
    };
    align(patterns[i].subject, view.definition.patterns[i].subject);
    align(patterns[i].object, view.definition.patterns[i].object);
  }

  // Output columns: the query's variables, in view-column order.
  Answer ans;
  std::vector<int> keep_cols;
  std::vector<int> filter_cols;
  std::vector<rdf::TermId> filter_vals;
  for (size_t c = 0; c < view.data.columns.size(); ++c) {
    const std::string& col = view.data.columns[c];
    auto var_it = col_to_var.find(col);
    if (var_it != col_to_var.end()) {
      ans.bindings.columns.push_back(var_it->second);
      keep_cols.push_back(static_cast<int>(c));
    }
    auto f_it = col_filter.find(col);
    if (f_it != col_filter.end()) {
      filter_cols.push_back(static_cast<int>(c));
      filter_vals.push_back(f_it->second);
    }
  }
  if (impossible) return ans;  // header only, no rows

  // Columnar scan: filter and project with the column indexes resolved
  // above — each surviving row is one flat-buffer append.
  for (size_t r = 0; r < view.data.NumRows(); ++r) {
    const rdf::TermId* row = view.data.RowData(r);
    meter->Add(Op::kViewScanTuple);
    bool pass = true;
    for (size_t f = 0; f < filter_cols.size(); ++f) {
      if (row[static_cast<size_t>(filter_cols[f])] != filter_vals[f]) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    rdf::TermId* out_row = ans.bindings.AppendRow();
    for (size_t c = 0; c < keep_cols.size(); ++c) {
      out_row[c] = row[static_cast<size_t>(keep_cols[c])];
    }
  }
  return ans;
}

}  // namespace dskg::relstore
