#include "relstore/executor.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>

namespace dskg::relstore {

using rdf::TermId;
using rdf::Triple;
using sparql::BindingTable;

namespace {

Executor::Slot EncodeSlot(const sparql::PatternTerm& t,
                          const rdf::Dictionary& dict) {
  Executor::Slot s;
  if (t.is_variable) {
    s.is_variable = true;
    s.var = t.text;
    return s;
  }
  s.constant = dict.Lookup(t.text);
  s.missing_constant = (s.constant == rdf::kInvalidTermId);
  return s;
}

}  // namespace

void Executor::EncodedPattern::CompileSlots() {
  vars.clear();
  for (int i = 0; i < 3; ++i) {
    if (!slots[i].is_variable) {
      var_of_pos[i] = -1;
      continue;
    }
    const auto it = std::find(vars.begin(), vars.end(), slots[i].var);
    if (it == vars.end()) {
      var_of_pos[i] = static_cast<int>(vars.size());
      vars.push_back(slots[i].var);
    } else {
      var_of_pos[i] = static_cast<int>(it - vars.begin());
    }
  }
}

BoundPattern Executor::EncodedPattern::ConstantExtent() const {
  BoundPattern b;
  if (!slots[0].is_variable) b.subject = slots[0].constant;
  if (!slots[1].is_variable) b.predicate = slots[1].constant;
  if (!slots[2].is_variable) b.object = slots[2].constant;
  return b;
}

bool Executor::EncodedPattern::ExtractVarValues(const Triple& t,
                                                TermId* out) const {
  const TermId vals[3] = {t.subject, t.predicate, t.object};
  for (size_t v = 0; v < vars.size(); ++v) out[v] = rdf::kInvalidTermId;
  for (int i = 0; i < 3; ++i) {
    const int v = var_of_pos[i];
    if (v < 0) continue;
    if (out[v] == rdf::kInvalidTermId) {
      out[v] = vals[i];
    } else if (out[v] != vals[i]) {
      return false;
    }
  }
  return true;
}

namespace {

double JoinVarSelectivity(const TripleTable& table, TermId predicate,
                          bool subject_bound, bool object_bound) {
  PredicateTableStats st = table.StatsOf(predicate);
  double est = static_cast<double>(st.num_triples);
  if (subject_bound) {
    est /= std::max<uint64_t>(1, st.num_distinct_subjects);
  }
  if (object_bound) {
    est /= std::max<uint64_t>(1, st.num_distinct_objects);
  }
  return std::max(1.0, est);
}

/// Estimated matches for a pattern when, in addition to its constants, the
/// variable positions in `bound_vars` are bound (to values unknown at plan
/// time). Mirrors TripleTable::EstimateMatches but works on masks.
uint64_t EstimateWithBoundVars(
    const TripleTable& table, const Executor::EncodedPattern& p,
    const std::unordered_set<std::string>& bound_vars) {
  const Executor::Slot& s = p.slots[0];
  const Executor::Slot& pr = p.slots[1];
  const Executor::Slot& o = p.slots[2];
  const bool s_bound = !s.is_variable || bound_vars.count(s.var) > 0;
  const bool o_bound = !o.is_variable || bound_vars.count(o.var) > 0;
  if (!pr.is_variable) {
    return static_cast<uint64_t>(
        JoinVarSelectivity(table, pr.constant, s_bound, o_bound));
  }
  // Variable predicate: uniform assumption over the whole table.
  double est = static_cast<double>(table.size());
  if (s_bound) est /= std::max<uint64_t>(1, table.SubjectCount());
  if (o_bound) est /= std::max<uint64_t>(1, table.ObjectCount());
  return static_cast<uint64_t>(std::max(1.0, est));
}

/// Index of the pattern with the smallest estimated constant extent —
/// the initial relation of an unseeded execution.
size_t SmallestExtentPattern(
    const TripleTable& table,
    const std::vector<Executor::EncodedPattern>& patterns) {
  size_t best = 0;
  uint64_t best_est = std::numeric_limits<uint64_t>::max();
  for (size_t i = 0; i < patterns.size(); ++i) {
    const uint64_t est = table.EstimateMatches(patterns[i].ConstantExtent());
    if (est < best_est) {
      best_est = est;
      best = i;
    }
  }
  return best;
}

/// A packed hash-join key: up to 3 term ids (a pattern has at most three
/// distinct variables) in a fixed array — single-id keys are effectively
/// a bare uint64, wider keys a small stack array. Never allocates,
/// replacing the old per-probe `std::string` key serialization.
struct JoinKey {
  std::array<TermId, 3> v{};
  uint8_t n = 0;

  friend bool operator==(const JoinKey& a, const JoinKey& b) {
    return a.n == b.n && a.v == b.v;
  }
};

struct JoinKeyHash {
  size_t operator()(const JoinKey& k) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ k.n;
    for (uint8_t i = 0; i < k.n; ++i) {
      h ^= k.v[i] + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h *= 0xbf58476d1ce4e5b9ULL;
    }
    h ^= h >> 31;
    return static_cast<size_t>(h);
  }
};

/// One hash join's build side, columnar: per key, the count of matching
/// extent triples and their new-variable values in one flat buffer of
/// stride `new_vars.size()`. (Join-variable values are the key itself, so
/// only the columns a match appends are stored.) Read-only once built.
struct JoinBuild {
  struct Group {
    uint32_t count = 0;
    std::vector<TermId> new_vals;  // count * stride ids
  };
  std::unordered_map<JoinKey, Group, JoinKeyHash> groups;
};

}  // namespace

Executor::CompiledQuery Executor::Compile(const sparql::Query& query) const {
  CompiledQuery out;
  out.patterns.resize(query.patterns.size());
  for (size_t i = 0; i < query.patterns.size(); ++i) {
    const sparql::PatternTerm* terms[3] = {&query.patterns[i].subject,
                                           &query.patterns[i].predicate,
                                           &query.patterns[i].object};
    for (int pos = 0; pos < 3; ++pos) {
      if (terms[pos]->is_param) {
        // An open site: the slot stays a constant position (so it is part
        // of the scan extent, never a join variable) whose value arrives
        // at execution time. Not "missing" — bound values are validated
        // when supplied instead of silently matching nothing.
        uint32_t idx = 0;
        const auto it = std::find(out.param_names.begin(),
                                  out.param_names.end(), terms[pos]->text);
        if (it == out.param_names.end()) {
          idx = static_cast<uint32_t>(out.param_names.size());
          out.param_names.push_back(terms[pos]->text);
        } else {
          idx = static_cast<uint32_t>(it - out.param_names.begin());
        }
        out.param_sites.push_back({static_cast<uint32_t>(i),
                                   static_cast<uint8_t>(pos), idx});
      } else {
        out.patterns[i].slots[pos] = EncodeSlot(*terms[pos], *dict_);
      }
    }
    out.patterns[i].CompileSlots();
    if (out.patterns[i].HasMissingConstant()) out.impossible = true;
  }
  out.out_vars =
      query.select_vars.empty() ? query.AllVariables() : query.select_vars;
  return out;
}

namespace {

/// Clones the compiled patterns and writes the bound parameter values
/// into their sites. Fails (rather than matching nothing, or worse,
/// treating the position as a wildcard) when a value is absent.
Status PatchParams(const Executor::CompiledQuery& cq,
                   const TermId* param_values,
                   std::vector<Executor::EncodedPattern>* out) {
  *out = cq.patterns;
  for (const Executor::CompiledQuery::ParamSite& site : cq.param_sites) {
    const TermId v =
        param_values != nullptr ? param_values[site.param] : rdf::kInvalidTermId;
    if (v == rdf::kInvalidTermId) {
      return Status::FailedPrecondition(
          "unbound parameter $" + cq.param_names[site.param] +
          " (bind every parameter before executing)");
    }
    (*out)[site.pattern].slots[site.pos].constant = v;
  }
  return Status::OK();
}

}  // namespace

Result<BindingTable> Executor::ExecuteCompiledJoined(
    const CompiledQuery& cq, const TermId* param_values,
    const BindingTable* seed, CostMeter* meter) const {
  const std::vector<std::string>& out_vars = cq.out_vars;
  if (cq.patterns.empty()) {
    return Status::InvalidArgument("query has no patterns");
  }

  // ---- clone the plan, patch parameter sites ----------------------------
  std::vector<EncodedPattern> patterns;
  DSKG_RETURN_NOT_OK(PatchParams(cq, param_values, &patterns));

  if (cq.impossible) {
    // A constant that is not in the dictionary matches nothing.
    BindingTable empty;
    empty.columns = out_vars;
    return empty;
  }

  // ---- initial relation -------------------------------------------------
  BindingTable cur;
  std::unordered_set<std::string> bound;
  size_t num_joined = 0;

  if (seed != nullptr) {
    // Migrated intermediate results arrive as a columnar table already;
    // adopting them is one buffer copy, no per-row re-keying.
    cur = *seed;
    for (const std::string& c : cur.columns) bound.insert(c);
    // Reading the seed out of the temporary table space.
    meter->Add(Op::kSeqScanTuple, cur.NumRows());
  } else {
    // Start from the pattern with the smallest estimated extent. `cur`'s
    // columns are exactly the pattern's variables, so each matching
    // triple's extracted values are the row — one flat-buffer bump.
    EncodedPattern& p = patterns[SmallestExtentPattern(*table_, patterns)];
    p.used = true;
    ++num_joined;
    cur.columns = p.Vars();
    for (const std::string& v : cur.columns) bound.insert(v);
    Status scan =
        table_->ScanPattern(p.ConstantExtent(), meter, [&](const Triple& t) {
          TermId vals[3];
          if (!p.ExtractVarValues(t, vals)) return true;
          meter->Add(Op::kMaterializeTuple);
          TermId* row = cur.AppendRow();
          for (size_t v = 0; v < p.NumVars(); ++v) row[v] = vals[v];
          return !meter->ExceededBudget();
        });
    DSKG_RETURN_NOT_OK(scan);
    if (meter->ExceededBudget()) {
      return Status::Cancelled("relational execution exceeded cost budget");
    }
  }

  DSKG_RETURN_NOT_OK(JoinRemaining(&patterns, &cur, &bound, num_joined,
                                   meter));
  return cur;
}

Result<BindingTable> Executor::ExecuteCompiled(
    const CompiledQuery& cq, const TermId* param_values,
    const BindingTable* seed, CostMeter* meter) const {
  DSKG_ASSIGN_OR_RETURN(
      BindingTable cur,
      ExecuteCompiledJoined(cq, param_values, seed, meter));

  // ---- projection --------------------------------------------------------
  BindingTable out = cur.Project(cq.out_vars);
  // Projected-away columns may leave missing columns if joins were cut
  // short by an empty intermediate; normalize the header.
  if (out.columns.size() != cq.out_vars.size()) {
    BindingTable normalized;
    normalized.columns = cq.out_vars;
    if (!cur.empty()) {
      return Status::Internal("projection lost columns unexpectedly");
    }
    return normalized;
  }
  return out;
}

Status Executor::JoinRemaining(std::vector<EncodedPattern>* patterns_ptr,
                               BindingTable* cur_ptr,
                               std::unordered_set<std::string>* bound_ptr,
                               size_t num_joined, CostMeter* meter) const {
  std::vector<EncodedPattern>& patterns = *patterns_ptr;
  BindingTable& cur = *cur_ptr;
  std::unordered_set<std::string>& bound = *bound_ptr;
  const CostModel& model = *meter->model();

  // ---- join remaining patterns, greedily --------------------------------
  while (num_joined < patterns.size()) {
    // Prefer connected patterns (sharing a bound variable); among those,
    // the one with the smallest estimate given its join vars are bound.
    size_t best = patterns.size();
    uint64_t best_est = std::numeric_limits<uint64_t>::max();
    bool best_connected = false;
    for (size_t i = 0; i < patterns.size(); ++i) {
      if (patterns[i].used) continue;
      bool connected = false;
      for (const std::string& v : patterns[i].Vars()) {
        if (bound.count(v) > 0) {
          connected = true;
          break;
        }
      }
      static const std::unordered_set<std::string> kNoBound;
      const uint64_t est = EstimateWithBoundVars(*table_, patterns[i],
                                                 connected ? bound : kNoBound);
      if (best == patterns.size() || (connected && !best_connected) ||
          (connected == best_connected && est < best_est)) {
        best = i;
        best_est = est;
        best_connected = connected;
      }
    }
    EncodedPattern& p = patterns[best];
    p.used = true;
    ++num_joined;

    // ---- step plan: resolve every name to an index, once -----------------
    // Pattern variables split into join vars (already bound, with an
    // outer-table column) and new vars (appended by this step). All
    // per-row work below runs on these integer slots.
    const size_t cur_cols = cur.NumColumns();
    std::vector<std::string> join_vars;   // names, for estimates only
    JoinKey probe_cols;                   // outer column of each join var
    JoinKey key_src;                      // pattern-var index of each join var
    std::vector<int> new_var_src;         // pattern-var index of each new var
    std::vector<std::string> new_vars;
    for (size_t v = 0; v < p.NumVars(); ++v) {
      const std::string& name = p.Vars()[v];
      if (bound.count(name) > 0) {
        probe_cols.v[probe_cols.n] =
            static_cast<TermId>(cur.ColumnIndex(name));
        key_src.v[key_src.n] = static_cast<TermId>(v);
        ++probe_cols.n;
        ++key_src.n;
        join_vars.push_back(name);
      } else {
        new_var_src.push_back(static_cast<int>(v));
        new_vars.push_back(name);
      }
    }
    // Outer column feeding each variable position (for index nested-loop
    // probes), or -1 when the position is a constant or a new variable.
    int col_of_pos[3];
    for (int i = 0; i < 3; ++i) {
      const int v = p.var_of_pos[i];
      col_of_pos[i] =
          v >= 0 ? cur.ColumnIndex(p.Vars()[static_cast<size_t>(v)]) : -1;
    }

    // ---- operator choice (deterministic cost-based) ----
    const double rows_out = static_cast<double>(cur.NumRows());
    const uint64_t per_row_est = EstimateWithBoundVars(*table_, p, bound);
    const uint64_t extent_est =
        table_->EstimateMatches(p.ConstantExtent());
    const double cost_inlj =
        rows_out * (model.weight(Op::kIndexProbe) +
                    static_cast<double>(per_row_est) *
                        model.weight(Op::kIndexScanTuple));
    const double cost_hash =
        static_cast<double>(extent_est) *
            (model.weight(Op::kIndexScanTuple) +
             model.weight(Op::kHashBuildTuple)) +
        rows_out * model.weight(Op::kHashProbeTuple);
    const bool use_hash = !join_vars.empty() && cost_hash < cost_inlj;

    BindingTable next;
    next.columns = cur.columns;
    for (const std::string& v : new_vars) next.columns.push_back(v);
    next.ReserveRows(cur.NumRows());  // joins rarely shrink below the outer

    const size_t num_new = new_var_src.size();
    // Emits base-row + new-var values: one flat-buffer bump per output
    // row. `vals` holds the pattern's distinct-var values.
    auto emit = [&](const TermId* base, const TermId* vals) {
      TermId* row = next.AppendRow();
      std::copy(base, base + cur_cols, row);
      for (size_t j = 0; j < num_new; ++j) {
        row[cur_cols + j] = vals[new_var_src[j]];
      }
      meter->Add(Op::kJoinOutputTuple);
      meter->Add(Op::kMaterializeTuple);
    };

    if (use_hash) {
      // ---- hash join: scan the extent once, probe with outer rows ----
      JoinBuild build;
      DSKG_RETURN_NOT_OK(table_->ScanPattern(
          p.ConstantExtent(), meter, [&](const Triple& t) {
            TermId vals[3];
            if (!p.ExtractVarValues(t, vals)) return true;
            JoinKey key = key_src;  // copies n; values filled below
            for (uint8_t k = 0; k < key.n; ++k) {
              key.v[k] = vals[key_src.v[k]];
            }
            meter->Add(Op::kHashBuildTuple);
            JoinBuild::Group& g = build.groups[key];
            ++g.count;
            for (size_t j = 0; j < num_new; ++j) {
              g.new_vals.push_back(vals[new_var_src[j]]);
            }
            return !meter->ExceededBudget();
          }));
      for (size_t r = 0; r < cur.NumRows(); ++r) {
        const TermId* row = cur.RowData(r);
        JoinKey key = probe_cols;
        for (uint8_t k = 0; k < key.n; ++k) {
          key.v[k] = row[probe_cols.v[k]];
        }
        meter->Add(Op::kHashProbeTuple);
        const auto it = build.groups.find(key);
        if (it == build.groups.end()) continue;
        const JoinBuild::Group& g = it->second;
        for (uint32_t m = 0; m < g.count; ++m) {
          // Reconstruct the match's distinct-var values: join vars from
          // the key, new vars from the group's flat payload.
          TermId vals[3];
          for (uint8_t k = 0; k < key_src.n; ++k) {
            vals[key_src.v[k]] = key.v[k];
          }
          for (size_t j = 0; j < num_new; ++j) {
            vals[new_var_src[j]] = g.new_vals[m * num_new + j];
          }
          emit(row, vals);
        }
        if (meter->ExceededBudget()) {
          return Status::Cancelled(
              "relational execution exceeded cost budget");
        }
      }
    } else {
      // ---- index nested-loop join (also covers cartesian steps) ----
      const BoundPattern extent = p.ConstantExtent();
      for (size_t r = 0; r < cur.NumRows(); ++r) {
        const TermId* row = cur.RowData(r);
        BoundPattern bp = extent;
        // Substitute join-variable values from the outer row (slot
        // indexes resolved once above, no per-row name lookup).
        if (col_of_pos[0] >= 0) bp.subject = row[col_of_pos[0]];
        if (col_of_pos[1] >= 0) bp.predicate = row[col_of_pos[1]];
        if (col_of_pos[2] >= 0) bp.object = row[col_of_pos[2]];
        Status scan = table_->ScanPattern(bp, meter, [&](const Triple& t) {
          TermId vals[3];
          if (!p.ExtractVarValues(t, vals)) return true;
          emit(row, vals);
          return !meter->ExceededBudget();
        });
        DSKG_RETURN_NOT_OK(scan);
        if (meter->ExceededBudget()) {
          return Status::Cancelled(
              "relational execution exceeded cost budget");
        }
      }
    }

    cur = std::move(next);
    for (const std::string& v : new_vars) bound.insert(v);
    if (cur.empty()) break;  // no results; remaining joins are no-ops
  }
  return Status::OK();
}

}  // namespace dskg::relstore
