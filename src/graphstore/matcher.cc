#include "graphstore/matcher.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_pool.h"

namespace dskg::graphstore {

using rdf::TermId;
using sparql::BindingTable;

namespace {

/// Assigns one dense slot per distinct variable name of the query.
class SlotLayout {
 public:
  int SlotOf(const std::string& var) {
    auto [it, inserted] = slots_.emplace(var, static_cast<int>(slots_.size()));
    (void)inserted;
    return it->second;
  }

  /// Slot of `var`, or -1 when the variable never occurs in a pattern.
  int Find(const std::string& var) const {
    auto it = slots_.find(var);
    return it == slots_.end() ? -1 : it->second;
  }

  size_t size() const { return slots_.size(); }

 private:
  std::unordered_map<std::string, int> slots_;
};

TraversalMatcher::End EncodeEnd(const sparql::PatternTerm& t,
                                const rdf::Dictionary& dict,
                                SlotLayout* layout,
                                std::vector<std::string>* param_names) {
  TraversalMatcher::End e;
  if (t.is_variable) {
    e.is_variable = true;
    e.slot = layout->SlotOf(t.text);
    return e;
  }
  if (t.is_param) {
    // An open constant: the value arrives when the cursor opens. Not
    // "missing" — bound values are validated at bind time instead.
    const auto it =
        std::find(param_names->begin(), param_names->end(), t.text);
    if (it == param_names->end()) {
      e.param = static_cast<int>(param_names->size());
      param_names->push_back(t.text);
    } else {
      e.param = static_cast<int>(it - param_names->begin());
    }
    return e;
  }
  e.constant = dict.Lookup(t.text);
  e.missing = (e.constant == rdf::kInvalidTermId);
  return e;
}

}  // namespace

Result<TraversalMatcher::Plan> TraversalMatcher::Compile(
    const sparql::Query& query) const {
  if (query.patterns.empty()) {
    return Status::InvalidArgument("query has no patterns");
  }

  // ---- encode + preconditions (slot compilation happens here) -----------
  Plan plan;
  SlotLayout layout;
  std::vector<EncPat> encoded;
  encoded.reserve(query.patterns.size());
  for (const sparql::TriplePattern& tp : query.patterns) {
    if (tp.predicate.is_variable) {
      return Status::FailedPrecondition(
          "variable predicate ?" + tp.predicate.text +
          " cannot be answered by the partial graph store");
    }
    EncPat p;
    p.subject = EncodeEnd(tp.subject, *dict_, &layout, &plan.param_names);
    p.object = EncodeEnd(tp.object, *dict_, &layout, &plan.param_names);
    const TermId pred = dict_->Lookup(tp.predicate.text);
    if (pred == rdf::kInvalidTermId) {
      plan.impossible = true;  // unknown predicate term matches nothing
      p.predicate = rdf::kInvalidTermId;
    } else {
      if (!graph_->HasPredicate(pred)) {
        return Status::FailedPrecondition(
            "partition of predicate " + tp.predicate.text +
            " is not resident in the graph store");
      }
      p.predicate = pred;
    }
    if (p.subject.missing || p.object.missing) plan.impossible = true;
    encoded.push_back(std::move(p));
  }

  plan.out_vars =
      query.select_vars.empty() ? query.AllVariables() : query.select_vars;
  plan.out_slots.reserve(plan.out_vars.size());
  for (const std::string& v : plan.out_vars) {
    plan.out_slots.push_back(layout.Find(v));
  }
  plan.num_slots = layout.size();

  // ---- traversal order: smallest seed first, then stay connected --------
  // A `$param` endpoint scores exactly like the constant it will become,
  // so the compiled order is the order the bound query would get.
  std::vector<size_t> order;
  std::vector<bool> used(encoded.size(), false);
  std::vector<bool> var_bound(layout.size(), false);
  auto is_bound = [&](const End& e) {
    return !e.is_variable || var_bound[e.slot];
  };
  auto score = [&](const EncPat& p) -> uint64_t {
    // A pattern reachable from a bound vertex costs ~degree; a free
    // pattern costs its whole partition. Constant endpoints narrow it.
    uint64_t base = graph_->PartitionTriples(p.predicate);
    if (is_bound(p.subject) || is_bound(p.object)) {
      base = base / 64 + 1;  // expansion from a bound vertex
    }
    if (!p.subject.is_variable) base = base / 4 + 1;
    if (!p.object.is_variable) base = base / 4 + 1;
    return base;
  };
  for (size_t step = 0; step < encoded.size(); ++step) {
    size_t best = encoded.size();
    uint64_t best_score = std::numeric_limits<uint64_t>::max();
    bool best_connected = false;
    for (size_t i = 0; i < encoded.size(); ++i) {
      if (used[i]) continue;
      const bool connected =
          is_bound(encoded[i].subject) || is_bound(encoded[i].object);
      const uint64_t sc = score(encoded[i]);
      if (best == encoded.size() || (connected && !best_connected) ||
          (connected == best_connected && sc < best_score)) {
        best = i;
        best_score = sc;
        best_connected = connected;
      }
    }
    used[best] = true;
    order.push_back(best);
    if (encoded[best].subject.is_variable) {
      var_bound[encoded[best].subject.slot] = true;
    }
    if (encoded[best].object.is_variable) {
      var_bound[encoded[best].object.slot] = true;
    }
  }
  plan.patterns.reserve(order.size());
  for (size_t i : order) plan.patterns.push_back(encoded[i]);
  return plan;
}

Result<TraversalMatcher::Cursor> TraversalMatcher::OpenCursor(
    const Plan& plan, const TermId* param_values, CostMeter* meter) const {
  for (size_t i = 0; i < plan.param_names.size(); ++i) {
    if (param_values == nullptr || param_values[i] == rdf::kInvalidTermId) {
      return Status::FailedPrecondition(
          "unbound parameter $" + plan.param_names[i] +
          " (bind every parameter before executing)");
    }
  }
  Cursor c;
  c.graph_ = graph_;
  c.meter_ = meter;
  c.patterns_ = plan.patterns;
  for (EncPat& p : c.patterns_) {
    if (p.subject.param >= 0) p.subject.constant = param_values[p.subject.param];
    if (p.object.param >= 0) p.object.constant = param_values[p.object.param];
  }
  c.out_vars_ = plan.out_vars;
  c.out_slots_ = plan.out_slots;
  c.slots_.assign(plan.num_slots, rdf::kInvalidTermId);
  c.trail_.reserve(plan.num_slots);
  if (plan.impossible) c.finished_ = true;
  return c;
}

Result<BindingTable> TraversalMatcher::DrainSerial(
    const Plan& plan, const TermId* param_values, CostMeter* meter) const {
  DSKG_ASSIGN_OR_RETURN(Cursor cursor, OpenCursor(plan, param_values, meter));
  BindingTable out;
  out.columns = plan.out_vars;
  bool done = false;
  DSKG_RETURN_NOT_OK(
      cursor.Fill(&out, std::numeric_limits<size_t>::max(), &done));
  return out;
}

Result<BindingTable> TraversalMatcher::MatchSharded(
    const Plan& plan, const TermId* param_values, CostMeter* meter,
    ThreadPool* pool, int max_shards) const {
  if (max_shards <= 0 && pool != nullptr) {
    max_shards = static_cast<int>(pool->size());
  }
  // Budgeted traversal cancels cooperatively against one running total — a
  // serial protocol, so budgeted plans always take the serial drain.
  if (pool == nullptr || max_shards <= 1 || plan.impossible ||
      meter->budget_micros() > 0.0) {
    return DrainSerial(plan, param_values, meter);
  }

  // Peek the first pattern's candidate range without charging: the root
  // endpoints are constants or params, so resolution needs no DFS state.
  DSKG_ASSIGN_OR_RETURN(Cursor proto, OpenCursor(plan, param_values, meter));
  const EncPat& p0 = proto.patterns_[0];
  const bool s_bound = !p0.subject.is_variable;
  const bool o_bound = !p0.object.is_variable;
  Cursor::Frame root;
  if (s_bound) {
    root.mode = Cursor::Frame::kOut;
    root.nbrs = graph_->OutNeighbors(p0.subject.constant, p0.predicate);
    root.end_idx = root.nbrs.size();
    root.has_o = o_bound;
    root.o_val = p0.object.constant;
  } else if (o_bound) {
    root.mode = Cursor::Frame::kIn;
    root.nbrs = graph_->InNeighbors(p0.object.constant, p0.predicate);
    root.end_idx = root.nbrs.size();
  } else {
    root.mode = Cursor::Frame::kWalk;
    root.end_idx = graph_->PartitionTriples(p0.predicate);
  }
  const size_t count = root.end_idx;
  const size_t num_shards =
      std::min<size_t>(static_cast<size_t>(max_shards), count);
  if (num_shards <= 1) return DrainSerial(plan, param_values, meter);

  // From here on this call owns the serial path's charges: replicate the
  // root descent's node lookup exactly once on the caller's meter.
  if (s_bound || o_bound) meter->Add(Op::kNodeLookup);

  struct ShardOutcome {
    Status status;
    BindingTable table;
    CostMeter meter;
  };
  std::vector<ShardOutcome> outcomes(num_shards);
  // Shard tasks run on pool workers that have no thread-local read
  // snapshot installed: re-install the caller's so they see the same
  // graph state (null = live reads, same as the caller).
  const PropertyGraph::Snapshot* snapshot = graph_->InstalledSnapshot();
  const size_t base = count / num_shards;
  const size_t extra = count % num_shards;
  pool->ParallelFor(num_shards, [&](size_t s) {
    ShardOutcome& out = outcomes[s];
    PropertyGraph::ReadScope read_scope(snapshot);
    out.meter = CostMeter(meter->model(), meter->throttle());
    Cursor c;
    c.graph_ = graph_;
    c.meter_ = &out.meter;
    c.patterns_ = proto.patterns_;
    c.out_vars_ = proto.out_vars_;
    c.out_slots_ = proto.out_slots_;
    c.slots_ = proto.slots_;
    c.trail_.reserve(c.slots_.size());
    Cursor::Frame f = root;
    f.idx = s * base + std::min(s, extra);
    f.end_idx = (s + 1) * base + std::min(s + 1, extra);
    if (f.mode == Cursor::Frame::kWalk) {
      f.walk = graph_->WalkEdges(p0.predicate, f.idx);
    }
    c.stack_.push_back(f);
    c.descend_ = false;  // resume mid-frame at the shard's first candidate
    out.table.columns = proto.out_vars_;
    bool done = false;
    out.status =
        c.Fill(&out.table, std::numeric_limits<size_t>::max(), &done);
  });

  BindingTable merged;
  merged.columns = plan.out_vars;
  for (ShardOutcome& out : outcomes) {
    DSKG_RETURN_NOT_OK(out.status);
    meter->Merge(out.meter);
    merged.AppendRowsFrom(out.table);
  }
  return merged;
}

// ---- the resumable DFS ------------------------------------------------------

bool TraversalMatcher::Cursor::Resolve(const End& e, TermId* value) const {
  if (!e.is_variable) {
    *value = e.constant;
    return true;
  }
  const TermId v = slots_[e.slot];
  if (v == rdf::kInvalidTermId) return false;
  *value = v;
  return true;
}

bool TraversalMatcher::Cursor::Bind(const End& e, TermId value) {
  if (!e.is_variable) return e.constant == value;
  TermId& cell = slots_[e.slot];
  if (cell == rdf::kInvalidTermId) {
    cell = value;
    trail_.push_back(e.slot);
    return true;
  }
  return cell == value;
}

void TraversalMatcher::Cursor::Unwind(size_t mark) {
  while (trail_.size() > mark) {
    slots_[trail_.back()] = rdf::kInvalidTermId;
    trail_.pop_back();
  }
}

Status TraversalMatcher::Cursor::EmitRow(BindingTable* out) {
  TermId* row = out->AppendRow();
  for (size_t i = 0; i < out_slots_.size(); ++i) {
    const int slot = out_slots_[i];
    const TermId v = slot >= 0 ? slots_[slot] : rdf::kInvalidTermId;
    if (v == rdf::kInvalidTermId) {
      return Fail(Status::Internal("unbound output variable ?" +
                                   out_vars_[i]));
    }
    row[i] = v;
  }
  return Status::OK();
}

Status TraversalMatcher::Cursor::Fail(Status s) {
  status_ = std::move(s);
  return status_;
}

/// The recursive backtracking search of the original matcher, run as an
/// explicit-stack machine so it can suspend between emitted rows. Charge
/// points and budget checks sit exactly where the recursion had them, so
/// a drained cursor's meter is bit-identical to the one-shot path's.
Status TraversalMatcher::Cursor::Fill(BindingTable* out, size_t max_rows,
                                      bool* done) {
  *done = false;
  if (!status_.ok()) return status_;
  if (finished_) {
    *done = true;
    return Status::OK();
  }

  size_t emitted = 0;
  while (true) {
    if (descend_) {
      // Entering Step(depth) with depth == stack_.size().
      descend_ = false;
      if (meter_->ExceededBudget()) {
        return Fail(
            Status::Cancelled("graph traversal exceeded cost budget"));
      }
      const size_t depth = stack_.size();
      if (depth == patterns_.size()) {
        DSKG_RETURN_NOT_OK(EmitRow(out));
        ++emitted;
        if (emitted >= max_rows) return Status::OK();  // suspend, stack kept
        continue;  // the child "returned OK": resume the parent frame
      }
      const EncPat& p = patterns_[depth];
      TermId s_val = rdf::kInvalidTermId;
      TermId o_val = rdf::kInvalidTermId;
      const bool s_bound = Resolve(p.subject, &s_val);
      const bool o_bound = Resolve(p.object, &o_val);
      Frame f;
      if (s_bound) {
        meter_->Add(Op::kNodeLookup);
        f.mode = Frame::kOut;
        f.nbrs = graph_->OutNeighbors(s_val, p.predicate);
        f.end_idx = f.nbrs.size();
        f.has_o = o_bound;
        f.o_val = o_val;
        if (f.nbrs.empty()) continue;  // no expansion: return OK upward
      } else if (o_bound) {
        meter_->Add(Op::kNodeLookup);
        f.mode = Frame::kIn;
        f.nbrs = graph_->InNeighbors(o_val, p.predicate);
        f.end_idx = f.nbrs.size();
        if (f.nbrs.empty()) continue;
      } else {
        // Both endpoints unbound: seed from the partition's edge walk.
        f.mode = Frame::kWalk;
        f.walk = graph_->WalkEdges(p.predicate, 0);
        f.end_idx = graph_->PartitionTriples(p.predicate);
      }
      stack_.push_back(f);
      continue;
    }

    if (stack_.empty()) {
      finished_ = true;
      *done = true;
      return Status::OK();
    }

    Frame& f = stack_.back();
    const EncPat& p = patterns_[stack_.size() - 1];
    if (f.post_pending) {
      // The branch started last time (a descent, or a failed Bind) has
      // completed: unwind its bindings and run the post-branch budget
      // check, exactly as the recursion does after Step returns.
      f.post_pending = false;
      if (f.did_bind) Unwind(f.mark);
      if (meter_->ExceededBudget()) {
        return Fail(
            Status::Cancelled("graph traversal exceeded cost budget"));
      }
    }

    bool advanced = false;
    while (f.idx < f.end_idx) {
      const size_t i = f.idx++;
      meter_->Add(Op::kAdjExpandEdge);
      if (f.mode == Frame::kOut) {
        const TermId nbr = f.nbrs[i];
        if (f.has_o) {
          meter_->Add(Op::kBindCheck);
          if (nbr != f.o_val) continue;  // mismatch: next neighbor directly
          f.post_pending = true;
          f.did_bind = false;
          descend_ = true;
        } else {
          f.mark = trail_.size();
          f.post_pending = true;
          f.did_bind = true;
          if (Bind(p.object, nbr)) descend_ = true;
        }
      } else if (f.mode == Frame::kIn) {
        const TermId nbr = f.nbrs[i];
        f.mark = trail_.size();
        f.post_pending = true;
        f.did_bind = true;
        if (Bind(p.subject, nbr)) descend_ = true;
      } else {
        TermId es = rdf::kInvalidTermId;
        TermId eo = rdf::kInvalidTermId;
        f.walk.Next(&es, &eo);
        f.mark = trail_.size();
        f.post_pending = true;
        f.did_bind = true;
        if (Bind(p.subject, es) && Bind(p.object, eo)) descend_ = true;
      }
      advanced = true;
      break;
    }
    if (!advanced) stack_.pop_back();  // frame exhausted: return OK upward
  }
}

}  // namespace dskg::graphstore
