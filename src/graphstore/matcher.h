#ifndef DSKG_GRAPHSTORE_MATCHER_H_
#define DSKG_GRAPHSTORE_MATCHER_H_

/// \file matcher.h
/// BGP matching by graph traversal (the graph store's query engine).
///
/// The matcher evaluates a basic graph pattern by backtracking depth-first
/// search over the property graph's adjacency lists: patterns are ordered
/// greedily (smallest partition first, then patterns adjacent to already-
/// bound variables), and each step expands a bound vertex's neighbor list
/// — no join materialization, no intermediate tables. Per the index-free
/// adjacency argument (paper §1), the work is proportional to the number
/// of edges actually visited, not to the size of the graph.
///
/// Variable names are slot-compiled at plan time: the traversal keeps its
/// bindings in a fixed `TermId` slot array with an integer backtracking
/// trail, so binding/probing/unwinding are array stores — no per-edge
/// heap allocation or string hashing anywhere on the DFS path.
///
/// The plan/execute split is explicit: `Compile` produces a reusable
/// `Plan` (encoding, precondition checks, traversal order, `$param`
/// sites) once; `OpenCursor` runs it as a *resumable* DFS that emits
/// result rows in pull-sized chunks — the traversal suspends mid-search
/// with its explicit stack intact, so a caller consuming a few rows never
/// pays for (or stores) the rest. `MatchSharded` drains a plan to the
/// end, splitting the root step across a thread pool when given one.
///
/// The matcher can only answer queries whose constant predicates are all
/// resident in the graph store; the dual-store query processor is
/// responsible for routing (Algorithm 3).

#include <span>
#include <string>
#include <vector>

#include "common/cost.h"
#include "common/status.h"
#include "graphstore/property_graph.h"
#include "rdf/dictionary.h"
#include "sparql/ast.h"
#include "sparql/bindings.h"

namespace dskg {
class ThreadPool;
}  // namespace dskg

namespace dskg::graphstore {

/// Evaluates BGP queries against a `PropertyGraph` by traversal.
class TraversalMatcher {
 public:
  /// Neither pointer is owned; both must outlive the matcher.
  TraversalMatcher(const PropertyGraph* graph, const rdf::Dictionary* dict)
      : graph_(graph), dict_(dict) {}

  /// One pattern endpoint after slot compilation: a constant id, a
  /// variable slot, or an open `$param` site patched at cursor open.
  struct End {
    bool is_variable = false;
    int slot = -1;  // when is_variable: index into the DFS slot array
    rdf::TermId constant = rdf::kInvalidTermId;  // when !is_variable
    bool missing = false;  // constant absent from the dictionary
    int param = -1;  // >= 0: index into Plan::param_names
  };

  /// One encoded pattern; the predicate is always a constant (checked at
  /// compile time — a variable predicate cannot be answered by the
  /// partial graph store).
  struct EncPat {
    End subject;
    rdf::TermId predicate = rdf::kInvalidTermId;
    End object;
  };

  /// A slot-compiled traversal plan: patterns in traversal order, the
  /// output slot mapping, and the parameter sites left open for binding.
  /// Valid only while the partitions it was compiled against stay
  /// resident — the session layer guards this with plan epochs.
  struct Plan {
    std::vector<EncPat> patterns;  // in greedy traversal order
    std::vector<std::string> out_vars;
    std::vector<int> out_slots;  // slot of each out_var, -1 if absent
    size_t num_slots = 0;
    /// A non-parameter constant (or a predicate term) is unknown to the
    /// dictionary: the query can never match.
    bool impossible = false;
    /// Distinct parameter names in first-appearance order; `End::param`
    /// and the `param_values` array passed to `OpenCursor` align with it.
    std::vector<std::string> param_names;
  };

  /// Compiles `query` once: dictionary-encodes endpoints, checks the
  /// graph-store preconditions, fixes the traversal order.
  ///
  /// Preconditions checked here (FailedPrecondition on violation):
  ///  * every known constant predicate of the query is resident;
  ///  * no pattern has a variable predicate (the graph store holds only a
  ///    subset of partitions, so a variable predicate could silently
  ///    return partial answers — the processor must route such queries to
  ///    the relational store).
  Result<Plan> Compile(const sparql::Query& query) const;

  /// A resumable traversal: the DFS over the plan's patterns with its
  /// explicit stack, suspendable between result rows. Obtained from
  /// `OpenCursor`; borrows the matcher's graph and the caller's meter,
  /// both of which must outlive it.
  class Cursor {
   public:
    /// Runs the traversal until `max_rows` more rows have been appended
    /// to `*out` (whose columns must already be the plan's `out_vars`) or
    /// the search space is exhausted (`*done` = true). Cost is charged to
    /// the meter as the search advances, so a drained cursor has charged
    /// exactly what `MatchSharded` charges. Returns Cancelled when the
    /// meter's budget runs out; errors are sticky.
    Status Fill(sparql::BindingTable* out, size_t max_rows, bool* done);

    const std::vector<std::string>& out_vars() const { return out_vars_; }

   private:
    friend class TraversalMatcher;
    Cursor() = default;

    /// One DFS step: the candidates of one pattern, expanded one at a
    /// time. `idx` counts the candidates taken so far.
    struct Frame {
      /// kOut / kIn expand a bound vertex's neighbour list; kWalk seeds a
      /// step with both ends unbound from the partition's edge walk.
      enum Mode { kOut, kIn, kWalk };
      Mode mode = kOut;
      std::span<const rdf::TermId> nbrs;  // kOut / kIn: the list
      PropertyGraph::EdgeWalk walk;       // kWalk: positioned at `idx`
      size_t idx = 0;
      /// Exclusive candidate bound: the list's or partition's size, or a
      /// sharded root frame's sub-range end.
      size_t end_idx = 0;
      bool has_o = false;            // kOut: object already resolved
      rdf::TermId o_val = rdf::kInvalidTermId;
      size_t mark = 0;               // trail mark of the in-flight branch
      bool post_pending = false;     // branch needs unwind + budget check
      bool did_bind = false;         // branch attempted a Bind
    };

    bool Resolve(const End& e, rdf::TermId* value) const;
    bool Bind(const End& e, rdf::TermId value);
    void Unwind(size_t mark);
    Status EmitRow(sparql::BindingTable* out);
    Status Fail(Status s);

    const PropertyGraph* graph_ = nullptr;
    CostMeter* meter_ = nullptr;
    std::vector<EncPat> patterns_;  // param sites already patched
    std::vector<std::string> out_vars_;
    std::vector<int> out_slots_;
    std::vector<rdf::TermId> slots_;  // slot -> value, kInvalidTermId = free
    std::vector<int> trail_;          // slots bound on the current DFS path
    std::vector<Frame> stack_;
    bool descend_ = true;   // next action: enter depth stack_.size()
    bool finished_ = false;
    Status status_;         // sticky failure
  };

  /// Opens a resumable cursor over `plan`. `param_values` supplies one
  /// term id per entry of `plan.param_names` (null allowed when the plan
  /// has none); a missing or invalid value fails with FailedPrecondition.
  /// Work is charged to `meter` incrementally as the cursor is pulled.
  Result<Cursor> OpenCursor(const Plan& plan,
                            const rdf::TermId* param_values,
                            CostMeter* meter) const;

  /// Drains `plan` with the first pattern's candidate range split into up
  /// to `max_shards` contiguous shards run on `pool` (`max_shards` <= 0:
  /// one per pool worker). Each shard gets a
  /// clone of the DFS cursor whose root frame covers only its candidate
  /// sub-range plus its own `CostMeter`; shard tables and meters are
  /// merged in ascending range order, so rows arrive in exactly the
  /// serial DFS order and (with the integer-picosecond meter) every
  /// charge component is bit-identical to the serial drain at every
  /// thread count. Shard tasks re-install the calling thread's
  /// `PropertyGraph` read snapshot, so sharding is safe under
  /// `DualStore::SnapshotScope`.
  ///
  /// Falls back to the serial drain when `pool` is null, the range is too
  /// small to split, or the meter carries a budget (budgeted traversal
  /// cancels cooperatively mid-search — a serial protocol). Unbound
  /// parameters fail with FailedPrecondition; an exhausted budget with
  /// Cancelled.
  Result<sparql::BindingTable> MatchSharded(const Plan& plan,
                                            const rdf::TermId* param_values,
                                            CostMeter* meter,
                                            ThreadPool* pool,
                                            int max_shards) const;

 private:
  /// `OpenCursor` + one exhaustive `Fill` (the serial drain).
  Result<sparql::BindingTable> DrainSerial(const Plan& plan,
                                           const rdf::TermId* param_values,
                                           CostMeter* meter) const;

  const PropertyGraph* graph_;
  const rdf::Dictionary* dict_;
};

}  // namespace dskg::graphstore

#endif  // DSKG_GRAPHSTORE_MATCHER_H_
