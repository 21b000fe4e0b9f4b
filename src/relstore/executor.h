#ifndef DSKG_RELSTORE_EXECUTOR_H_
#define DSKG_RELSTORE_EXECUTOR_H_

/// \file executor.h
/// BGP execution over the triple table.
///
/// The executor compiles a basic graph pattern into a left-deep join plan
/// ordered greedily by estimated cardinality, then evaluates it with one
/// of two physical operators per step, chosen by estimated cost:
///
///   * index nested-loop join — one B+-tree probe per outer row; wins at
///     small selectivity;
///   * hash join — scans the pattern's extent once (a partition scan via
///     the POS index) and probes it with outer rows; wins at large
///     selectivity.
///
/// Every join step materializes its intermediate result (the row-store
/// pipeline the paper attributes to MySQL), charging `kMaterializeTuple`
/// per intermediate row — this is the term that makes large-selectivity
/// complex queries expensive in the relational store, reproducing Table 1.
///
/// The pipeline is *slot-compiled*: every variable name is resolved to a
/// small integer (a pattern-local variable index or a `BindingTable`
/// column index) once at plan time, intermediates are flat columnar
/// tables, and hash joins key on packed fixed-size `TermId` tuples — the
/// per-row path performs no heap allocation and no string hashing. The
/// simulated cost charges are unchanged; only the real machine cost of
/// paying them fell.

#include <string>
#include <unordered_set>
#include <vector>

#include "common/cost.h"
#include "common/status.h"
#include "rdf/dictionary.h"
#include "relstore/triple_table.h"
#include "sparql/ast.h"
#include "sparql/bindings.h"

namespace dskg::relstore {

/// Executes BGP queries against a `TripleTable`.
class Executor {
 public:
  /// Neither pointer is owned; both must outlive the executor.
  Executor(const TripleTable* table, const rdf::Dictionary* dict)
      : table_(table), dict_(dict) {}

  /// One triple-pattern position after dictionary encoding. Plan state —
  /// produced once by `Compile`, read by every execution.
  struct Slot {
    bool is_variable = false;
    std::string var;          // when is_variable
    rdf::TermId constant = rdf::kInvalidTermId;  // when !is_variable
    bool missing_constant = false;  // constant not in the dictionary
  };

  /// A fully encoded pattern plus plan-time metadata. Variable names are
  /// resolved once here ("slot compilation"): each distinct variable of
  /// the pattern gets a small integer index, and every per-row operation
  /// works on those indexes — no string map is ever touched while rows
  /// flow. Public for the planner helpers in executor.cc, the compiled
  /// query plans cached by `core::Session`, and white-box tests.
  struct EncodedPattern {
    Slot slots[3];  // subject, predicate, object
    bool used = false;

    /// Slot layout: `var_of_pos[i]` is the index (into `vars`) of the
    /// distinct variable at position i, or -1 for a constant position.
    int var_of_pos[3] = {-1, -1, -1};
    /// Distinct variable names of the pattern, in position order (<= 3).
    std::vector<std::string> vars;

    /// Resolves the pattern's variable positions to distinct-var indexes.
    /// Called once per query by `Compile`.
    void CompileSlots();

    size_t NumVars() const { return vars.size(); }

    bool HasMissingConstant() const {
      return slots[0].missing_constant || slots[1].missing_constant ||
             slots[2].missing_constant;
    }

    /// Pattern with only its constants bound (the scan extent).
    BoundPattern ConstantExtent() const;

    /// Distinct variables of the pattern, in position order.
    const std::vector<std::string>& Vars() const { return vars; }

    /// Checks within-pattern consistency for repeated variables and
    /// writes the value of each distinct variable of triple `t` into
    /// `out[0 .. NumVars())`. No allocation, no string hashing.
    bool ExtractVarValues(const rdf::Triple& t, rdf::TermId* out) const;
  };

  /// A slot-compiled query: dictionary-encoded patterns, the projection,
  /// and the `$parameter` sites left open for execution-time binding.
  /// Compilation happens once (`Compile`); each execution clones the
  /// pattern vector and patches the parameter sites with bound term ids —
  /// no parsing, no dictionary probe, no string hashing on re-execution.
  struct CompiledQuery {
    std::vector<EncodedPattern> patterns;
    std::vector<std::string> out_vars;
    /// A non-parameter constant is absent from the dictionary: the query
    /// can never match (parameters are validated when bound instead).
    bool impossible = false;

    /// One `$param` occurrence: patterns[pattern].slots[pos] takes the
    /// bound value of parameter `param` at execution time.
    struct ParamSite {
      uint32_t pattern;
      uint8_t pos;
      uint32_t param;
    };
    std::vector<ParamSite> param_sites;
    /// Distinct parameter names, in first-appearance order; `param`
    /// indexes above and `param_values` passed at execution align with
    /// this order.
    std::vector<std::string> param_names;
  };

  /// Slot-compiles `query` (see `CompiledQuery`). Never fails: unknown
  /// constants mark the plan `impossible`, parameters become open sites.
  CompiledQuery Compile(const sparql::Query& query) const;

  /// Executes a compiled query and returns its projected bindings.
  /// `param_values` supplies one term id per entry of `cq.param_names`
  /// (may be null when the query has no parameters); a missing or invalid
  /// value fails with FailedPrecondition — never a silently empty table.
  /// `seed` (may be null) is a binding table to start from, e.g.
  /// intermediate results migrated from the graph store into the
  /// temporary table space; its columns join the query's variables by
  /// name. An `impossible` plan yields an empty table with the header.
  /// Returns Cancelled if the meter's cost budget is exhausted.
  Result<sparql::BindingTable> ExecuteCompiled(
      const CompiledQuery& cq, const rdf::TermId* param_values,
      const sparql::BindingTable* seed, CostMeter* meter) const;

  /// Streaming variant of `ExecuteCompiled`: identical pipeline and cost
  /// charges, but the final projection copy is skipped. The returned
  /// table is the last join intermediate — its columns are a superset of
  /// `cq.out_vars` whenever rows exist. Result cursors project chunk by
  /// chunk from this instead of materializing a second full table.
  Result<sparql::BindingTable> ExecuteCompiledJoined(
      const CompiledQuery& cq, const rdf::TermId* param_values,
      const sparql::BindingTable* seed, CostMeter* meter) const;

 private:
  /// Greedily joins every unused pattern into `*cur`, charging `meter`.
  Status JoinRemaining(std::vector<EncodedPattern>* patterns,
                       sparql::BindingTable* cur,
                       std::unordered_set<std::string>* bound,
                       size_t num_joined, CostMeter* meter) const;

  const TripleTable* table_;
  const rdf::Dictionary* dict_;
};

}  // namespace dskg::relstore

#endif  // DSKG_RELSTORE_EXECUTOR_H_
