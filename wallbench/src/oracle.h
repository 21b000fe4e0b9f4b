#ifndef DSKG_WALLBENCH_ORACLE_H_
#define DSKG_WALLBENCH_ORACLE_H_

// The benchmark's independent oracle: a plain triple set that follows the
// update log, and a naive basic-graph-pattern evaluator over it (hash
// joins in pattern order). It shares no code with the relational or the
// graph store, nor with the SPARQL parser, so a wrong row from either
// engine shows as a mismatch instead of being reproduced here.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace wallbench {

/// One result row, as term texts in select-list order.
using Row = std::vector<std::string>;

/// A result bag, sorted so that two bags compare with `==`.
using Rows = std::vector<Row>;

/// One parsed pattern position: a `?variable` or a constant term.
struct PatternTerm {
  bool is_var = false;
  std::string text;  // variable name without '?', or the term itself
};

/// The benchmark's query subset: `SELECT ?v... WHERE { s p o . ... }`.
struct Bgp {
  std::vector<std::string> select;
  std::vector<std::array<PatternTerm, 3>> patterns;
};

/// Parses `text`, substituting each `$name` from `bindings`. Returns false
/// (with `*error` set) on anything outside the subset or an unbound
/// parameter.
bool ParseBgp(std::string_view text,
              const std::vector<std::pair<std::string, std::string>>& bindings,
              Bgp* out, std::string* error);

class Oracle {
 public:
  /// Adds a triple; a stored triple is left as is (set semantics).
  /// Returns true when the set changed.
  bool Insert(std::string_view s, std::string_view p, std::string_view o);
  /// Removes a triple; an absent one is ignored. Returns true when the
  /// set changed.
  bool Delete(std::string_view s, std::string_view p, std::string_view o);

  /// Live triples.
  size_t size() const { return triples_.size(); }

  /// True while some live triple mentions `term` in any position.
  bool TermLive(std::string_view term) const;

  /// Every live triple that mentions `term` as subject or object.
  std::vector<std::array<std::string, 3>> TriplesMentioning(
      std::string_view term) const;

  /// Evaluates `bgp` with bag semantics; rows sorted.
  Rows Evaluate(const Bgp& bgp);

 private:
  struct Key {
    uint32_t s, p, o;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = k.s * 0x9E3779B97F4A7C15ULL;
      h ^= (h >> 29) + k.p * 0xBF58476D1CE4E5B9ULL;
      h ^= (h >> 31) + k.o * 0x94D049BB133111EBULL;
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };
  static constexpr uint32_t kNone = ~0u;

  uint32_t Intern(std::string_view term);
  uint32_t Find(std::string_view term) const;

  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<std::string> terms_;
  std::vector<uint32_t> uses_;  // live triple positions per term
  std::unordered_set<Key, KeyHash> triples_;

  // Per-predicate triple lists, rebuilt lazily after the set changes.
  bool index_dirty_ = true;
  std::unordered_map<uint32_t, std::vector<Key>> by_predicate_;
};

}  // namespace wallbench

#endif  // DSKG_WALLBENCH_ORACLE_H_
