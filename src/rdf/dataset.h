#ifndef DSKG_RDF_DATASET_H_
#define DSKG_RDF_DATASET_H_

/// \file dataset.h
/// An in-memory knowledge graph: a dictionary plus a bag of triples, with
/// per-predicate partition statistics.
///
/// "Triple partition" follows the paper's definition (§3.2): the set of all
/// triples sharing one predicate. Partitions are the unit DOTIL transfers
/// between the relational and graph stores, so the dataset maintains their
/// sizes incrementally as triples are added.
///
/// The triple list and the statistics describe what was loaded: the
/// generators, the N-Triples reader and the update-stream generator work
/// on them. A store built over a dataset (`core::DualStore`) keeps the
/// triples in its own table and, from then on, maintains only the
/// dictionary's refcounts; the list and statistics stay as loaded.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "rdf/dictionary.h"
#include "rdf/triple.h"

namespace dskg::rdf {

/// Statistics of one predicate partition.
struct PartitionStats {
  TermId predicate = kInvalidTermId;
  uint64_t num_triples = 0;
  /// Estimated storage footprint in bytes (3 ids + term-text amortization).
  uint64_t bytes = 0;
};

/// A knowledge graph held in memory.
class Dataset {
 public:
  /// `dict_slices` shards the dictionary's arenas by term hash (the
  /// online store passes its shard count); one slice — the default — is
  /// the exact unsliced layout and id assignment.
  explicit Dataset(int dict_slices = 1)
      : dict_(std::make_unique<Dictionary>(dict_slices)) {}

  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;
  Dataset(Dataset&&) = default;
  Dataset& operator=(Dataset&&) = default;

  /// Adds a triple given term strings, interning them as needed. Each
  /// added occurrence retains its three term ids in the dictionary.
  Triple Add(std::string_view s, std::string_view p, std::string_view o);

  /// Adds an already-encoded triple. Ids must come from `dict()`.
  void Add(const Triple& t);

  /// Releases the term ids of `collapsed`, the occurrences of triples the
  /// list holds more than once, which a store loading the list keeps once
  /// (`TripleTable::BulkLoad` hands them back). Afterwards a refcount
  /// counts the distinct triples that use the term. Only the first call
  /// has an effect, so several stores may load one dataset.
  void ReleaseDuplicates(const std::vector<Triple>& collapsed);

  /// Frees the triple list and the partition statistics, keeping the
  /// dictionary: a store that owns its dataset calls this once its table
  /// holds the triples.
  void DropTriples();

  /// Deep copy: a new dataset with its own dictionary (of `dict_slices`
  /// slices), built by re-adding this dataset's triples in insertion
  /// order. Term ids are assigned in first-occurrence order, so two
  /// same-slice-count clones of the same dataset are id-identical to each
  /// other; with one slice, ids match the source's unless the source
  /// interned terms that no triple uses.
  Dataset Clone(int dict_slices = 1) const;

  /// All triples, in insertion order.
  const std::vector<Triple>& triples() const { return triples_; }

  /// The term dictionary.
  const Dictionary& dict() const { return *dict_; }
  Dictionary& mutable_dict() { return *dict_; }

  uint64_t num_triples() const { return triples_.size(); }

  /// Number of distinct predicates seen (the paper's #-P column).
  size_t num_predicates() const { return partition_stats_.size(); }

  /// Number of distinct subjects-or-objects (the paper's #-S∪O column).
  /// Computed on demand: O(|G|).
  size_t CountDistinctSubjectsObjects() const;

  /// Stats of the partition of `predicate`, or NotFound.
  Result<PartitionStats> PartitionOf(TermId predicate) const;

  /// Stats for every partition, ordered by predicate id.
  std::vector<PartitionStats> AllPartitions() const;

  /// All triples whose predicate is `predicate` (O(|G|) scan; partition
  /// extraction during migration goes through the relational store's
  /// POS index instead, this is a convenience for tests/tools).
  std::vector<Triple> TriplesWithPredicate(TermId predicate) const;

  /// Estimated total dataset footprint in bytes (budget model: a fixed
  /// per-triple charge plus live term text; used for partition budgets).
  uint64_t EstimatedBytes() const;

  /// Exact storage bytes of the triple list plus the dictionary's arena,
  /// span, refcount and index tables. Deterministic for a given operation
  /// sequence — the bench baselines track this as part of bytes/triple.
  uint64_t StorageBytes() const {
    return triples_.size() * sizeof(Triple) + dict_->MemoryBytes();
  }

 private:
  std::unique_ptr<Dictionary> dict_;
  std::vector<Triple> triples_;
  // Ordered map => AllPartitions() is deterministic without a sort.
  std::map<TermId, PartitionStats> partition_stats_;
  bool duplicates_released_ = false;
};

}  // namespace dskg::rdf

#endif  // DSKG_RDF_DATASET_H_
