#include "rdf/dataset.h"

#include <unordered_set>
#include <vector>

namespace dskg::rdf {

namespace {
// Footprint model: three 8-byte ids per triple plus an amortized share of
// dictionary text. Matches the scale of on-disk triple tables closely
// enough for budget accounting, which is all it is used for.
constexpr uint64_t kBytesPerTriple = 3 * sizeof(TermId) + 8;
}  // namespace

Triple Dataset::Add(std::string_view s, std::string_view p,
                    std::string_view o) {
  Triple t{dict_->Intern(s), dict_->Intern(p), dict_->Intern(o)};
  Add(t);
  return t;
}

void Dataset::Add(const Triple& t) {
  triples_.push_back(t);
  dict_->Retain(t);
  PartitionStats& st = partition_stats_[t.predicate];
  st.predicate = t.predicate;
  st.num_triples += 1;
  st.bytes += kBytesPerTriple;
}

void Dataset::ReleaseDuplicates(const std::vector<Triple>& collapsed) {
  if (duplicates_released_) return;
  duplicates_released_ = true;
  for (const Triple& t : collapsed) dict_->Release(t);
}

void Dataset::DropTriples() {
  std::vector<Triple>().swap(triples_);
  partition_stats_.clear();
}

Dataset Dataset::Clone(int dict_slices) const {
  Dataset out(dict_slices);
  // Pre-size the clone's dictionary (id table, hash index, one arena
  // chunk of exactly the source's text bytes) and triple list: rebuilds —
  // the OnlineStore constructor in particular — run O(chunks)
  // allocations instead of growing every table.
  out.dict_->Reserve(dict_->size(), dict_->text_bytes());
  out.triples_.reserve(triples_.size());
  for (const Triple& t : triples_) {
    out.Add(dict_->TermOf(t.subject), dict_->TermOf(t.predicate),
            dict_->TermOf(t.object));
  }
  return out;
}

size_t Dataset::CountDistinctSubjectsObjects() const {
  std::unordered_set<TermId> seen;
  seen.reserve(triples_.size());
  for (const Triple& t : triples_) {
    seen.insert(t.subject);
    seen.insert(t.object);
  }
  return seen.size();
}

Result<PartitionStats> Dataset::PartitionOf(TermId predicate) const {
  auto it = partition_stats_.find(predicate);
  if (it == partition_stats_.end()) {
    return Status::NotFound("no partition for predicate id " +
                            std::to_string(predicate));
  }
  return it->second;
}

std::vector<PartitionStats> Dataset::AllPartitions() const {
  std::vector<PartitionStats> out;
  out.reserve(partition_stats_.size());
  for (const auto& [_, st] : partition_stats_) out.push_back(st);
  return out;
}

std::vector<Triple> Dataset::TriplesWithPredicate(TermId predicate) const {
  std::vector<Triple> out;
  for (const Triple& t : triples_) {
    if (t.predicate == predicate) out.push_back(t);
  }
  return out;
}

uint64_t Dataset::EstimatedBytes() const {
  return triples_.size() * kBytesPerTriple + dict_->text_bytes();
}

}  // namespace dskg::rdf
