#ifndef DSKG_PERSIST_SNAPSHOT_H_
#define DSKG_PERSIST_SNAPSHOT_H_

/// \file snapshot.h
/// Checksummed, section-framed store snapshots with footer commit.
///
/// File layout (little-endian):
///
///   +----------------------+  "DSKGSNP1" magic + u32 version
///   | header               |
///   +----------------------+  repeated num_sections times:
///   | section              |  u32 section_id | u32 crc32c(payload) |
///   |                      |  u64 len | payload
///   +----------------------+
///   | footer               |  u64 watermark |
///   |                      |  num_sections x (u32 id | u32 crc) |
///   |                      |  u32 num_sections | u32 crc32c(footer) |
///   |                      |  "DSKGEND1" magic
///   +----------------------+
///
/// The footer is written, synced and published (temp file + rename +
/// directory fsync) *after* every section, so a torn snapshot simply has
/// no valid footer and is never loaded; the per-section CRCs (stored both
/// inline and in the footer, which carries its own CRC) catch every
/// bit flip. Recovery falls back to the next-older snapshot when the
/// newest fails validation — `DurabilityOptions::keep_snapshots` keeps
/// that fallback on disk.
///
/// Sections (ids are part of the format; unknown ids are an error):
///   1 config    — shard/slice layout the image depends on
///   2 dataset   — triple list + partition stats (both empty: the table
///                 holds the triples; an older image's list is read only
///                 to release its duplicates' references) + full
///                 dictionary image
///   3 table     — triple table slab images (all three permutation trees)
///   4 residency — predicate ids resident in the graph store

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/dual_store.h"
#include "persist/file.h"
#include "rdf/dataset.h"

namespace dskg::persist {

inline constexpr uint32_t kSnapshotVersion = 1;

inline constexpr uint32_t kSectionConfig = 1;
inline constexpr uint32_t kSectionDataset = 2;
inline constexpr uint32_t kSectionTable = 3;
inline constexpr uint32_t kSectionResidency = 4;

/// Streams sections into one snapshot file. `Finish` commits: a file
/// without its footer (crash before `Finish` returned) never validates.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::unique_ptr<WritableFile> file);

  /// Appends one checksummed section (the header goes out first).
  Status AddSection(uint32_t section_id, std::string_view payload);

  /// Writes the footer for watermark `watermark`, syncs and closes.
  Status Finish(uint64_t watermark);

 private:
  std::unique_ptr<WritableFile> file_;
  std::vector<std::pair<uint32_t, uint32_t>> section_crcs_;
  bool wrote_header_ = false;
};

/// A parsed, fully checksum-verified snapshot file.
struct RawSnapshot {
  uint32_t version = 0;
  uint64_t watermark = 0;
  std::vector<std::pair<uint32_t, std::string>> sections;  // (id, payload)

  const std::string* Section(uint32_t id) const {
    for (const auto& [sid, payload] : sections) {
      if (sid == id) return &payload;
    }
    return nullptr;
  }
};

/// Reads and validates `path` end to end: header magic/version, footer
/// commit, footer CRC, and every section CRC against both the inline and
/// the footer copy. Any mismatch is an IoError — corrupt or torn
/// snapshots are never partially loaded.
Result<RawSnapshot> ReadSnapshotFile(const std::string& path);

// ---- store-level save/load --------------------------------------------------

/// Serializes `store` (dictionary, triple table slabs, graph residency,
/// layout config) at WAL watermark `watermark` into `path`,
/// routed through `wrap` (null = identity). The caller publishes the file
/// atomically (temp + rename). Quiescent only: call between batches,
/// after reclamation. Records `persist.snapshot.save_us` and
/// `persist.snapshot.bytes`.
Status SaveStoreSnapshot(const core::DualStore& store, uint64_t watermark,
                         const std::string& path, const WritableWrapper& wrap);

/// Everything `LoadStoreSnapshot` recovers from one file. The dataset
/// holds the restored dictionary and no triples; the table section stays
/// an opaque payload the store restore path deserializes into its own
/// freshly constructed table.
struct LoadedSnapshot {
  uint64_t watermark = 0;
  /// Layout the image was saved under; recovery must match it.
  int num_shards = 1;
  int dict_slices = 1;
  rdf::Dataset dataset;
  std::string table_payload;
  std::vector<rdf::TermId> resident_predicates;
};

/// Loads and validates `path` into a `LoadedSnapshot`. Records
/// `persist.snapshot.load_us`.
Result<LoadedSnapshot> LoadStoreSnapshot(const std::string& path);

}  // namespace dskg::persist

#endif  // DSKG_PERSIST_SNAPSHOT_H_
