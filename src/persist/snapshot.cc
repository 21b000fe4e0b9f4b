#include "persist/snapshot.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/telemetry.h"
#include "persist/crc32c.h"

namespace dskg::persist {

namespace {

constexpr char kHeaderMagic[8] = {'D', 'S', 'K', 'G', 'S', 'N', 'P', '1'};
constexpr char kFooterMagic[8] = {'D', 'S', 'K', 'G', 'E', 'N', 'D', '1'};
constexpr size_t kHeaderSize = 8 + 4;           // magic + version
constexpr size_t kFooterFixedSize = 8 + 4 + 4 + 8;  // wm + n + crc + magic
constexpr size_t kSectionHeader = 4 + 4 + 8;    // id + crc + len

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::IoError(path + ": " + what);
}

constexpr size_t kPartitionStatsBytes = 3 * sizeof(uint64_t);

/// Restores a dataset section's dictionary into `dict`. Images written
/// before stores stopped keeping a triple list carry the list and its
/// partition statistics ahead of the dictionary. The table section holds
/// the same triples, so the list matters only for its duplicate
/// occurrences: their references are released, as a fresh load does.
Status ReadDatasetSection(ByteReader* in, rdf::Dictionary* dict) {
  uint64_t num_triples = 0;
  DSKG_RETURN_NOT_OK(in->ReadU64(&num_triples));
  if (num_triples > in->remaining() / sizeof(rdf::Triple)) {
    return Status::IoError("dataset image: triple count overflow");
  }
  std::vector<rdf::Triple> listed(num_triples);
  DSKG_RETURN_NOT_OK(
      in->ReadBytes(listed.data(), num_triples * sizeof(rdf::Triple)));
  uint64_t num_partitions = 0;
  DSKG_RETURN_NOT_OK(in->ReadU64(&num_partitions));
  if (num_partitions > in->remaining() / kPartitionStatsBytes) {
    return Status::IoError("dataset image: partition count overflow");
  }
  DSKG_RETURN_NOT_OK(in->Skip(num_partitions * kPartitionStatsBytes));
  DSKG_RETURN_NOT_OK(dict->DeserializeFrom(in));
  std::sort(listed.begin(), listed.end());
  for (size_t i = 1; i < listed.size(); ++i) {
    if (listed[i] == listed[i - 1]) dict->Release(listed[i]);
  }
  return Status::OK();
}

}  // namespace

SnapshotWriter::SnapshotWriter(std::unique_ptr<WritableFile> file)
    : file_(std::move(file)) {}

Status SnapshotWriter::AddSection(uint32_t section_id,
                                  std::string_view payload) {
  if (!wrote_header_) {
    std::string header(kHeaderMagic, sizeof(kHeaderMagic));
    PutU32(&header, kSnapshotVersion);
    DSKG_RETURN_NOT_OK(file_->Append(header));
    wrote_header_ = true;
  }
  const uint32_t crc = Crc32c(payload);
  std::string frame;
  frame.reserve(kSectionHeader + payload.size());
  PutU32(&frame, section_id);
  PutU32(&frame, crc);
  PutU64(&frame, payload.size());
  frame.append(payload);
  DSKG_RETURN_NOT_OK(file_->Append(frame));
  section_crcs_.emplace_back(section_id, crc);
  return Status::OK();
}

Status SnapshotWriter::Finish(uint64_t watermark) {
  if (!wrote_header_) {
    std::string header(kHeaderMagic, sizeof(kHeaderMagic));
    PutU32(&header, kSnapshotVersion);
    DSKG_RETURN_NOT_OK(file_->Append(header));
    wrote_header_ = true;
  }
  std::string footer;
  PutU64(&footer, watermark);
  for (const auto& [id, crc] : section_crcs_) {
    PutU32(&footer, id);
    PutU32(&footer, crc);
  }
  PutU32(&footer, static_cast<uint32_t>(section_crcs_.size()));
  PutU32(&footer, Crc32c(footer));
  footer.append(kFooterMagic, sizeof(kFooterMagic));
  DSKG_RETURN_NOT_OK(file_->Append(footer));
  DSKG_RETURN_NOT_OK(file_->Sync());
  return file_->Close();
}

Result<RawSnapshot> ReadSnapshotFile(const std::string& path) {
  DSKG_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  if (data.size() < kHeaderSize + kFooterFixedSize) {
    return Corrupt(path, "snapshot too short (no footer commit)");
  }
  if (data.compare(0, sizeof(kHeaderMagic), kHeaderMagic,
                   sizeof(kHeaderMagic)) != 0) {
    return Corrupt(path, "bad snapshot magic");
  }
  RawSnapshot out;
  {
    ByteReader version(std::string_view(data).substr(8, 4));
    (void)version.ReadU32(&out.version);
  }
  if (out.version != kSnapshotVersion) {
    return Corrupt(path, "unsupported snapshot version " +
                             std::to_string(out.version));
  }
  if (data.compare(data.size() - sizeof(kFooterMagic), sizeof(kFooterMagic),
                   kFooterMagic, sizeof(kFooterMagic)) != 0) {
    return Corrupt(path, "missing footer magic (torn snapshot)");
  }
  uint32_t num_sections = 0, footer_crc = 0;
  {
    ByteReader tail(std::string_view(data).substr(data.size() - 16, 8));
    (void)tail.ReadU32(&num_sections);
    (void)tail.ReadU32(&footer_crc);
  }
  // Footer payload = watermark + per-section entries + the count itself.
  const uint64_t footer_payload = 8 + uint64_t{num_sections} * 8 + 4;
  if (footer_payload + 12 + kHeaderSize > data.size()) {
    return Corrupt(path, "footer section count out of range");
  }
  const size_t footer_start = data.size() - 12 - footer_payload;
  const std::string_view footer =
      std::string_view(data).substr(footer_start, footer_payload);
  if (Crc32c(footer) != footer_crc) {
    return Corrupt(path, "footer checksum mismatch");
  }
  ByteReader fr(footer);
  (void)fr.ReadU64(&out.watermark);
  std::vector<std::pair<uint32_t, uint32_t>> expected(num_sections);
  for (auto& [id, crc] : expected) {
    (void)fr.ReadU32(&id);
    (void)fr.ReadU32(&crc);
  }
  // Walk the sections; every one must match its footer entry exactly.
  size_t pos = kHeaderSize;
  out.sections.reserve(num_sections);
  for (uint32_t i = 0; i < num_sections; ++i) {
    if (footer_start - pos < kSectionHeader) {
      return Corrupt(path, "section " + std::to_string(i) + " truncated");
    }
    ByteReader sh(std::string_view(data).substr(pos, kSectionHeader));
    uint32_t id = 0, crc = 0;
    uint64_t len = 0;
    (void)sh.ReadU32(&id);
    (void)sh.ReadU32(&crc);
    (void)sh.ReadU64(&len);
    if (len > footer_start - pos - kSectionHeader) {
      return Corrupt(path, "section " + std::to_string(i) + " overruns file");
    }
    const std::string_view payload =
        std::string_view(data).substr(pos + kSectionHeader, len);
    if (id != expected[i].first || crc != expected[i].second) {
      return Corrupt(path,
                     "section " + std::to_string(i) + " disagrees with footer");
    }
    if (Crc32c(payload) != crc) {
      return Corrupt(path, "section " + std::to_string(i) +
                               " (id " + std::to_string(id) +
                               ") checksum mismatch");
    }
    out.sections.emplace_back(id, std::string(payload));
    pos += kSectionHeader + len;
  }
  if (pos != footer_start) {
    return Corrupt(path, "trailing bytes between sections and footer");
  }
  return out;
}

// ---- store-level save/load --------------------------------------------------

Status SaveStoreSnapshot(const core::DualStore& store, uint64_t watermark,
                         const std::string& path,
                         const WritableWrapper& wrap) {
  auto& reg = telemetry::MetricsRegistry::Global();
  const bool telem = reg.enabled();
  const double t0 = telem ? reg.NowMicros() : 0;

  DSKG_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                        OpenWritable(path, /*truncate=*/true));
  if (wrap) file = wrap(std::move(file), path);
  SnapshotWriter writer(std::move(file));

  std::string config;
  const core::DualStoreConfig& cfg = store.config();
  PutU32(&config, static_cast<uint32_t>(store.table().num_shards()));
  PutU32(&config, static_cast<uint32_t>(store.dict().num_slices()));
  PutU8(&config, cfg.use_graph ? 1 : 0);
  PutU8(&config, cfg.use_views ? 1 : 0);
  PutU64(&config, cfg.graph_capacity_triples);
  PutU64(&config, cfg.views_budget_rows);
  DSKG_RETURN_NOT_OK(writer.AddSection(kSectionConfig, config));

  // The dataset section keeps its layout with an empty triple list and
  // empty partition statistics: the table section holds the triples.
  std::string dataset;
  PutU64(&dataset, 0);
  PutU64(&dataset, 0);
  DSKG_RETURN_NOT_OK(store.dict().SerializeTo(&dataset));
  DSKG_RETURN_NOT_OK(writer.AddSection(kSectionDataset, dataset));

  std::string table;
  DSKG_RETURN_NOT_OK(store.table().SerializeTo(&table));
  DSKG_RETURN_NOT_OK(writer.AddSection(kSectionTable, table));

  std::string residency;
  const std::vector<rdf::TermId> resident = store.graph().LoadedPredicates();
  PutU64(&residency, resident.size());
  for (const rdf::TermId p : resident) PutU64(&residency, p);
  DSKG_RETURN_NOT_OK(writer.AddSection(kSectionResidency, residency));

  DSKG_RETURN_NOT_OK(writer.Finish(watermark));

  if (telem) {
    reg.histogram("persist.snapshot.save_us")->Record(reg.NowMicros() - t0);
    reg.gauge("persist.snapshot.bytes")
        ->Set(static_cast<double>(config.size() + dataset.size() +
                                  table.size() + residency.size()));
  }
  return Status::OK();
}

Result<LoadedSnapshot> LoadStoreSnapshot(const std::string& path) {
  auto& reg = telemetry::MetricsRegistry::Global();
  const bool telem = reg.enabled();
  const double t0 = telem ? reg.NowMicros() : 0;

  DSKG_ASSIGN_OR_RETURN(RawSnapshot raw, ReadSnapshotFile(path));
  const std::string* config = raw.Section(kSectionConfig);
  const std::string* dataset = raw.Section(kSectionDataset);
  const std::string* residency = raw.Section(kSectionResidency);
  std::string* table = nullptr;
  for (auto& [id, payload] : raw.sections) {
    if (id == kSectionTable) table = &payload;
  }
  if (config == nullptr || dataset == nullptr || table == nullptr ||
      residency == nullptr) {
    return Corrupt(path, "missing snapshot section");
  }

  LoadedSnapshot out;
  out.watermark = raw.watermark;
  ByteReader cr(*config);
  uint32_t num_shards = 0, dict_slices = 0;
  DSKG_RETURN_NOT_OK(cr.ReadU32(&num_shards));
  DSKG_RETURN_NOT_OK(cr.ReadU32(&dict_slices));
  if (num_shards < 1 || num_shards > 4096 || dict_slices < 1 ||
      dict_slices > 4096) {
    return Corrupt(path, "implausible shard/slice layout");
  }
  out.num_shards = static_cast<int>(num_shards);
  out.dict_slices = static_cast<int>(dict_slices);

  out.dataset = rdf::Dataset(out.dict_slices);
  ByteReader dr(*dataset);
  DSKG_RETURN_NOT_OK(ReadDatasetSection(&dr, &out.dataset.mutable_dict()));
  if (!dr.AtEnd()) return Corrupt(path, "trailing bytes in dataset section");

  out.table_payload = std::move(*table);

  ByteReader rr(*residency);
  uint64_t num_resident = 0;
  DSKG_RETURN_NOT_OK(rr.ReadU64(&num_resident));
  if (num_resident * 8 > rr.remaining()) {
    return Corrupt(path, "residency section count overflow");
  }
  out.resident_predicates.reserve(num_resident);
  for (uint64_t i = 0; i < num_resident; ++i) {
    rdf::TermId p = rdf::kInvalidTermId;
    DSKG_RETURN_NOT_OK(rr.ReadU64(&p));
    out.resident_predicates.push_back(p);
  }

  if (telem) {
    reg.histogram("persist.snapshot.load_us")->Record(reg.NowMicros() - t0);
  }
  return out;
}

}  // namespace dskg::persist
