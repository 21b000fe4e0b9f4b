// Persistence codec tests: CRC32C vectors, byte-level primitives, the
// UpdateBatch / WAL record framing, and the snapshot section format.
//
// The property pinned throughout: every torn or bit-flipped image is
// DETECTED — a WAL scan returns exactly the valid record prefix, and a
// snapshot reader refuses the whole file. Corruption is never loaded.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "core/dual_store.h"
#include "core/update.h"
#include "persist/crc32c.h"
#include "persist/file.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "rdf/dataset.h"

namespace dskg::persist {
namespace {

using core::UpdateBatch;
using core::UpdateOp;

// ---- scratch directory helpers --------------------------------------------

std::string ScratchDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("dskg_codec_" + name))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Status WriteWholeFile(const std::string& path, const std::string& data) {
  auto f = OpenWritable(path, /*truncate=*/true);
  if (!f.ok()) return f.status();
  DSKG_RETURN_NOT_OK((*f)->Append(data));
  return (*f)->Close();
}

// ---- CRC32C ----------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // Published CRC-32C (Castagnoli) test vectors.
  EXPECT_EQ(Crc32c(""), 0u);
  EXPECT_EQ(Crc32c("a"), 0xC1D04330u);
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
}

TEST(Crc32cTest, SensitiveToEveryBit) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t base = Crc32c(data);
  for (size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      data[i] ^= static_cast<char>(1 << bit);
      EXPECT_NE(Crc32c(data), base) << "byte " << i << " bit " << bit;
      data[i] ^= static_cast<char>(1 << bit);
    }
  }
  EXPECT_EQ(Crc32c(data), base);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const std::string data = "incremental crc over split buffers";
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t first = Crc32cExtend(0, data.data(), split);
    const uint32_t two =
        Crc32cExtend(first, data.data() + split, data.size() - split);
    EXPECT_EQ(two, Crc32c(data)) << "split " << split;
  }
}

// ---- byte primitives -------------------------------------------------------

TEST(BytesTest, RoundTrip) {
  std::string buf;
  PutU8(&buf, 0xAB);
  PutU16(&buf, 0xBEEF);
  PutU32(&buf, 0xDEADBEEFu);
  PutU64(&buf, 0x0123456789ABCDEFull);
  PutString(&buf, "hello");
  ByteReader r(buf);
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  std::string s;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU16(&u16).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadString(&s).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, TruncatedReadsFailCleanly) {
  std::string buf;
  PutU64(&buf, 42);
  for (size_t len = 0; len < 8; ++len) {
    ByteReader r(std::string_view(buf).substr(0, len));
    uint64_t v = 0;
    EXPECT_FALSE(r.ReadU64(&v).ok()) << "len " << len;
  }
}

// ---- UpdateBatch codec -----------------------------------------------------

UpdateBatch SampleBatch() {
  UpdateBatch b;
  b.ops.push_back(UpdateOp::Insert("s1", "p1", "o1"));
  b.ops.push_back(UpdateOp::Delete("s2", "p2", "o2"));
  b.ops.push_back(UpdateOp::Insert("a long subject with spaces", "p", ""));
  return b;
}

TEST(UpdateBatchCodecTest, RoundTrip) {
  UpdateBatch in = SampleBatch();
  std::string buf;
  core::EncodeUpdateBatch(in, /*batch_id=*/7, &buf);
  UpdateBatch out;
  ByteReader r(buf);
  ASSERT_TRUE(core::DecodeUpdateBatch(&r, &out).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(out.batch_id, 7u);
  ASSERT_EQ(out.ops.size(), in.ops.size());
  for (size_t i = 0; i < in.ops.size(); ++i) {
    EXPECT_EQ(out.ops[i].kind, in.ops[i].kind);
    EXPECT_EQ(out.ops[i].subject, in.ops[i].subject);
    EXPECT_EQ(out.ops[i].predicate, in.ops[i].predicate);
    EXPECT_EQ(out.ops[i].object, in.ops[i].object);
  }
}

TEST(UpdateBatchCodecTest, EveryTruncationFails) {
  std::string buf;
  core::EncodeUpdateBatch(SampleBatch(), 3, &buf);
  for (size_t len = 0; len < buf.size(); ++len) {
    UpdateBatch out;
    ByteReader r(std::string_view(buf).substr(0, len));
    EXPECT_FALSE(core::DecodeUpdateBatch(&r, &out).ok()) << "len " << len;
  }
}

// ---- WAL record framing ----------------------------------------------------

std::string WalPath(const std::string& dir) {
  return dir + "/" + WalSegmentName(0);
}

Result<std::string> BuildWal(const std::string& dir, int num_batches) {
  DurabilityOptions opts;
  opts.dir = dir;
  opts.sync_policy = SyncPolicy::kNever;
  DSKG_ASSIGN_OR_RETURN(std::unique_ptr<WalWriter> w, WalWriter::Open(opts, 0));
  for (int i = 0; i < num_batches; ++i) {
    UpdateBatch b;
    b.ops.push_back(UpdateOp::Insert("s" + std::to_string(i), "p",
                                     "o" + std::to_string(i)));
    DSKG_RETURN_NOT_OK(w->Append(b, static_cast<uint64_t>(i)));
  }
  DSKG_RETURN_NOT_OK(w->Close());
  return ReadFileToString(WalPath(dir));
}

TEST(WalCodecTest, FileNames) {
  EXPECT_EQ(WalSegmentName(0), "wal-00000000000000000000.log");
  EXPECT_EQ(SnapshotFileName(42), "snapshot-00000000000000000042.dskg");
  uint64_t v = 0;
  EXPECT_TRUE(ParseWalSegmentName("wal-00000000000000000042.log", &v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(ParseSnapshotFileName("snapshot-00000000000000000007.dskg", &v));
  EXPECT_EQ(v, 7u);
  EXPECT_FALSE(ParseWalSegmentName("snapshot-00000000000000000007.dskg", &v));
  EXPECT_FALSE(ParseSnapshotFileName("wal-00000000000000000042.log", &v));
  EXPECT_FALSE(ParseWalSegmentName("wal-xyz.log", &v));
  // Zero padding makes lexicographic order numeric order.
  EXPECT_LT(WalSegmentName(9), WalSegmentName(10));
}

TEST(WalCodecTest, ScanRoundTrip) {
  const std::string dir = ScratchDir("wal_roundtrip");
  ASSERT_TRUE(BuildWal(dir, 5).ok());
  auto scan = ScanWalFile(WalPath(dir));
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_FALSE(scan->dropped_tail);
  EXPECT_TRUE(scan->tail_status.ok());
  ASSERT_EQ(scan->batches.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(scan->batches[i].batch_id, i);
    ASSERT_EQ(scan->batches[i].ops.size(), 1u);
    EXPECT_EQ(scan->batches[i].ops[0].subject, "s" + std::to_string(i));
  }
}

TEST(WalCodecTest, MissingFileIsEmptyNotError) {
  const std::string dir = ScratchDir("wal_missing");
  auto scan = ScanWalFile(dir + "/no-such-file.log");
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_TRUE(scan->batches.empty());
  EXPECT_FALSE(scan->dropped_tail);
}

// Property: truncating the WAL at EVERY byte offset yields exactly the
// records whose frames fit — a clean tail drop, never an error, never a
// phantom record.
TEST(WalCodecTest, EveryTruncationYieldsValidPrefix) {
  const std::string dir = ScratchDir("wal_trunc");
  auto full = BuildWal(dir, 4);
  ASSERT_TRUE(full.ok());
  // Record boundaries, reconstructed from the framing.
  std::vector<size_t> boundaries = {0};
  {
    size_t pos = 0;
    while (pos < full->size()) {
      ByteReader r(std::string_view(*full).substr(pos + 4, 4));
      uint32_t len = 0;
      ASSERT_TRUE(r.ReadU32(&len).ok());
      pos += 8 + len;
      boundaries.push_back(pos);
    }
  }
  const std::string path = dir + "/cut.log";
  for (size_t cut = 0; cut <= full->size(); ++cut) {
    ASSERT_TRUE(WriteWholeFile(path, full->substr(0, cut)).ok());
    auto scan = ScanWalFile(path);
    ASSERT_TRUE(scan.ok()) << "cut " << cut << ": " << scan.status();
    // Number of whole records below the cut.
    size_t want = 0;
    while (want + 1 < boundaries.size() && boundaries[want + 1] <= cut) {
      ++want;
    }
    EXPECT_EQ(scan->batches.size(), want) << "cut " << cut;
    EXPECT_EQ(scan->valid_bytes, boundaries[want]) << "cut " << cut;
    EXPECT_EQ(scan->dropped_tail, cut != boundaries[want]) << "cut " << cut;
    // A bare partial tail is the expected crash shape: scan stays OK.
    EXPECT_TRUE(scan->tail_status.ok()) << "cut " << cut;
  }
}

// Property: flipping ANY single byte of the WAL never yields a record
// set that disagrees with some prefix of the original log, and a flip
// inside a fully framed record surfaces as a non-OK tail status.
TEST(WalCodecTest, EveryByteFlipIsDetected) {
  const std::string dir = ScratchDir("wal_flip");
  auto full = BuildWal(dir, 3);
  ASSERT_TRUE(full.ok());
  auto baseline = ScanWalFile(WalPath(dir));
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->batches.size(), 3u);

  const std::string path = dir + "/flipped.log";
  for (size_t i = 0; i < full->size(); ++i) {
    std::string corrupt = *full;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    ASSERT_TRUE(WriteWholeFile(path, corrupt).ok());
    auto scan = ScanWalFile(path);
    ASSERT_TRUE(scan.ok()) << "flip " << i;
    // The scan must return a (possibly shorter) prefix of the true log —
    // the flipped record and everything after it are dropped.
    ASSERT_LT(scan->batches.size(), 4u) << "flip " << i;
    for (size_t k = 0; k < scan->batches.size(); ++k) {
      EXPECT_EQ(scan->batches[k].batch_id, baseline->batches[k].batch_id);
      EXPECT_EQ(scan->batches[k].ops[0].subject,
                baseline->batches[k].ops[0].subject);
    }
    EXPECT_TRUE(scan->dropped_tail) << "flip " << i;
    // Flips in a length field can masquerade as a partial tail; flips in
    // the CRC or payload of a fully framed record must report corruption.
    if (scan->tail_status.ok()) {
      EXPECT_LT(scan->batches.size(), 3u) << "flip " << i;
    }
  }
}

// ---- snapshot format -------------------------------------------------------

Status BuildSnapshot(const std::string& path) {
  auto f = OpenWritable(path, /*truncate=*/true);
  if (!f.ok()) return f.status();
  SnapshotWriter w(std::move(*f));
  DSKG_RETURN_NOT_OK(w.AddSection(1, "first section payload"));
  DSKG_RETURN_NOT_OK(w.AddSection(2, ""));  // empty sections are legal
  DSKG_RETURN_NOT_OK(w.AddSection(3, std::string(1000, 'x')));
  return w.Finish(/*watermark=*/99);
}

TEST(SnapshotCodecTest, RoundTrip) {
  const std::string dir = ScratchDir("snap_roundtrip");
  const std::string path = dir + "/s.dskg";
  ASSERT_TRUE(BuildSnapshot(path).ok());
  auto raw = ReadSnapshotFile(path);
  ASSERT_TRUE(raw.ok()) << raw.status();
  EXPECT_EQ(raw->version, kSnapshotVersion);
  EXPECT_EQ(raw->watermark, 99u);
  ASSERT_EQ(raw->sections.size(), 3u);
  ASSERT_NE(raw->Section(1), nullptr);
  EXPECT_EQ(*raw->Section(1), "first section payload");
  ASSERT_NE(raw->Section(2), nullptr);
  EXPECT_EQ(*raw->Section(2), "");
  ASSERT_NE(raw->Section(3), nullptr);
  EXPECT_EQ(raw->Section(3)->size(), 1000u);
  EXPECT_EQ(raw->Section(4), nullptr);
}

// Property: EVERY truncation of a snapshot fails validation — a torn
// snapshot (crash before the footer landed) is never loaded.
TEST(SnapshotCodecTest, EveryTruncationIsRejected) {
  const std::string dir = ScratchDir("snap_trunc");
  const std::string path = dir + "/s.dskg";
  ASSERT_TRUE(BuildSnapshot(path).ok());
  auto full = ReadFileToString(path);
  ASSERT_TRUE(full.ok());
  const std::string cut_path = dir + "/cut.dskg";
  for (size_t cut = 0; cut < full->size(); ++cut) {
    ASSERT_TRUE(WriteWholeFile(cut_path, full->substr(0, cut)).ok());
    auto raw = ReadSnapshotFile(cut_path);
    EXPECT_FALSE(raw.ok()) << "cut " << cut << " validated a torn snapshot";
  }
}

// Property: EVERY single-byte flip of a snapshot fails validation.
TEST(SnapshotCodecTest, EveryByteFlipIsRejected) {
  const std::string dir = ScratchDir("snap_flip");
  const std::string path = dir + "/s.dskg";
  ASSERT_TRUE(BuildSnapshot(path).ok());
  auto full = ReadFileToString(path);
  ASSERT_TRUE(full.ok());
  const std::string flip_path = dir + "/flip.dskg";
  for (size_t i = 0; i < full->size(); ++i) {
    std::string corrupt = *full;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    ASSERT_TRUE(WriteWholeFile(flip_path, corrupt).ok());
    auto raw = ReadSnapshotFile(flip_path);
    EXPECT_FALSE(raw.ok()) << "flip at " << i << " validated";
  }
}

// The dataset section carries the dictionary (ids, text, refcounts, the
// free list) after interleaved interning and releases, and an empty
// triple list: the table section holds the triples.
TEST(SnapshotCodecTest, DatasetSectionRoundTrip) {
  rdf::Dataset ds(2);
  ds.Add("s1", "p1", "o1");
  ds.Add("s2", "p1", "o2");
  ds.Add("s3", "p2", "o3");
  ds.Add("s4", "p2", "o4");
  core::DualStoreConfig cfg;
  cfg.num_shards = 2;
  core::DualStore store(&ds, cfg);
  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::Delete("s3", "p2", "o3"));
  batch.ops.push_back(UpdateOp::Insert("s5", "p1", "o5"));
  ASSERT_TRUE(store.ApplyUpdates(batch).ok());

  const std::string dir = ScratchDir("dataset_section");
  ASSERT_TRUE(SaveStoreSnapshot(store, 0, dir + "/a.dskg", nullptr).ok());
  ASSERT_TRUE(SaveStoreSnapshot(store, 0, dir + "/b.dskg", nullptr).ok());
  // Serialization is deterministic: same logical state, same bytes.
  auto a = ReadFileToString(dir + "/a.dskg");
  auto b = ReadFileToString(dir + "/b.dskg");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);

  auto loaded = LoadStoreSnapshot(dir + "/a.dskg");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->dataset.num_triples(), 0u);
  EXPECT_TRUE(loaded->dataset.AllPartitions().empty());
  const rdf::Dictionary& want = store.dict();
  const rdf::Dictionary& got = loaded->dataset.dict();
  for (const char* term :
       {"s1", "s2", "s4", "s5", "p1", "p2", "o1", "o2", "o4", "o5"}) {
    const rdf::TermId id = want.Lookup(term);
    ASSERT_NE(id, rdf::kInvalidTermId) << term;
    // Probe index rebuilt: lookups by text resolve to the original ids.
    EXPECT_EQ(got.Lookup(term), id) << term;
    EXPECT_EQ(got.TermOf(id), term);
    EXPECT_EQ(got.RefCount(id), want.RefCount(id)) << term;
  }
  // Released terms stay forgotten, their ids awaiting reuse.
  EXPECT_EQ(got.Lookup("s3"), rdf::kInvalidTermId);
  EXPECT_EQ(got.Lookup("o3"), rdf::kInvalidTermId);
  EXPECT_EQ(got.free_ids(), want.free_ids());
  // The slice count is part of the image: a mismatched target refuses.
  std::string image;
  ASSERT_TRUE(want.SerializeTo(&image).ok());
  rdf::Dictionary wrong(3);
  ByteReader r(image);
  EXPECT_FALSE(wrong.DeserializeFrom(&r).ok());
}

// Images written before stores stopped keeping a triple list carry it in
// the dataset section, with refcounts over every listed occurrence.
// Loading one drops the references of duplicate occurrences, so the
// restored refcounts equal a fresh load's.
TEST(SnapshotCodecTest, OlderImageListReleasesDuplicateReferences) {
  rdf::Dataset ds(1);
  const rdf::Triple dup = ds.Add("solo", "p", "o");
  ds.Add("solo", "p", "o");
  const rdf::Triple other = ds.Add("s", "p", "o2");
  std::string legacy;
  PutU64(&legacy, ds.num_triples());
  PutBytes(&legacy, ds.triples().data(),
           ds.num_triples() * sizeof(rdf::Triple));
  PutU64(&legacy, 1);  // one partition: p
  PutU64(&legacy, dup.predicate);
  PutU64(&legacy, ds.num_triples());
  PutU64(&legacy, 32 * ds.num_triples());
  ASSERT_TRUE(ds.dict().SerializeTo(&legacy).ok());
  ASSERT_EQ(ds.dict().RefCount(dup.subject), 2u);

  core::DualStore store(&ds, {});
  const std::string dir = ScratchDir("older_dataset_section");
  ASSERT_TRUE(SaveStoreSnapshot(store, 0, dir + "/new.dskg", nullptr).ok());
  auto raw = ReadSnapshotFile(dir + "/new.dskg");
  ASSERT_TRUE(raw.ok()) << raw.status();
  auto f = OpenWritable(dir + "/old.dskg", /*truncate=*/true);
  ASSERT_TRUE(f.ok());
  SnapshotWriter w(std::move(*f));
  for (const auto& [id, payload] : raw->sections) {
    ASSERT_TRUE(
        w.AddSection(id, id == kSectionDataset ? legacy : payload).ok());
  }
  ASSERT_TRUE(w.Finish(raw->watermark).ok());

  auto loaded = LoadStoreSnapshot(dir + "/old.dskg");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const rdf::Dictionary& got = loaded->dataset.dict();
  EXPECT_EQ(got.RefCount(dup.subject), 1u);
  EXPECT_EQ(got.RefCount(dup.object), 1u);
  EXPECT_EQ(got.RefCount(dup.predicate), 2u);  // two stored triples
  for (const rdf::TermId id : {dup.subject, dup.predicate, dup.object,
                               other.subject, other.object}) {
    EXPECT_EQ(got.RefCount(id), store.dict().RefCount(id)) << id;
  }
}

// ---- fault injection harness ----------------------------------------------

TEST(FaultInjectorTest, FailWriteFiresOnceThenStaysDead) {
  const std::string dir = ScratchDir("fault_fail");
  FaultPlan plan;
  plan.kind = FaultKind::kFailWrite;
  plan.at_io = 1;
  FaultInjector inj(plan);
  auto wrap = inj.Wrapper();
  auto inner = OpenWritable(dir + "/f", true);
  ASSERT_TRUE(inner.ok());
  auto f = wrap(std::move(*inner), dir + "/f");
  EXPECT_TRUE(f->Append("first").ok());   // io 0: passes
  EXPECT_FALSE(f->Append("second").ok()); // io 1: fails, nothing lands
  EXPECT_TRUE(inj.triggered());
  EXPECT_FALSE(f->Append("third").ok());  // dead: every later write fails
  ASSERT_TRUE(f->Close().ok());
  auto data = ReadFileToString(dir + "/f");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "first");
}

TEST(FaultInjectorTest, TornWriteClaimsSuccessButDropsBytes) {
  const std::string dir = ScratchDir("fault_torn");
  FaultPlan plan;
  plan.kind = FaultKind::kTornWrite;
  plan.at_io = 0;
  plan.seed = 7;
  FaultInjector inj(plan);
  auto wrap = inj.Wrapper();
  auto inner = OpenWritable(dir + "/f", true);
  ASSERT_TRUE(inner.ok());
  auto f = wrap(std::move(*inner), dir + "/f");
  const std::string payload(64, 'A');
  EXPECT_TRUE(f->Append(payload).ok());  // lies: only a prefix landed
  EXPECT_TRUE(f->Append("more").ok());   // silently swallowed
  ASSERT_TRUE(f->Close().ok());
  auto data = ReadFileToString(dir + "/f");
  ASSERT_TRUE(data.ok());
  EXPECT_LT(data->size(), payload.size());
  EXPECT_EQ(*data, payload.substr(0, data->size()));
}

TEST(FaultInjectorTest, FlipByteCorruptsExactlyOneByteAndContinues) {
  const std::string dir = ScratchDir("fault_flip");
  FaultPlan plan;
  plan.kind = FaultKind::kFlipByte;
  plan.at_io = 0;
  plan.seed = 3;
  FaultInjector inj(plan);
  auto wrap = inj.Wrapper();
  auto inner = OpenWritable(dir + "/f", true);
  ASSERT_TRUE(inner.ok());
  auto f = wrap(std::move(*inner), dir + "/f");
  const std::string payload(32, 'B');
  EXPECT_TRUE(f->Append(payload).ok());
  EXPECT_TRUE(f->Append("tail").ok());  // run continues after bit rot
  ASSERT_TRUE(f->Close().ok());
  auto data = ReadFileToString(dir + "/f");
  ASSERT_TRUE(data.ok());
  ASSERT_EQ(data->size(), payload.size() + 4);
  size_t diffs = 0;
  for (size_t i = 0; i < payload.size(); ++i) {
    if ((*data)[i] != payload[i]) ++diffs;
  }
  EXPECT_EQ(diffs, 1u);
  EXPECT_EQ(data->substr(payload.size()), "tail");
}

TEST(FaultInjectorTest, DeterministicAcrossRuns) {
  // Same plan, same writes => byte-identical outcome (the crash matrix
  // depends on reproducible failures).
  auto run = [](const std::string& dir) {
    FaultPlan plan;
    plan.kind = FaultKind::kShortWrite;
    plan.at_io = 2;
    plan.seed = 11;
    FaultInjector inj(plan);
    auto wrap = inj.Wrapper();
    auto inner = OpenWritable(dir + "/f", true);
    EXPECT_TRUE(inner.ok());
    auto f = wrap(std::move(*inner), dir + "/f");
    (void)f->Append("aaaaaaaa");
    (void)f->Append("bbbbbbbb");
    (void)f->Append("cccccccc");
    (void)f->Close();
    auto data = ReadFileToString(dir + "/f");
    EXPECT_TRUE(data.ok());
    return *data;
  };
  const std::string a = run(ScratchDir("fault_det_a"));
  const std::string b = run(ScratchDir("fault_det_b"));
  EXPECT_EQ(a, b);
  EXPECT_LT(a.size(), 24u);  // the short write cut the third append
  EXPECT_EQ(a.substr(0, 16), "aaaaaaaabbbbbbbb");
}

}  // namespace
}  // namespace dskg::persist
