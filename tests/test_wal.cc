// Write-ahead log tests (DESIGN.md §14): the durability layer under the
// live tables. Covered here: append/replay round trips, the torn-tail
// matrix (a segment truncated at *every* byte offset of its final record
// recovers to exactly the records before it), the mid-log corruption
// refusals, checkpoint reset() squash semantics and its crash-overlap
// skip, segment rotation, the wal.append / wal.fsync / wal.recover
// failpoints (including the disk-full `partial` shape), fsync-policy
// accounting, a real fork + SIGKILL durability check, boot replay of a
// ≥10K-record churn log against the one-batch DeltaSet reference, and
// the update journal's typed error satellites. CI runs this under
// ASan+UBSan and TSan.

#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scheme.h"
#include "graph/generators.h"
#include "net/server.h"
#include "serve/delta.h"
#include "serve/frozen.h"
#include "serve/wal.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace nors {
namespace {

using serve::EdgeUpdate;
using serve::FsyncPolicy;
using serve::Wal;
using serve::WalCorrupt;
using serve::WalError;
using serve::WalOptions;
using serve::WalRecord;
using serve::WalStats;

// Same RAII idiom as test_chaos: arm in the constructor, disarm in the
// destructor so a failing assertion can't leak an armed failpoint into
// the next test.
struct FailpointGuard {
  explicit FailpointGuard(const std::string& spec) {
    util::Failpoints::configure(spec);
  }
  ~FailpointGuard() { util::Failpoints::clear(); }
};

// A throwaway directory per test; removed (one level deep is all a WAL
// ever makes) on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/nors_wal_XXXXXX";
    char* p = ::mkdtemp(tmpl);
    if (p == nullptr) throw std::runtime_error("mkdtemp failed");
    path = p;
  }
  ~TempDir() {
    if (DIR* d = ::opendir(path.c_str())) {
      while (struct dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name != "." && name != "..") {
          ::unlink((path + "/" + name).c_str());
        }
      }
      ::closedir(d);
    }
    ::rmdir(path.c_str());
  }
  std::string sub(const std::string& name) const { return path + "/" + name; }
};

std::vector<EdgeUpdate> batch(std::uint64_t seed) {
  std::vector<EdgeUpdate> ev;
  const auto n = 1 + seed % 3;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto u = static_cast<graph::Vertex>((seed * 7 + i * 3) % 97);
    const auto v = static_cast<graph::Vertex>(u + 1 + (seed + i) % 5);
    if ((seed + i) % 2 == 0) {
      ev.push_back(EdgeUpdate::fail(u, v));
    } else {
      ev.push_back(EdgeUpdate::weight(
          u, v, static_cast<graph::Dist>(1 + (seed + i) % 16)));
    }
  }
  return ev;
}

void expect_events_eq(const std::vector<EdgeUpdate>& got,
                      const std::vector<EdgeUpdate>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].u, want[i].u);
    EXPECT_EQ(got[i].v, want[i].v);
    EXPECT_EQ(got[i].w, want[i].w);
  }
}

struct Recovered {
  std::vector<WalRecord> records;
  WalStats stats;
  std::uint64_t last_seq = 0;
  std::uint64_t segments = 0;
};

Recovered reopen(const std::string& dir, WalOptions opt = {}) {
  Recovered r;
  Wal w(dir, opt,
        [&](const WalRecord& rec) { r.records.push_back(rec); });
  r.stats = w.stats();
  r.last_seq = w.last_seq();
  r.segments = w.segment_count();
  return r;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  const int fd =
      ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  ASSERT_GE(fd, 0) << path << ": " << std::strerror(errno);
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(fd);
}

std::uint64_t file_size(const std::string& path) {
  struct stat st{};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return static_cast<std::uint64_t>(st.st_size);
}

std::string seg_name(std::uint64_t base) {
  char name[32];
  std::snprintf(name, sizeof name, "wal-%016llx.log",
                static_cast<unsigned long long>(base));
  return name;
}

void append_bytes(std::vector<std::uint8_t>& out,
                  const std::vector<std::uint8_t>& more) {
  out.insert(out.end(), more.begin(), more.end());
}

TEST(Wal, RoundTripReplaysIdentically) {
  TempDir td;
  std::vector<std::vector<EdgeUpdate>> batches;
  {
    Wal w(td.path, {}, nullptr);
    EXPECT_EQ(w.last_seq(), 0u);
    for (std::uint64_t seq = 1; seq <= 5; ++seq) {
      batches.push_back(batch(seq));
      w.append(seq, /*snapshot=*/seq == 3, batches.back());
    }
    EXPECT_EQ(w.stats().appends, 5u);
    EXPECT_EQ(w.last_seq(), 5u);
  }
  const auto r = reopen(td.path);
  EXPECT_EQ(r.stats.records_recovered, 5u);
  EXPECT_EQ(r.stats.records_skipped, 0u);
  EXPECT_EQ(r.stats.torn_bytes_dropped, 0u);
  EXPECT_EQ(r.last_seq, 5u);
  ASSERT_EQ(r.records.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(r.records[i].seq, i + 1);
    EXPECT_EQ(r.records[i].snapshot, i + 1 == 3);
    expect_events_eq(r.records[i].events, batches[i]);
  }
}

TEST(Wal, AppendDemandsAscendingSeq) {
  TempDir td;
  Wal w(td.path, {}, nullptr);
  w.append(7, false, batch(1));
  EXPECT_THROW(w.append(7, false, batch(2)), std::logic_error);
  EXPECT_THROW(w.append(3, false, batch(2)), std::logic_error);
  w.append(8, false, batch(2));
  EXPECT_EQ(w.last_seq(), 8u);
}

TEST(Wal, OpenOnAFileThrowsWalError) {
  TempDir td;
  const std::string file = td.sub("not-a-dir");
  write_file(file, {0x42});
  EXPECT_THROW(Wal(file, {}, nullptr), WalError);
}

// The tentpole matrix: a 3-record segment cut at every byte offset of
// the final record must recover records 1 and 2 exactly, drop precisely
// the torn bytes, and leave a log that accepts the re-append.
TEST(Wal, TornTailMatrixDropsExactlyTheLastRecord) {
  const auto b1 = batch(11), b2 = batch(12), b3 = batch(13);
  std::vector<std::uint8_t> full = Wal::encode_segment_header(1);
  append_bytes(full, Wal::encode_record(1, false, b1));
  append_bytes(full, Wal::encode_record(2, true, b2));
  const std::uint64_t keep = full.size();
  append_bytes(full, Wal::encode_record(3, false, b3));

  for (std::uint64_t cut = keep; cut < full.size(); ++cut) {
    TempDir td;
    const std::string seg = td.sub(seg_name(1));
    write_file(seg, std::vector<std::uint8_t>(full.begin(),
                                              full.begin() + cut));
    const auto r = reopen(td.path);
    ASSERT_EQ(r.records.size(), 2u) << "cut at byte " << cut;
    EXPECT_EQ(r.records[0].seq, 1u);
    EXPECT_EQ(r.records[1].seq, 2u);
    EXPECT_TRUE(r.records[1].snapshot);
    EXPECT_EQ(r.stats.torn_bytes_dropped, cut - keep) << "cut " << cut;
    EXPECT_EQ(r.last_seq, 2u);
    // The recovery truncated the file back to the last whole record...
    EXPECT_EQ(file_size(seg), keep);
    // ...and the log accepts the interrupted append's retry.
    Wal w(td.path, {}, nullptr);
    w.append(3, false, b3);
    const auto r2 = reopen(td.path);
    ASSERT_EQ(r2.records.size(), 3u);
    expect_events_eq(r2.records[2].events, b3);
  }
}

TEST(Wal, ZeroFillTailIsTorn) {
  TempDir td;
  std::vector<std::uint8_t> bytes = Wal::encode_segment_header(1);
  append_bytes(bytes, Wal::encode_record(1, false, batch(3)));
  const std::uint64_t keep = bytes.size();
  bytes.resize(bytes.size() + 100, 0);  // zero-filling fs, crashed append
  write_file(td.sub(seg_name(1)), bytes);
  const auto r = reopen(td.path);
  EXPECT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.stats.torn_bytes_dropped, 100u);
  EXPECT_EQ(file_size(td.sub(seg_name(1))), keep);
}

TEST(Wal, ChecksumBreakAtExactEofIsTorn) {
  TempDir td;
  std::vector<std::uint8_t> bytes = Wal::encode_segment_header(1);
  append_bytes(bytes, Wal::encode_record(1, false, batch(3)));
  const std::uint64_t keep = bytes.size();
  const auto rec2 = Wal::encode_record(2, false, batch(4));
  append_bytes(bytes, rec2);
  bytes[bytes.size() - 3] ^= 0xff;  // damage inside the final trailer
  write_file(td.sub(seg_name(1)), bytes);
  const auto r = reopen(td.path);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].seq, 1u);
  EXPECT_EQ(r.stats.torn_bytes_dropped, rec2.size());
  EXPECT_EQ(file_size(td.sub(seg_name(1))), keep);
}

TEST(Wal, MidLogChecksumDamageRefuses) {
  TempDir td;
  std::vector<std::uint8_t> bytes = Wal::encode_segment_header(1);
  const auto rec1 = Wal::encode_record(1, false, batch(5));
  append_bytes(bytes, rec1);
  append_bytes(bytes, Wal::encode_record(2, false, batch(6)));
  // Flip a body byte of record 1: valid bytes follow, so this is not a
  // crashed append and recovery must refuse rather than truncate.
  bytes[Wal::kSegHeaderBytes + Wal::kRecHeaderBytes] ^= 0x01;
  write_file(td.sub(seg_name(1)), bytes);
  EXPECT_THROW(reopen(td.path), WalCorrupt);
}

TEST(Wal, MidLogBadMagicRefuses) {
  TempDir td;
  std::vector<std::uint8_t> bytes = Wal::encode_segment_header(1);
  const auto rec1 = Wal::encode_record(1, false, batch(5));
  append_bytes(bytes, rec1);
  append_bytes(bytes, Wal::encode_record(2, false, batch(6)));
  bytes[Wal::kSegHeaderBytes] = 0x5a;  // record-1 magic, non-zero garbage
  write_file(td.sub(seg_name(1)), bytes);
  EXPECT_THROW(reopen(td.path), WalCorrupt);
}

TEST(Wal, NonAscendingSeqRefuses) {
  TempDir td;
  std::vector<std::uint8_t> bytes = Wal::encode_segment_header(1);
  append_bytes(bytes, Wal::encode_record(5, false, batch(1)));
  append_bytes(bytes, Wal::encode_record(4, false, batch(2)));
  write_file(td.sub(seg_name(1)), bytes);
  EXPECT_THROW(reopen(td.path), WalCorrupt);
}

TEST(Wal, SeqBelowSegmentBaseRefuses) {
  TempDir td;
  std::vector<std::uint8_t> bytes = Wal::encode_segment_header(9);
  append_bytes(bytes, Wal::encode_record(3, false, batch(1)));
  write_file(td.sub(seg_name(9)), bytes);
  EXPECT_THROW(reopen(td.path), WalCorrupt);
}

TEST(Wal, BadSegmentMagicRefuses) {
  TempDir td;
  auto bytes = Wal::encode_segment_header(1);
  bytes[0] ^= 0xff;
  write_file(td.sub(seg_name(1)), bytes);
  EXPECT_THROW(reopen(td.path), WalCorrupt);
}

TEST(Wal, SegmentNameHeaderDisagreementRefuses) {
  TempDir td;
  write_file(td.sub(seg_name(1)), Wal::encode_segment_header(2));
  EXPECT_THROW(reopen(td.path), WalCorrupt);
}

TEST(Wal, ShortHeaderInFinalSegmentIsDiscarded) {
  TempDir td;
  // A full first segment, then a crash while creating the second: the
  // newest segment has only 8 of its 24 header bytes.
  std::vector<std::uint8_t> seg1 = Wal::encode_segment_header(1);
  append_bytes(seg1, Wal::encode_record(1, false, batch(1)));
  write_file(td.sub(seg_name(1)), seg1);
  write_file(td.sub(seg_name(2)), std::vector<std::uint8_t>(8, 0x11));
  const auto r = reopen(td.path);
  EXPECT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.last_seq, 1u);
  // The torn segment was unlinked, and the reopened log appends fine.
  EXPECT_NE(::access(td.sub(seg_name(2)).c_str(), F_OK), 0);
}

TEST(Wal, ShortHeaderMidLogRefuses) {
  TempDir td;
  write_file(td.sub(seg_name(1)), std::vector<std::uint8_t>(8, 0x11));
  std::vector<std::uint8_t> seg2 = Wal::encode_segment_header(2);
  append_bytes(seg2, Wal::encode_record(2, false, batch(1)));
  write_file(td.sub(seg_name(2)), seg2);
  EXPECT_THROW(reopen(td.path), WalCorrupt);
}

TEST(Wal, TornRecordInNonFinalSegmentRefuses) {
  TempDir td;
  std::vector<std::uint8_t> seg1 = Wal::encode_segment_header(1);
  append_bytes(seg1, Wal::encode_record(1, false, batch(1)));
  seg1.pop_back();  // tear the first segment's only record
  write_file(td.sub(seg_name(1)), seg1);
  write_file(td.sub(seg_name(2)), Wal::encode_segment_header(2));
  EXPECT_THROW(reopen(td.path), WalCorrupt);
}

// The exact window a crash between reset()'s rename and its unlinks
// leaves behind: old history *and* the squash segment, overlapping seqs.
// Recovery replays the history and skips the overlap.
TEST(Wal, CheckpointOverlapSkipsDuplicateSeqs) {
  TempDir td;
  std::vector<std::uint8_t> seg1 = Wal::encode_segment_header(1);
  append_bytes(seg1, Wal::encode_record(1, false, batch(1)));
  append_bytes(seg1, Wal::encode_record(2, false, batch(2)));
  append_bytes(seg1, Wal::encode_record(3, false, batch(3)));
  write_file(td.sub(seg_name(1)), seg1);
  std::vector<std::uint8_t> seg3 = Wal::encode_segment_header(3);
  append_bytes(seg3, Wal::encode_record(3, true, batch(9)));
  write_file(td.sub(seg_name(3)), seg3);

  const auto r = reopen(td.path);
  EXPECT_EQ(r.stats.records_recovered, 3u);
  EXPECT_EQ(r.stats.records_skipped, 1u);
  EXPECT_EQ(r.last_seq, 3u);
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_FALSE(r.records[2].snapshot);
}

TEST(Wal, ResetReplacesLogWithSquash) {
  TempDir td;
  const auto snap = batch(42);
  {
    WalOptions opt;
    opt.segment_bytes = 128;  // force several segments first
    Wal w(td.path, opt, nullptr);
    for (std::uint64_t seq = 1; seq <= 6; ++seq) {
      w.append(seq, false, batch(seq));
    }
    EXPECT_GT(w.segment_count(), 1u);
    w.reset(6, &snap);
    EXPECT_EQ(w.segment_count(), 1u);
    EXPECT_EQ(w.last_seq(), 6u);
    w.append(7, false, batch(7));
  }
  const auto r = reopen(td.path);
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records[0].seq, 6u);
  EXPECT_TRUE(r.records[0].snapshot);
  expect_events_eq(r.records[0].events, snap);
  EXPECT_EQ(r.records[1].seq, 7u);
  EXPECT_EQ(r.last_seq, 7u);
}

TEST(Wal, ResetWithoutSnapshotPreservesSeqFloor) {
  TempDir td;
  {
    Wal w(td.path, {}, nullptr);
    for (std::uint64_t seq = 1; seq <= 4; ++seq) {
      w.append(seq, false, batch(seq));
    }
    w.reset(4, nullptr);  // reload: deltas dropped, seq floor kept
    EXPECT_EQ(w.last_seq(), 4u);
  }
  // Even with zero records, the rebooted log resumes past the floor —
  // update_seq must stay monotonic across reload/checkpoint + crash.
  const auto r = reopen(td.path);
  EXPECT_EQ(r.records.size(), 0u);
  EXPECT_EQ(r.last_seq, 4u);
  Wal w(td.path, {}, nullptr);
  EXPECT_THROW(w.append(4, false, batch(1)), std::logic_error);
  w.append(5, false, batch(1));
}

TEST(Wal, RotationSpansSegmentsAndRecovers) {
  TempDir td;
  WalOptions opt;
  opt.segment_bytes = 160;
  std::vector<std::vector<EdgeUpdate>> batches;
  {
    Wal w(td.path, opt, nullptr);
    for (std::uint64_t seq = 1; seq <= 12; ++seq) {
      batches.push_back(batch(seq));
      w.append(seq, false, batches.back());
    }
    EXPECT_GE(w.segment_count(), 3u);
  }
  const auto r = reopen(td.path, opt);
  EXPECT_GE(r.segments, 3u);
  ASSERT_EQ(r.records.size(), 12u);
  for (std::uint64_t i = 0; i < 12; ++i) {
    EXPECT_EQ(r.records[i].seq, i + 1);
    expect_events_eq(r.records[i].events, batches[i]);
  }
}

TEST(Wal, AppendFailpointRollsBack) {
  TempDir td;
  Wal w(td.path, {}, nullptr);
  w.append(1, false, batch(1));
  const std::uint64_t size_before = file_size(td.sub(seg_name(1)));
  {
    FailpointGuard fp("wal.append:error:1");
    EXPECT_THROW(w.append(2, false, batch(2)), WalError);
  }
  EXPECT_EQ(w.last_seq(), 1u);
  EXPECT_EQ(w.stats().appends, 1u);
  EXPECT_EQ(file_size(td.sub(seg_name(1))), size_before);
  w.append(2, false, batch(2));  // the retry lands at the same seq
  EXPECT_EQ(reopen(td.path).records.size(), 2u);
}

// The disk-full shape: a torn prefix reaches the platter, the write
// reports no space, and the append must roll the file back so recovery
// never even sees the tear.
TEST(Wal, AppendPartialFailpointSimulatesDiskFull) {
  TempDir td;
  Wal w(td.path, {}, nullptr);
  w.append(1, false, batch(1));
  const std::uint64_t size_before = file_size(td.sub(seg_name(1)));
  {
    FailpointGuard fp("wal.append:partial:1");
    try {
      w.append(2, false, batch(2));
      FAIL() << "partial append should throw";
    } catch (const WalError& e) {
      EXPECT_NE(std::string(e.what()).find("rolled back"),
                std::string::npos);
    }
  }
  EXPECT_EQ(file_size(td.sub(seg_name(1))), size_before);
  w.append(2, false, batch(2));
  const auto r = reopen(td.path);
  EXPECT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.stats.torn_bytes_dropped, 0u);
}

TEST(Wal, FsyncFailpointRollsBackUnsyncedBytes) {
  TempDir td;
  WalOptions opt;
  opt.fsync = FsyncPolicy::kAlways;
  Wal w(td.path, opt, nullptr);
  w.append(1, false, batch(1));
  {
    FailpointGuard fp("wal.fsync:error:1");
    EXPECT_THROW(w.append(2, false, batch(2)), WalError);
  }
  // The bytes were written but never known durable: rolled back, so the
  // ack the server withheld matches the log a reboot would replay.
  EXPECT_EQ(w.last_seq(), 1u);
  EXPECT_EQ(reopen(td.path).records.size(), 1u);
}

TEST(Wal, RecoverFailpointFailsOpen) {
  TempDir td;
  FailpointGuard fp("wal.recover:error:1");
  EXPECT_THROW(Wal(td.path, {}, nullptr), WalError);
}

TEST(Wal, ParseFsyncPolicy) {
  EXPECT_EQ(serve::parse_fsync_policy("always"), FsyncPolicy::kAlways);
  EXPECT_EQ(serve::parse_fsync_policy("interval"), FsyncPolicy::kInterval);
  EXPECT_EQ(serve::parse_fsync_policy("off"), FsyncPolicy::kOff);
  EXPECT_THROW(serve::parse_fsync_policy("sometimes"), std::runtime_error);
}

TEST(Wal, FsyncPolicyAccountsSyncs) {
  {
    TempDir td;
    WalOptions opt;
    opt.fsync = FsyncPolicy::kAlways;
    Wal w(td.path, opt, nullptr);
    for (std::uint64_t s = 1; s <= 4; ++s) w.append(s, false, batch(s));
    EXPECT_EQ(w.stats().syncs, 4u);  // ack ⇒ durable: one sync per append
  }
  {
    TempDir td;
    WalOptions opt;
    opt.fsync = FsyncPolicy::kOff;
    Wal w(td.path, opt, nullptr);
    for (std::uint64_t s = 1; s <= 4; ++s) w.append(s, false, batch(s));
    EXPECT_EQ(w.stats().syncs, 0u);
    w.sync();  // the shutdown path still forces one
    EXPECT_EQ(w.stats().syncs, 1u);
  }
  {
    TempDir td;
    WalOptions opt;
    opt.fsync = FsyncPolicy::kInterval;
    opt.fsync_interval_ms = 3'600'000;  // never within this test
    Wal w(td.path, opt, nullptr);
    for (std::uint64_t s = 1; s <= 4; ++s) w.append(s, false, batch(s));
    EXPECT_EQ(w.stats().syncs, 0u);
  }
}

// The real thing: a child process appends with fsync=always and is
// SIGKILLed mid-stream; the parent must recover a contiguous prefix at
// least as long as the appends the child had confirmed to it.
TEST(Wal, SigkillLeavesContiguousDurablePrefix) {
  TempDir td;
  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: no gtest, no stdio cleanup — append and report, then die.
    ::close(pipefd[0]);
    try {
      WalOptions opt;
      opt.fsync = FsyncPolicy::kAlways;
      Wal w(td.path, opt, nullptr);
      for (std::uint64_t seq = 1; seq <= 100000; ++seq) {
        w.append(seq, false, batch(seq));
        const std::uint8_t b = 1;
        if (::write(pipefd[1], &b, 1) != 1) break;
      }
    } catch (...) {
    }
    ::_exit(0);
  }
  ::close(pipefd[1]);
  std::uint64_t confirmed = 0;
  std::uint8_t b;
  while (confirmed < 8 && ::read(pipefd[0], &b, 1) == 1) ++confirmed;
  ASSERT_GE(confirmed, 8u) << "child died before appending";
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ::close(pipefd[0]);

  const auto r = reopen(td.path);
  // Every append the child confirmed was fsynced first, so it survived
  // the SIGKILL; and recovery yields seqs 1..m with no gaps.
  EXPECT_GE(r.records.size(), confirmed);
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    EXPECT_EQ(r.records[i].seq, i + 1);
  }
  EXPECT_EQ(r.last_seq, r.records.size());
}

// --- update-journal error satellites (DESIGN.md §13/§14) ---------------

// Boot replay at scale: a log of 10K stationary-churn records (a fixed
// pool of links repriced between their frozen weight and twice it, one
// link failed at a time) must recover — through the replay callback and
// through net::Server's own boot — to exactly the set the whole history
// yields when folded into one batch over the base image. A correctness
// test of the replay path, not a timing test.
TEST(WalReplay, TenThousandChurnRecordsRecoverTheOneBatchReference) {
  util::Rng rng(1201);
  const auto g = graph::connected_gnm(200, 600,
                                      graph::WeightSpec::uniform(1, 16), rng);
  core::SchemeParams params;
  params.k = 3;
  params.seed = 43;
  const auto fs =
      serve::FrozenScheme::freeze(core::RoutingScheme::build(g, params));

  std::vector<EdgeUpdate> pool;  // frozen weights
  for (graph::Vertex u = 0; u < g.n() && pool.size() < 128; ++u) {
    for (const auto& he : g.neighbors(u)) {
      if (he.to > u) pool.push_back(EdgeUpdate::weight(u, he.to, he.w));
    }
  }
  std::vector<std::uint8_t> doubled(pool.size(), 0);
  std::size_t down = pool.size();  // the one failed link, if any

  TempDir td;
  constexpr std::uint64_t kRecords = 10000;
  std::vector<EdgeUpdate> history;
  {
    Wal w(td.path, {.fsync = FsyncPolicy::kOff}, nullptr);
    for (std::uint64_t seq = 1; seq <= kRecords; ++seq) {
      std::vector<EdgeUpdate> b;
      if (seq % 16 == 1) {  // move the failure to another link
        if (down < pool.size()) b.push_back(pool[down]);
        down = static_cast<std::size_t>(rng.uniform(pool.size()));
        doubled[down] = 0;
        b.push_back(EdgeUpdate::fail(pool[down].u, pool[down].v));
      }
      for (int e = 0; e < 4; ++e) {
        const auto i = static_cast<std::size_t>(rng.uniform(pool.size()));
        if (i == down) continue;
        doubled[i] ^= 1;
        b.push_back(EdgeUpdate::weight(pool[i].u, pool[i].v,
                                       pool[i].w * (doubled[i] + 1)));
      }
      w.append(seq, false, b);
      history.insert(history.end(), b.begin(), b.end());
    }
  }
  const auto ref = serve::DeltaSet::apply(fs, nullptr, history);
  ASSERT_GT(ref->override_count(), 0);
  ASSERT_EQ(ref->failed_link_count(), 2);

  // The replay callback net::Server boots with: chain every record.
  std::shared_ptr<const serve::DeltaSet> cur;
  std::uint64_t replayed = 0;
  {
    Wal w(td.path, {}, [&](const WalRecord& r) {
      cur = serve::DeltaSet::apply(fs, r.snapshot ? nullptr : cur.get(),
                                   r.events);
      ++replayed;
    });
    EXPECT_EQ(w.last_seq(), kRecords);
  }
  ASSERT_EQ(replayed, kRecords);
  EXPECT_EQ(cur->seq(), kRecords);
  EXPECT_EQ(cur->sorted_overrides(), ref->sorted_overrides());
  EXPECT_EQ(cur->failed_link_count(), ref->failed_link_count());
  EXPECT_EQ(cur->masked_tree_count(), ref->masked_tree_count());
  for (std::int32_t t = 0; t < fs.num_trees(); ++t) {
    ASSERT_EQ(cur->tree_masked(t), ref->tree_masked(t)) << "tree " << t;
  }

  // The daemon's boot path over the same log: an empty batch changes
  // nothing, so its ack reports the recovered generation's shape.
  net::NetServerOptions opt;
  opt.wal_dir = td.path;
  opt.fsync = FsyncPolicy::kOff;
  net::Server server(serve::FrozenScheme::load(fs.save()), opt);
  EXPECT_EQ(server.stats().update_seq, static_cast<std::int64_t>(kRecords));
  const auto ack = server.apply_updates({});
  EXPECT_EQ(ack.overrides, ref->override_count());
  EXPECT_EQ(ack.failed_links, ref->failed_link_count());
  EXPECT_EQ(ack.masked_trees, ref->masked_tree_count());
}

TEST(UpdateJournal, ParseErrorNamesBatchAndLine) {
  try {
    serve::parse_update_journal("w 1 2 3\ncommit\nbogus 4 5\n");
    FAIL() << "malformed journal should throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("batch 2"), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  }
}

TEST(UpdateJournal, OpenFailureIsTyped) {
  TempDir td;
  try {
    serve::load_update_journal(td.sub("no-such-journal"));
    FAIL() << "missing journal should throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open update journal"),
              std::string::npos)
        << e.what();
  }
}

TEST(UpdateJournal, ReadErrorIsNeverMistakenForEof) {
  // fread() on a directory fd fails with EISDIR after a successful
  // fopen — the classic shape of a mid-read I/O error.
  TempDir td;
  try {
    serve::load_update_journal(td.path);
    FAIL() << "reading a directory should throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("not EOF"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace nors
