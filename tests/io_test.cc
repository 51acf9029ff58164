#include "common/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <utility>

#include "common/random.h"
#include "common/timer.h"

namespace xmlac {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/xmlac_io_test_" + name;
}

TEST(IoTest, WriteThenReadRoundTrip) {
  std::string path = TempPath("roundtrip");
  std::string payload = "hello\n<xml attr=\"v\"/>\0binary";
  payload.push_back('\0');
  payload += "tail";
  ASSERT_TRUE(WriteFile(path, payload).ok());
  auto read = ReadFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, payload);
  std::remove(path.c_str());
}

TEST(IoTest, OverwriteReplaces) {
  std::string path = TempPath("overwrite");
  ASSERT_TRUE(WriteFile(path, "long original content").ok());
  ASSERT_TRUE(WriteFile(path, "short").ok());
  auto read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "short");
  std::remove(path.c_str());
}

TEST(IoTest, EmptyFile) {
  std::string path = TempPath("empty");
  ASSERT_TRUE(WriteFile(path, "").ok());
  auto read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->empty());
  std::remove(path.c_str());
}

TEST(IoTest, MissingFileIsNotFound) {
  auto r = ReadFile("/nonexistent/dir/file.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(IoTest, UnwritablePathFails) {
  EXPECT_FALSE(WriteFile("/nonexistent/dir/file.txt", "x").ok());
}

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) known-answer
// vectors — the standard check values every implementation must hit.
TEST(Crc32Test, KnownAnswerVectors) {
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);  // the canonical CRC-32 check
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("abc"), 0x352441C2u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32(zeros), 0x190A55ADu);
}

TEST(Crc32Test, SeedChainsPartialComputations) {
  // The documented chaining contract: Crc32(a + b) == Crc32(b, Crc32(a)),
  // which is what lets the WAL checksum a frame body in pieces.
  Random rng(99);
  for (int i = 0; i < 50; ++i) {
    std::string a, b;
    size_t la = rng.Uniform(64), lb = rng.Uniform(64);
    for (size_t j = 0; j < la; ++j)
      a.push_back(static_cast<char>(rng.Uniform(256)));
    for (size_t j = 0; j < lb; ++j)
      b.push_back(static_cast<char>(rng.Uniform(256)));
    EXPECT_EQ(Crc32(a + b), Crc32(b, Crc32(a)));
  }
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  std::string data = "write-ahead log frame body";
  uint32_t clean = Crc32(data);
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = data;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      EXPECT_NE(Crc32(flipped), clean)
          << "bit " << bit << " of byte " << byte;
    }
  }
}

TEST(IoTest, AtomicWriteFileRoundTrip) {
  std::string path = TempPath("atomic");
  std::string payload = "checkpoint\0body";
  payload.push_back('\0');
  ASSERT_TRUE(AtomicWriteFile(path, payload).ok());
  auto read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
  std::remove(path.c_str());
}

// Visible-or-absent: after AtomicWriteFile over an existing file, a reader
// sees either the complete old or the complete new contents — never a
// mix, and never a truncated file.  (Single-threaded approximation: the
// replace either fully happened or the old file is intact; the temp file
// never lingers under the target name.)
TEST(IoTest, AtomicWriteFileReplacesWholesale) {
  std::string path = TempPath("atomic_replace");
  ASSERT_TRUE(AtomicWriteFile(path, "old contents, rather long").ok());
  ASSERT_TRUE(AtomicWriteFile(path, "new").ok());
  auto read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "new");
  std::remove(path.c_str());
}

TEST(IoTest, AtomicWriteFileFailureLeavesTargetIntact) {
  std::string dir = TempPath("atomic_dir");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  std::string path = dir + "/target";
  ASSERT_TRUE(AtomicWriteFile(path, "original").ok());
  // Writing into a nonexistent directory must fail without touching
  // anything (the temp file lives next to its target).
  EXPECT_FALSE(AtomicWriteFile(dir + "/missing/target", "x").ok());
  auto read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "original");
  // No temp droppings left behind under the directory.
  auto files = ListFiles(dir);
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->size(), 1u);
  std::remove(path.c_str());
}

TEST(IoTest, EnsureDirectoryAndListFiles) {
  std::string dir = TempPath("listdir");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  // Idempotent on an existing directory.
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  ASSERT_TRUE(WriteFile(dir + "/b.log", "b").ok());
  ASSERT_TRUE(WriteFile(dir + "/a.log", "a").ok());
  auto files = ListFiles(dir);
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 2u);
  std::remove((dir + "/a.log").c_str());
  std::remove((dir + "/b.log").c_str());
}

TEST(IoTest, FileLockIsExclusiveUntilReleased) {
  std::string path = TempPath("lock");
  std::remove(path.c_str());
  auto first = FileLock::Acquire(path);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->held());
  // A second holder in the same process still conflicts: each Acquire
  // opens its own file description.
  auto second = FileLock::Acquire(path);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists)
      << second.status();
  // Moving the lock keeps it held; releasing the new owner frees it.
  FileLock moved = std::move(*first);
  EXPECT_FALSE(first->held());
  EXPECT_FALSE(FileLock::Acquire(path).ok());
  moved.Release();
  EXPECT_FALSE(moved.held());
  auto third = FileLock::Acquire(path);
  EXPECT_TRUE(third.ok()) << third.status();
  std::remove(path.c_str());
}

TEST(IoTest, FileLockInMissingDirectoryFails) {
  auto lock = FileLock::Acquire("/nonexistent/dir/LOCK");
  ASSERT_FALSE(lock.ok());
  EXPECT_EQ(lock.status().code(), StatusCode::kInternal) << lock.status();
}

TEST(RandomTest, DeterministicPerSeed) {
  Random a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    (void)c.Next();
  }
  Random a2(42), c2(43);
  EXPECT_NE(a2.Next(), c2.Next());
}

TEST(RandomTest, UniformBounds) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, WordShapeAndDistribution) {
  Random rng(11);
  std::string w = rng.Word(8);
  EXPECT_EQ(w.size(), 8u);
  for (char c : w) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
  // OneIn(2) is roughly fair.
  int heads = 0;
  for (int i = 0; i < 2000; ++i) heads += rng.OneIn(2) ? 1 : 0;
  EXPECT_GT(heads, 800);
  EXPECT_LT(heads, 1200);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  // Burn a little CPU deterministically.
  volatile uint64_t sink = 0;
  for (int i = 0; i < 2000000; ++i) {
    sink = sink + static_cast<uint64_t>(i);
  }
  double s = t.ElapsedSeconds();
  EXPECT_GT(s, 0.0);
  EXPECT_GE(t.ElapsedMicros(), 0);
  t.Reset();
  EXPECT_LE(t.ElapsedSeconds(), s + 1.0);
}

}  // namespace
}  // namespace xmlac
