#ifndef XMLAC_COMMON_IO_H_
#define XMLAC_COMMON_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace xmlac {

// Reads an entire file into a string.
Result<std::string> ReadFile(std::string_view path);

// Writes `contents` to `path`, replacing any existing file.
Status WriteFile(std::string_view path, std::string_view contents);

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `data`.  `seed`
// chains partial computations: Crc32(a + b) == Crc32(b, Crc32(a)).  This is
// the checksum the WAL and checkpoint formats frame every record with.
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

// Crash-safe file replacement: writes to a temporary sibling, fsyncs it,
// renames it over `path`, then fsyncs the containing directory.  After a
// crash the file is either the complete old content or the complete new
// content — never a torn mix, never absent when it existed before.
Status AtomicWriteFile(std::string_view path, std::string_view contents);

// Flushes a file's data (and metadata when `data_only` is false) to stable
// storage.
Status SyncFile(std::string_view path, bool data_only = false);

// Flushes directory metadata (new/renamed/deleted entries) to stable
// storage.
Status SyncDirectory(std::string_view dir);

// Creates `dir` (and missing parents).  OK when it already exists.
Status EnsureDirectory(std::string_view dir);

// Names (not paths) of regular files directly under `dir`, sorted.
Result<std::vector<std::string>> ListFiles(std::string_view dir);

// Deletes a file; OK when already absent.
Status RemoveFileIfExists(std::string_view path);

// An exclusive advisory lock (flock) on a file, held until Release() or
// destruction.  Each Acquire opens its own file description, so two
// holders conflict even inside one process; the kernel drops the lock when
// the holding process dies, however it dies.
class FileLock {
 public:
  FileLock() = default;
  ~FileLock() { Release(); }
  FileLock(FileLock&& other) noexcept;
  FileLock& operator=(FileLock&& other) noexcept;
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

  // Creates `path` if missing and locks it without waiting; AlreadyExists
  // when another holder has it.
  static Result<FileLock> Acquire(std::string_view path);

  bool held() const { return fd_ >= 0; }
  // Unlocks and closes the file; the file itself stays.  Idempotent.
  void Release();

 private:
  explicit FileLock(int fd) : fd_(fd) {}
  int fd_ = -1;
};

}  // namespace xmlac

#endif  // XMLAC_COMMON_IO_H_
