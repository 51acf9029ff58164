#include "common/io.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

namespace xmlac {

namespace {

// Directory component of `path` ("." when none).
std::string DirOf(std::string_view path) {
  size_t slash = path.rfind('/');
  if (slash == std::string_view::npos) return ".";
  if (slash == 0) return "/";
  return std::string(path.substr(0, slash));
}

Status SyncFd(int fd, bool data_only, const std::string& what) {
#if defined(__linux__)
  int rc = data_only ? ::fdatasync(fd) : ::fsync(fd);
#else
  (void)data_only;
  int rc = ::fsync(fd);
#endif
  if (rc != 0) {
    return Status::Internal("fsync failed on '" + what + "': " +
                            std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

Result<std::string> ReadFile(std::string_view path) {
  std::string p(path);
  std::FILE* f = std::fopen(p.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open '" + p + "' for reading");
  }
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Status::Internal("read error on '" + p + "'");
  return out;
}

Status WriteFile(std::string_view path, std::string_view contents) {
  std::string p(path);
  std::FILE* f = std::fopen(p.c_str(), "wb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open '" + p + "' for writing");
  }
  size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  bool bad = written != contents.size();
  if (std::fclose(f) != 0) bad = true;
  if (bad) return Status::Internal("write error on '" + p + "'");
  return Status::OK();
}

uint32_t Crc32(std::string_view data, uint32_t seed) {
  static const uint32_t* kTable = [] {
    static uint32_t table[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc = kTable[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Status AtomicWriteFile(std::string_view path, std::string_view contents) {
  std::string p(path);
  std::string tmp = p + ".tmp";
  {
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
      return Status::InvalidArgument("cannot open '" + tmp +
                                     "' for writing: " + std::strerror(errno));
    }
    const char* data = contents.data();
    size_t left = contents.size();
    while (left > 0) {
      ssize_t n = ::write(fd, data, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        ::unlink(tmp.c_str());
        return Status::Internal("write error on '" + tmp +
                                "': " + std::strerror(errno));
      }
      data += n;
      left -= static_cast<size_t>(n);
    }
    Status synced = SyncFd(fd, /*data_only=*/false, tmp);
    if (::close(fd) != 0 && synced.ok()) {
      synced = Status::Internal("close failed on '" + tmp + "'");
    }
    if (!synced.ok()) {
      ::unlink(tmp.c_str());
      return synced;
    }
  }
  if (std::rename(tmp.c_str(), p.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::Internal("rename '" + tmp + "' -> '" + p +
                            "' failed: " + std::strerror(errno));
  }
  return SyncDirectory(DirOf(path));
}

Status SyncFile(std::string_view path, bool data_only) {
  std::string p(path);
  int fd = ::open(p.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open '" + p + "' to sync");
  }
  Status out = SyncFd(fd, data_only, p);
  ::close(fd);
  return out;
}

Status SyncDirectory(std::string_view dir) {
  std::string d(dir);
  int fd = ::open(d.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::NotFound("cannot open directory '" + d + "' to sync");
  }
  Status out = SyncFd(fd, /*data_only=*/false, d);
  ::close(fd);
  return out;
}

Status EnsureDirectory(std::string_view dir) {
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(dir), ec);
  if (ec) {
    return Status::Internal("cannot create directory '" + std::string(dir) +
                            "': " + ec.message());
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListFiles(std::string_view dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(std::filesystem::path(dir), ec);
  if (ec) {
    return Status::NotFound("cannot list directory '" + std::string(dir) +
                            "': " + ec.message());
  }
  std::vector<std::string> out;
  for (const auto& entry : it) {
    if (entry.is_regular_file(ec)) out.push_back(entry.path().filename());
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status RemoveFileIfExists(std::string_view path) {
  std::string p(path);
  if (::unlink(p.c_str()) != 0 && errno != ENOENT) {
    return Status::Internal("cannot remove '" + p +
                            "': " + std::strerror(errno));
  }
  return Status::OK();
}

FileLock::FileLock(FileLock&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

FileLock& FileLock::operator=(FileLock&& other) noexcept {
  if (this != &other) {
    Release();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

Result<FileLock> FileLock::Acquire(std::string_view path) {
  std::string p(path);
  int fd = ::open(p.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot open lock file '" + p +
                            "': " + std::strerror(errno));
  }
  while (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    if (errno == EINTR) continue;
    const int err = errno;
    ::close(fd);
    if (err == EWOULDBLOCK) {
      return Status::AlreadyExists("'" + p + "' is locked by another holder");
    }
    return Status::Internal("cannot lock '" + p + "': " + std::strerror(err));
  }
  return FileLock(fd);
}

void FileLock::Release() {
  if (fd_ < 0) return;
  // Closing the only descriptor of the file description drops the lock.
  (void)::close(fd_);
  fd_ = -1;
}

}  // namespace xmlac
