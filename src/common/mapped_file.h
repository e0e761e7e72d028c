#ifndef DNLR_COMMON_MAPPED_FILE_H_
#define DNLR_COMMON_MAPPED_FILE_H_

#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"

namespace dnlr::common {

/// Read-only memory-mapped file with RAII unmap. This is what makes binary
/// bundles "free" to keep resident: a mapped model generation costs page
/// cache (shared across processes mapping the same file), not a private
/// heap copy, and mapping is O(1) in the file size where ReadFileToString
/// is O(bytes).
///
/// On platforms without mmap (or when the syscall fails, e.g. on a
/// filesystem that forbids it) Open falls back to reading the whole file
/// into an owned heap buffer, so callers get the same view-based API
/// everywhere; `is_mapped()` reports which path was taken. The mapping is
/// private/read-only: a concurrent writer truncating the file under a live
/// map can still SIGBUS on POSIX — bundle writers avoid this by publishing
/// via atomic rename (the old inode stays intact until the last map drops).
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  /// Maps `path` read-only. A missing file, a directory, or an I/O failure
  /// yields IoError. `prefer_mmap = false` forces the heap-read fallback
  /// (tests use it to cover the no-mmap path on POSIX hosts too).
  static Result<MappedFile> Open(const std::string& path,
                                 bool prefer_mmap = true);

  /// Adopts `bytes` as the heap buffer, exactly as Open's read fallback
  /// does, so bytes already in memory get the same view-based API.
  static MappedFile FromBytes(std::string bytes);

  const char* data() const { return data_; }
  size_t size() const { return size_; }
  std::string_view view() const { return {data_, size_}; }
  bool is_mapped() const { return mapped_; }

 private:
  void Release();

  const char* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  /// Owns the bytes on the fallback path (empty when mapped_).
  std::string fallback_;
};

}  // namespace dnlr::common

#endif  // DNLR_COMMON_MAPPED_FILE_H_
