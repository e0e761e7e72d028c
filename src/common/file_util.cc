#include "common/file_util.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace dnlr {
namespace {

std::string ErrnoDetail() {
  return errno != 0 ? std::string(": ") + std::strerror(errno) : std::string();
}

/// Writes [data, data + size) to `file`, returning false on short writes.
bool WriteAll(std::FILE* file, const char* data, size_t size) {
  return size == 0 || std::fwrite(data, 1, size, file) == size;
}

#ifndef _WIN32
/// fsyncs the directory containing `path`, making a just-completed rename
/// durable. fsync of the temp file alone only persists the file's *data*;
/// the rename is a mutation of the parent directory, and until that
/// directory's metadata reaches disk a crash can roll the publish back (the
/// old name reappears, or on a first write the file vanishes entirely).
Status SyncParentDir(const std::string& path) {
  const std::string parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent;
  errno = 0;
  const int fd = open(dir.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open directory '" + dir +
                           "' to sync the rename" + ErrnoDetail());
  }
  if (fsync(fd) != 0) {
    const std::string detail = ErrnoDetail();
    close(fd);
    return Status::IoError("fsync of directory '" + dir + "' failed" + detail);
  }
  close(fd);
  return Status::Ok();
}
#endif

}  // namespace

Result<std::string> ReadFileToString(const std::string& path) {
  // An ifstream on a directory opens successfully on POSIX but every read
  // fails, which the rdbuf-insertion below reports identically to an empty
  // file; reject directories explicitly instead.
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    return Status::IoError("'" + path + "' is a directory");
  }
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IoError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  if (file.bad() || buffer.bad()) {
    return Status::IoError("read of '" + path + "' failed");
  }
  return std::move(buffer).str();
}

Status AtomicWriteFile(const std::string& path, std::string_view contents,
                       const AtomicWriteOptions& options) {
  // Unique temp name next to the destination so the rename never crosses a
  // filesystem boundary (rename(2) is only atomic within one filesystem).
  // The counter disambiguates concurrent writers of the same path. Relaxed
  // ordering: only uniqueness matters, not the order in which IDs hand out.
  static std::atomic<uint64_t> counter{0};
  const std::string tmp_path =
      path + ".tmp." +
      std::to_string(counter.fetch_add(1, std::memory_order_relaxed));

  errno = 0;
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot open temp file '" + tmp_path +
                           "' for writing" + ErrnoDetail());
  }
  if (options.crash_point == WriteCrashPoint::kAfterOpen) {
    std::fclose(file);  // release the handle; a real crash releases it too
    return Status::IoError("simulated crash after opening '" + tmp_path + "'");
  }

  if (options.crash_point == WriteCrashPoint::kMidWrite) {
    const size_t half = contents.size() / 2;
    WriteAll(file, contents.data(), half);
    std::fflush(file);
    std::fclose(file);
    return Status::IoError("simulated crash mid-write to '" + tmp_path + "'");
  }

  if (!WriteAll(file, contents.data(), contents.size())) {
    std::fclose(file);
    std::remove(tmp_path.c_str());
    return Status::IoError("write to temp file '" + tmp_path + "' failed" +
                           ErrnoDetail());
  }
  if (std::fflush(file) != 0) {
    std::fclose(file);
    std::remove(tmp_path.c_str());
    return Status::IoError("flush of temp file '" + tmp_path + "' failed" +
                           ErrnoDetail());
  }
#ifndef _WIN32
  if (options.sync && fsync(fileno(file)) != 0) {
    std::fclose(file);
    std::remove(tmp_path.c_str());
    return Status::IoError("fsync of temp file '" + tmp_path + "' failed" +
                           ErrnoDetail());
  }
#endif
  if (std::fclose(file) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError("close of temp file '" + tmp_path + "' failed" +
                           ErrnoDetail());
  }

  if (options.crash_point == WriteCrashPoint::kBeforeRename) {
    return Status::IoError("simulated crash before renaming '" + tmp_path +
                           "' over '" + path + "'");
  }

  // The atomic publish: readers see either the old file or the complete new
  // one, never a mix. std::rename maps to rename(2) on POSIX.
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError("rename '" + tmp_path + "' -> '" + path +
                           "' failed" + ErrnoDetail());
  }

  if (options.crash_point == WriteCrashPoint::kAfterRename) {
    return Status::IoError("simulated crash after renaming '" + tmp_path +
                           "' over '" + path +
                           "' (published but directory not yet synced)");
  }

#ifndef _WIN32
  // Durability of the publish itself: the rename lives in the parent
  // directory's metadata, which fsync of the temp file does not cover. A
  // crash between the rename and this directory sync can lose the rename —
  // readers would see the *old* content again after reboot (or no file at
  // all on a first write), even though AtomicWriteFile had reported
  // success. An error here is reported even though the new content is
  // already visible: callers that require durability (model rollouts) must
  // treat "published but maybe not durable" as a failed publish and retry.
  if (options.sync) {
    Status dir_sync = SyncParentDir(path);
    if (!dir_sync.ok()) return dir_sync;
  }
#endif
  return Status::Ok();
}

}  // namespace dnlr
