#include "common/mapped_file.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/file_util.h"

#ifndef _WIN32
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace dnlr::common {
namespace {

std::string ErrnoDetail() {
  return errno != 0 ? std::string(": ") + std::strerror(errno) : std::string();
}

}  // namespace

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Release();
    mapped_ = std::exchange(other.mapped_, false);
    size_ = std::exchange(other.size_, 0);
    if (mapped_) {
      data_ = std::exchange(other.data_, nullptr);
    } else {
      // The fallback buffer owns the bytes; re-point the view after the
      // move so data_ never dangles into the moved-from string.
      fallback_ = std::move(other.fallback_);
      other.data_ = nullptr;
      data_ = fallback_.data();
    }
  }
  return *this;
}

MappedFile::~MappedFile() { Release(); }

void MappedFile::Release() {
#ifndef _WIN32
  if (mapped_ && data_ != nullptr) {
    // munmap of a region handed out by mmap cannot meaningfully fail here;
    // the RAII contract is best-effort release, matching std::free.
    munmap(const_cast<char*>(data_), size_ == 0 ? 1 : size_);
  }
#endif
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  fallback_.clear();
}

Result<MappedFile> MappedFile::Open(const std::string& path,
                                    bool prefer_mmap) {
  MappedFile file;
#ifndef _WIN32
  if (prefer_mmap) {
    errno = 0;
    const int fd = open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      return Status::IoError("cannot open '" + path + "' for mapping" +
                             ErrnoDetail());
    }
    struct stat info{};
    if (fstat(fd, &info) != 0) {
      const std::string detail = ErrnoDetail();
      close(fd);
      return Status::IoError("cannot stat '" + path + "'" + detail);
    }
    if (S_ISDIR(info.st_mode)) {
      close(fd);
      return Status::IoError("'" + path + "' is a directory");
    }
    if (S_ISREG(info.st_mode)) {
      const auto size = static_cast<size_t>(info.st_size);
      // mmap rejects zero-length maps; an empty file maps as an empty view.
      void* mapping = size == 0
                          ? nullptr
                          : mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      // The mapping keeps its own reference to the inode; the descriptor is
      // only needed for the syscall itself.
      close(fd);
      if (mapping != MAP_FAILED) {
        file.data_ = static_cast<const char*>(mapping);
        file.size_ = size;
        file.mapped_ = true;
        return file;
      }
      // mmap can fail on exotic filesystems; fall through to the read path
      // rather than failing a load that ReadFileToString could serve.
    } else {
      close(fd);
    }
  }
#else
  (void)prefer_mmap;  // no mmap on this platform; the read path serves all
#endif
  Result<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  return FromBytes(std::move(bytes).value());
}

MappedFile MappedFile::FromBytes(std::string bytes) {
  MappedFile file;
  file.fallback_ = std::move(bytes);
  file.data_ = file.fallback_.data();
  file.size_ = file.fallback_.size();
  return file;
}

}  // namespace dnlr::common
