#include "persist/sync_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>

namespace geolic {
namespace {

Status Errno(const std::string& op, const std::string& path) {
  return Status::IoError(op + " failed for " + path + ": " +
                         std::strerror(errno));
}

}  // namespace

Result<std::unique_ptr<PosixSyncFile>> PosixSyncFile::Create(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND,
                        0644);
  if (fd < 0) {
    return Errno("open", path);
  }
  return std::unique_ptr<PosixSyncFile>(new PosixSyncFile(path, fd));
}

PosixSyncFile::~PosixSyncFile() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status PosixSyncFile::Append(std::string_view data) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("append on closed file: " + path_);
  }
  const char* p = data.data();
  size_t remaining = data.size();
  while (remaining > 0) {
    const ssize_t written = ::write(fd_, p, remaining);
    if (written < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Errno("write", path_);
    }
    p += written;
    remaining -= static_cast<size_t>(written);
  }
  return Status::Ok();
}

Status PosixSyncFile::Sync() {
  if (fd_ < 0) {
    return Status::FailedPrecondition("sync on closed file: " + path_);
  }
  if (::fsync(fd_) != 0) {
    return Errno("fsync", path_);
  }
  return Status::Ok();
}

Status PosixSyncFile::Close() {
  if (fd_ < 0) {
    return Status::FailedPrecondition("double close: " + path_);
  }
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) {
    return Errno("close", path_);
  }
  return Status::Ok();
}

Status InMemorySyncFile::Append(std::string_view data) {
  if (closed_) {
    return Status::FailedPrecondition("append on closed in-memory file");
  }
  data_.append(data);
  return Status::Ok();
}

Status InMemorySyncFile::Sync() {
  if (closed_) {
    return Status::FailedPrecondition("sync on closed in-memory file");
  }
  synced_size_ = data_.size();
  return Status::Ok();
}

Status InMemorySyncFile::Close() {
  if (closed_) {
    return Status::FailedPrecondition("double close on in-memory file");
  }
  closed_ = true;
  return Status::Ok();
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open for reading: " + path);
  }
  std::string bytes{std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>()};
  if (in.bad()) {
    return Status::IoError("read failed: " + path);
  }
  return bytes;
}

}  // namespace geolic
