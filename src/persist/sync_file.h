#ifndef GEOLIC_PERSIST_SYNC_FILE_H_
#define GEOLIC_PERSIST_SYNC_FILE_H_

#include <memory>
#include <string>
#include <string_view>

#include "util/status.h"

namespace geolic {

// Minimal append-only file the journal writes through. The indirection
// exists so tests can substitute an in-memory file and wrap it in a
// fault injector (persist/faulty_file.h) without touching the filesystem.
//
// Durability contract: Append hands bytes to the file; they are guaranteed
// to survive a crash only once a later Sync returns OK. Close does not
// imply Sync.
class SyncFile {
 public:
  virtual ~SyncFile() = default;

  // Appends `data` at the end of the file.
  virtual Status Append(std::string_view data) = 0;

  // Forces every previously appended byte to stable storage.
  virtual Status Sync() = 0;

  // Releases the underlying resource; further operations fail.
  virtual Status Close() = 0;
};

// POSIX implementation over open/write/fsync.
class PosixSyncFile : public SyncFile {
 public:
  // Creates (or truncates) `path` for appending.
  static Result<std::unique_ptr<PosixSyncFile>> Create(
      const std::string& path);

  ~PosixSyncFile() override;  // Closes the descriptor; errors are dropped.
  PosixSyncFile(const PosixSyncFile&) = delete;
  PosixSyncFile& operator=(const PosixSyncFile&) = delete;

  Status Append(std::string_view data) override;
  Status Sync() override;
  Status Close() override;

 private:
  PosixSyncFile(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_;  // -1 once closed.
};

// In-memory implementation for tests and benches. `contents()` is what a
// recovered disk would hold had every append hit the platter;
// `synced_contents()` keeps only bytes covered by a completed Sync — the
// acknowledged-durable prefix that fsync batching is allowed to trail.
class InMemorySyncFile : public SyncFile {
 public:
  Status Append(std::string_view data) override;
  Status Sync() override;
  Status Close() override;

  const std::string& contents() const { return data_; }
  std::string synced_contents() const { return data_.substr(0, synced_size_); }
  size_t synced_size() const { return synced_size_; }

 private:
  std::string data_;
  size_t synced_size_ = 0;
  bool closed_ = false;
};

// Reads the whole file at `path` (journals and checkpoints are parsed
// from one in-memory copy).
Result<std::string> ReadFileBytes(const std::string& path);

}  // namespace geolic

#endif  // GEOLIC_PERSIST_SYNC_FILE_H_
