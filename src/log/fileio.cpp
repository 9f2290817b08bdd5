#include "log/fileio.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <system_error>

#include "common/error.h"

namespace wflog {
namespace {

namespace fs = std::filesystem;

[[noreturn]] void throw_errno(const std::string& what, const fs::path& path) {
  throw IoError(what + " '" + path.string() + "': " + std::strerror(errno));
}

/// POSIX fd-backed file: write() is a raw ::write (naturally short-write
/// capable), flush() is a no-op (no user-space buffer), sync() is fsync.
class PosixWriteFile final : public WriteFile {
 public:
  PosixWriteFile(int fd, fs::path path) : fd_(fd), path_(std::move(path)) {}

  ~PosixWriteFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  std::size_t write(std::string_view data) override {
    if (data.empty()) return 0;
    const ::ssize_t n = ::write(fd_, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) return 0;  // retryable, no progress
      throw_errno("write failed on", path_);
    }
    return static_cast<std::size_t>(n);
  }

  void flush() override {}  // unbuffered

  void sync() override {
    if (::fsync(fd_) != 0) throw_errno("fsync failed on", path_);
  }

  void close() override {
    if (fd_ < 0) return;
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) throw_errno("close failed on", path_);
  }

 private:
  int fd_;
  fs::path path_;
};

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot read '" + path.string() + "'");
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

class RealFileIo final : public FileIo {
 public:
  std::string read(const fs::path& path) override {
    return read_file(path);
  }

  WriteFilePtr open_append(const fs::path& path) override {
    return open_with(path, O_WRONLY | O_CREAT | O_APPEND);
  }

  WriteFilePtr open_trunc(const fs::path& path) override {
    return open_with(path, O_WRONLY | O_CREAT | O_TRUNC);
  }

  void rename(const fs::path& from, const fs::path& to) override {
    std::error_code ec;
    fs::rename(from, to, ec);
    if (ec) {
      throw IoError("rename '" + from.string() + "' -> '" + to.string() +
                    "' failed: " + ec.message());
    }
  }

  void truncate(const fs::path& path, std::uintmax_t size) override {
    std::error_code ec;
    fs::resize_file(path, size, ec);
    if (ec) {
      throw IoError("truncate '" + path.string() +
                    "' failed: " + ec.message());
    }
  }

  void remove(const fs::path& path) override {
    std::error_code ec;
    fs::remove(path, ec);
    if (ec) {
      throw IoError("remove '" + path.string() + "' failed: " + ec.message());
    }
  }

  void sync_dir(const fs::path& dir) override {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) throw_errno("cannot open directory", dir);
    if (::fsync(fd) != 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      throw_errno("fsync failed on directory", dir);
    }
    if (::close(fd) != 0) throw_errno("close failed on directory", dir);
  }

 private:
  static WriteFilePtr open_with(const fs::path& path, int flags) {
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) throw_errno("cannot open", path);
    return std::make_unique<PosixWriteFile>(fd, path);
  }
};

std::uintmax_t size_or_zero(const fs::path& path) {
  std::error_code ec;
  const std::uintmax_t n = fs::file_size(path, ec);
  return ec ? 0 : n;
}

void spill(const fs::path& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!out) throw IoError("FaultIo: cannot restore '" + path.string() + "'");
}

}  // namespace

std::shared_ptr<FileIo> real_file_io() {
  static const std::shared_ptr<FileIo> io = std::make_shared<RealFileIo>();
  return io;
}

// ----- FaultIo -------------------------------------------------------------

/// Forwards to the base handle, routing every call through FaultIo's op
/// counter; records fsync high-water marks for the crash-loss model.
class FaultWriteFile final : public WriteFile {
 public:
  FaultWriteFile(FaultIo* io, WriteFilePtr base, fs::path path)
      : io_(io), base_(std::move(base)), path_(std::move(path)) {}

  std::size_t write(std::string_view data) override {
    const bool short_write = io_->on_op("write");
    if (short_write) {
      const std::size_t half = data.size() / 2;
      std::size_t done = 0;
      while (done < half) {
        done += base_->write(data.substr(done, half - done));
      }
      return half;
    }
    return base_->write(data);
  }

  void flush() override {
    io_->on_op("flush");
    base_->flush();
  }

  void sync() override {
    io_->on_op("sync");
    base_->sync();
    io_->note_synced(path_);
  }

  void close() override {
    io_->on_op("close");
    base_->close();
  }

 private:
  FaultIo* io_;
  WriteFilePtr base_;
  fs::path path_;
};

FaultIo::FaultIo(std::shared_ptr<FileIo> base)
    : base_(base != nullptr ? std::move(base) : real_file_io()) {}

bool FaultIo::on_op(const char* what) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) {
    throw IoError(std::string("FaultIo: ") + what + " after simulated crash");
  }
  ++ops_;
  trace_.emplace_back(what);
  if (fault_.at_op == 0 || ops_ < fault_.at_op) return false;
  switch (fault_.kind) {
    case Fault::Kind::kError: {
      const bool sticky = fault_.count == Fault::kSticky;
      if (sticky || ops_ < fault_.at_op + fault_.count) {
        throw IoError(std::string("FaultIo: injected ") + what +
                      " error (op " + std::to_string(ops_) + ")");
      }
      return false;
    }
    case Fault::Kind::kShortWrite:
      return ops_ == fault_.at_op;
    case Fault::Kind::kCrash:
      if (ops_ == fault_.at_op) {
        apply_crash_loss();
        crashed_ = true;
        throw IoError(std::string("FaultIo: simulated crash at ") + what +
                      " (op " + std::to_string(ops_) + ")");
      }
      return false;
  }
  return false;
}

void FaultIo::apply_crash_loss() {
  for (const auto& [path, durable] : durable_) {
    if (!fs::exists(path)) continue;
    const std::uintmax_t size = size_or_zero(path);
    if (size <= durable) continue;
    std::uintmax_t keep = size;
    switch (fault_.loss) {
      case CrashLoss::kKeepAll:
        continue;
      case CrashLoss::kDropUnsynced:
        keep = durable;
        break;
      case CrashLoss::kTornHalf:
        keep = durable + (size - durable) / 2;
        break;
    }
    base_->truncate(path, keep);
  }
  // Directory entries: a rename whose parent directory was never fsynced
  // may be undone by power loss — the on-disk directory still holds the
  // pre-rename state. kKeepAll (process crash) keeps the kernel's view.
  if (fault_.loss != CrashLoss::kKeepAll) {
    for (auto it = pending_renames_.rbegin(); it != pending_renames_.rend();
         ++it) {
      if (fs::exists(it->to)) {
        spill(it->from, read_file(it->to));
      }
      if (it->to_existed) {
        spill(it->to, it->old_to_content);
      } else {
        base_->remove(it->to);
      }
    }
  }
  pending_renames_.clear();
}

void FaultIo::note_synced(const fs::path& path) {
  const std::lock_guard<std::mutex> lock(mu_);
  durable_[path] = size_or_zero(path);
}

std::string FaultIo::read(const fs::path& path) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (crashed_) throw IoError("FaultIo: read after simulated crash");
  }
  return base_->read(path);
}

WriteFilePtr FaultIo::open_append(const fs::path& path) {
  on_op("open");
  WriteFilePtr base = base_->open_append(path);
  // A freshly tracked file's durable prefix is whatever already exists
  // (created by a previous, synced life of the store).
  {
    const std::lock_guard<std::mutex> lock(mu_);
    durable_.try_emplace(path, size_or_zero(path));
  }
  return std::make_unique<FaultWriteFile>(this, std::move(base), path);
}

WriteFilePtr FaultIo::open_trunc(const fs::path& path) {
  on_op("open");
  WriteFilePtr base = base_->open_trunc(path);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    durable_[path] = 0;
  }
  return std::make_unique<FaultWriteFile>(this, std::move(base), path);
}

void FaultIo::rename(const fs::path& from, const fs::path& to) {
  on_op("rename");
  PendingRename pending;
  pending.from = from;
  pending.to = to;
  pending.to_existed = fs::exists(to);
  if (pending.to_existed) pending.old_to_content = read_file(to);
  base_->rename(from, to);
  const std::lock_guard<std::mutex> lock(mu_);
  pending_renames_.push_back(std::move(pending));
  const auto it = durable_.find(from);
  if (it != durable_.end()) {
    durable_[to] = it->second;
    durable_.erase(it);
  }
}

void FaultIo::truncate(const fs::path& path, std::uintmax_t size) {
  on_op("truncate");
  base_->truncate(path, size);
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = durable_.find(path);
  if (it != durable_.end() && it->second > size) it->second = size;
}

void FaultIo::remove(const fs::path& path) {
  on_op("remove");
  base_->remove(path);
  const std::lock_guard<std::mutex> lock(mu_);
  durable_.erase(path);
}

void FaultIo::sync_dir(const fs::path& dir) {
  on_op("sync_dir");
  base_->sync_dir(dir);
  const std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(pending_renames_, [&](const PendingRename& pending) {
    return pending.to.parent_path() == dir;
  });
}

}  // namespace wflog
