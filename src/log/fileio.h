#pragma once

// The injectable file-IO seam under LogStore.
//
// Every byte LogStore persists — record lines, manifest rewrites, tail
// truncations — flows through a FileIo, so the crash-torture harness
// (tests/store_torture_test.cpp) can substitute a FaultIo that fails,
// short-writes, or "crashes" at the Nth operation and prove the recovery
// path sound at every IO boundary. Production code uses real_file_io(),
// a POSIX implementation whose sync() is a genuine fsync.
//
// Every manifest and segment read (open's recovery scan, load()) flows
// through FileIo::read too. Faults are injected on writes only, and the
// crash model applies its data loss to the real files, so readers observe
// it naturally; but a crashed FaultIo refuses reads as well, so a reopen
// that needs no write still waits for the disk to come back.
//
// Durability model: file *contents* become durable on sync(); directory
// *entries* (a freshly created file, a rename) become durable only once the
// parent directory is fsynced via FileIo::sync_dir. FaultIo models the
// rename half strictly — an un-dir-fsynced rename may be rolled back to the
// pre-rename directory state by a crash (see CrashLoss) — which is exactly
// the window LogStore closes by calling sync_dir after every manifest
// rename and segment creation.

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace wflog {

/// A writable file handle. write() may be short (return < data.size())
/// without error — callers loop; hard failures throw IoError. Destructors
/// close best-effort and never throw.
class WriteFile {
 public:
  virtual ~WriteFile() = default;

  /// Appends at the current position; returns bytes accepted (possibly
  /// fewer than data.size()). Throws IoError on hard failure.
  virtual std::size_t write(std::string_view data) = 0;
  /// Pushes user-space buffers to the OS. Throws IoError on failure.
  virtual void flush() = 0;
  /// Forces OS buffers to stable storage (fsync). Throws IoError.
  virtual void sync() = 0;
  /// Flushes and closes. Throws IoError; the destructor closes silently.
  virtual void close() = 0;
};

using WriteFilePtr = std::unique_ptr<WriteFile>;

/// The operations LogStore needs from a filesystem.
class FileIo {
 public:
  virtual ~FileIo() = default;

  /// The whole content of `path`. Throws IoError when it cannot be read.
  virtual std::string read(const std::filesystem::path& path) = 0;

  /// Opens `path` for appending, creating it if missing.
  virtual WriteFilePtr open_append(const std::filesystem::path& path) = 0;
  /// Opens `path` truncated to empty, creating it if missing.
  virtual WriteFilePtr open_trunc(const std::filesystem::path& path) = 0;
  /// Atomically replaces `to` with `from`.
  virtual void rename(const std::filesystem::path& from,
                      const std::filesystem::path& to) = 0;
  /// Truncates `path` to `size` bytes.
  virtual void truncate(const std::filesystem::path& path,
                        std::uintmax_t size) = 0;
  /// Deletes `path` (no error if absent).
  virtual void remove(const std::filesystem::path& path) = 0;
  /// Fsyncs the directory itself, making the entries it holds — created
  /// files, renames — durable. Throws IoError on failure.
  virtual void sync_dir(const std::filesystem::path& dir) = 0;
};

/// The process-wide real (POSIX) implementation.
std::shared_ptr<FileIo> real_file_io();

/// A programmable fault-injecting FileIo for the robustness tests. Wraps a
/// base FileIo (the real one by default), counts every operation — writes,
/// flushes, syncs, opens, renames, truncates — and triggers the configured
/// fault when the counter reaches Fault::at_op:
///
///   kError       ops [at_op, at_op + count) throw IoError, later ops
///                succeed — a transient failure the store's bounded
///                retry should absorb. count = kSticky models ENOSPC:
///                every op from at_op on fails.
///   kShortWrite  the at_op'th operation, if a write, accepts only half
///                its bytes (no error) — exercises the continuation loop.
///   kCrash       simulated power loss at the at_op'th boundary: the op
///                does not happen, unsynced bytes are lost per CrashLoss,
///                and every subsequent op throws — the harness then
///                reopens the directory with real IO (or calls
///                clear_fault() to "restore power" and reopen in place).
///
/// Reads are not counted as ops and never fault, except that a crashed
/// FaultIo refuses them like every other op until clear_fault().
///
/// Thread-safe: the store serializes its own writes, but the server
/// torture harness arms/clears faults and reads counters from the test
/// thread while wfqd's ingest path is writing — all state is mutex-
/// guarded (the wrapped real IO runs outside any interesting window; it
/// is only ever driven by one store operation at a time).
class FaultIo : public FileIo {
 public:
  /// What survives of a file's un-fsynced suffix when a crash fires.
  enum class CrashLoss {
    kKeepAll,       // process crash: OS page cache survives
    kDropUnsynced,  // power loss, worst case: only fsynced bytes survive
    kTornHalf,      // power loss mid-flush: half the unsynced bytes, torn
  };

  struct Fault {
    static constexpr std::uint64_t kSticky = ~std::uint64_t{0};

    std::uint64_t at_op = 0;  // 1-based op index; 0 disables
    enum class Kind { kError, kShortWrite, kCrash } kind = Kind::kError;
    std::uint64_t count = 1;  // kError: consecutive failing ops (kSticky = forever)
    CrashLoss loss = CrashLoss::kDropUnsynced;  // kCrash
  };

  explicit FaultIo(std::shared_ptr<FileIo> base = nullptr);

  void set_fault(Fault fault) {
    const std::lock_guard<std::mutex> lock(mu_);
    fault_ = fault;
  }
  /// Disarms the fault and clears the crashed latch — "the disk came
  /// back / power was restored". Durable high-water marks survive (the
  /// crash already applied its loss to the real files); the op counter
  /// keeps running. The next store reopen through this IO then succeeds.
  void clear_fault() {
    const std::lock_guard<std::mutex> lock(mu_);
    fault_ = Fault{};
    crashed_ = false;
  }
  /// Operations observed so far (a fault-free dry run measures a
  /// workload's op count; the torture matrix then crashes at each index).
  std::uint64_t ops() const noexcept {
    const std::lock_guard<std::mutex> lock(mu_);
    return ops_;
  }
  bool crashed() const noexcept {
    const std::lock_guard<std::mutex> lock(mu_);
    return crashed_;
  }
  /// Names of every op observed, in order; op N (1-based) is
  /// op_trace()[N-1]. Lets tests aim a crash at a specific boundary, e.g.
  /// the sync_dir immediately after a manifest rename.
  std::vector<std::string> op_trace() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return trace_;
  }

  std::string read(const std::filesystem::path& path) override;
  WriteFilePtr open_append(const std::filesystem::path& path) override;
  WriteFilePtr open_trunc(const std::filesystem::path& path) override;
  void rename(const std::filesystem::path& from,
              const std::filesystem::path& to) override;
  void truncate(const std::filesystem::path& path,
                std::uintmax_t size) override;
  void remove(const std::filesystem::path& path) override;
  void sync_dir(const std::filesystem::path& dir) override;

 private:
  friend class FaultWriteFile;

  /// A rename that has happened on the real filesystem but whose directory
  /// entry is not yet durable (no sync_dir on the parent since). A crash
  /// rolls it back: `to` regains its pre-rename content (or vanishes) and
  /// `from` reappears with the renamed bytes.
  struct PendingRename {
    std::filesystem::path from;
    std::filesystem::path to;
    bool to_existed = false;
    std::string old_to_content;  // valid when to_existed
  };

  /// Counts one op; throws per the configured fault. Returns true when the
  /// op should short-write.
  bool on_op(const char* what);
  void apply_crash_loss();
  void note_synced(const std::filesystem::path& path);

  std::shared_ptr<FileIo> base_;
  mutable std::mutex mu_;  // guards everything below
  Fault fault_;
  std::uint64_t ops_ = 0;
  bool crashed_ = false;
  std::vector<std::string> trace_;
  // Durable (fsynced) size per path touched through this IO. Writes go
  // straight to the real file; a crash truncates back to these marks.
  std::map<std::filesystem::path, std::uintmax_t> durable_;
  // Renames not yet committed by a parent-directory fsync, oldest first.
  std::vector<PendingRename> pending_renames_;
};

}  // namespace wflog
