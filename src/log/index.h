#pragma once

// LogIndex: the access structures query evaluation relies on.
//
// Algorithm 2 of the paper assumes "an index structure for each workflow id
// and activity ... used to generate log records for an activity node in
// constant time". LogIndex provides exactly that:
//   * per-instance record arrays in is-lsn order (O(1) (wid, is-lsn) lookup),
//   * per-instance, per-activity occurrence lists (sorted by is-lsn), and
//   * global per-activity counts, which the cost model uses as selectivity
//     estimates.
//
// Layout (columnar, CSR-style): instances are numbered densely in the log's
// wids() order. Four flat arrays hold every instance's slice back to back:
//   records_    record pointers, by instance then is-lsn;
//   symbols_    the same records' activity symbols (the column negated
//               atoms scan without touching the records);
//   positions_  occurrence lists: per instance, one contiguous run of
//               is-lsns per activity, runs ordered by activity symbol;
//   runs_       per instance, one (activity, offset, length) entry per
//               distinct activity — the instance's activity table.
// An InstanceView bundles one instance's slices; occurrences() is a search
// of its (small) activity table and returns a span into positions_.
//
// A LogIndex references the Log it was built from; the Log must outlive it.

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "log/log.h"

namespace wflog {

/// One instance's slice of a LogIndex. Cheap to copy; valid while the
/// index lives. A default-constructed view is the empty instance.
class InstanceView {
 public:
  /// Number of records of the instance.
  std::size_t length() const noexcept { return records_.size(); }

  /// Records in is-lsn order (element i has is-lsn i+1).
  std::span<const LogRecord* const> records() const noexcept {
    return records_;
  }

  /// Activity symbol of each record, parallel to records().
  std::span<const Symbol> symbols() const noexcept { return symbols_; }

  /// O(1) record lookup; nullptr when the instance has no such position.
  const LogRecord* find(IsLsn n) const noexcept {
    return n == 0 || n > records_.size() ? nullptr : records_[n - 1];
  }

  /// is-lsns (ascending) at which `activity` occurs; empty when it never
  /// does.
  std::span<const IsLsn> occurrences(Symbol activity) const noexcept;

 private:
  friend class LogIndex;
  struct Run {
    Symbol activity;
    std::uint32_t offset;  // into the index's positions_
    std::uint32_t length;
  };

  std::span<const LogRecord* const> records_;
  std::span<const Symbol> symbols_;
  std::span<const Run> runs_;  // ascending by activity
  const IsLsn* positions_ = nullptr;
};

class LogIndex {
 public:
  explicit LogIndex(const Log& log);
  /// The index borrows the log; a temporary would dangle immediately.
  explicit LogIndex(Log&& log) = delete;

  LogIndex(const LogIndex&) = delete;
  LogIndex& operator=(const LogIndex&) = delete;
  LogIndex(LogIndex&&) = default;
  LogIndex& operator=(LogIndex&&) = default;

  const Log& log() const noexcept { return *log_; }

  const std::vector<Wid>& wids() const noexcept { return log_->wids(); }

  /// The i-th instance in wids() order. Precondition: i < wids().size().
  InstanceView view_at(std::size_t i) const noexcept;

  /// The instance `wid`; the empty view for unknown wids.
  InstanceView view(Wid wid) const noexcept;

  /// Records of one instance in is-lsn order (element i has is-lsn i+1).
  std::span<const LogRecord* const> instance(Wid wid) const noexcept {
    return view(wid).records();
  }

  /// Number of records of the instance (0 for unknown wids).
  std::size_t instance_length(Wid wid) const noexcept {
    return view(wid).length();
  }

  /// O(1) record lookup; nullptr when the instance has no such position.
  const LogRecord* find(Wid wid, IsLsn n) const noexcept {
    return view(wid).find(n);
  }

  /// is-lsns (sorted ascending) at which `activity` occurs in instance
  /// `wid`; empty when it never occurs.
  std::span<const IsLsn> occurrences(Wid wid, Symbol activity) const noexcept {
    return view(wid).occurrences(activity);
  }

  /// is-lsns (sorted) of records of instance `wid` whose activity is NOT
  /// `activity` — the match set of a negative atomic pattern ¬t. Computed
  /// on demand (it is usually large, so it is not stored); the evaluator
  /// scans InstanceView::symbols() instead.
  std::vector<IsLsn> non_occurrences(Wid wid, Symbol activity) const;

  /// Total occurrences of `activity` across the whole log.
  std::size_t total_count(Symbol activity) const noexcept;

  /// Distinct activity symbols present in the log, ascending.
  const std::vector<Symbol>& activities() const noexcept {
    return activities_;
  }

 private:
  struct Slices {
    std::uint32_t record_begin;  // into records_ / symbols_
    std::uint32_t run_begin;     // into runs_
  };

  const Log* log_;
  std::unordered_map<Wid, std::uint32_t> dense_;  // wid -> instance number
  std::vector<Slices> slices_;  // per instance, plus one end sentinel
  std::vector<const LogRecord*> records_;
  std::vector<Symbol> symbols_;
  std::vector<IsLsn> positions_;
  std::vector<InstanceView::Run> runs_;
  std::vector<Symbol> activities_;
  std::vector<std::size_t> counts_;  // parallel to activities_
};

}  // namespace wflog
