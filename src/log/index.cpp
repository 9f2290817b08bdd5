#include "log/index.h"

#include <algorithm>

namespace wflog {

std::span<const IsLsn> InstanceView::occurrences(
    Symbol activity) const noexcept {
  // Activity tables hold a handful of entries (the instance's distinct
  // activities), so a linear scan beats a binary search.
  for (const Run& r : runs_) {
    if (r.activity == activity) return {positions_ + r.offset, r.length};
    if (r.activity > activity) break;
  }
  return {};
}

LogIndex::LogIndex(const Log& log) : log_(&log) {
  const std::vector<Wid>& wids = log.wids();
  const std::size_t num_instances = wids.size();
  dense_.reserve(num_instances);
  for (std::size_t i = 0; i < num_instances; ++i) {
    dense_.emplace(wids[i], static_cast<std::uint32_t>(i));
  }

  // Pass 1: each record's instance, per-instance record counts and the
  // global activity counts (symbols are dense interner ids).
  std::vector<std::uint32_t> instance_of(log.size());
  std::vector<std::uint32_t> begin(num_instances + 1, 0);
  std::vector<std::size_t> count_of(log.interner().size(), 0);
  std::size_t k = 0;
  for (const LogRecord& l : log) {
    const std::uint32_t inst = dense_.find(l.wid)->second;
    instance_of[k++] = inst;
    ++begin[inst + 1];
    if (l.activity >= count_of.size()) count_of.resize(l.activity + 1, 0);
    ++count_of[l.activity];
  }
  for (std::size_t i = 0; i < num_instances; ++i) begin[i + 1] += begin[i];

  // Pass 2: scatter the records into their instance's slice. Records
  // arrive in lsn order; within an instance that is also is-lsn order
  // (Definition 2, condition 3), so every slice comes out sorted.
  records_.resize(log.size());
  symbols_.resize(log.size());
  {
    std::vector<std::uint32_t> cursor(begin.begin(), begin.end() - 1);
    k = 0;
    for (const LogRecord& l : log) {
      const std::uint32_t at = cursor[instance_of[k++]]++;
      records_[at] = &l;
      symbols_[at] = l.activity;
    }
  }

  // Pass 3: per instance, regroup the positions by activity. Sorting
  // (activity, slot) keys keeps each activity's run in lsn order.
  positions_.resize(log.size());
  slices_.reserve(num_instances + 1);
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < num_instances; ++i) {
    const std::uint32_t b = begin[i];
    const std::uint32_t e = begin[i + 1];
    slices_.push_back({b, static_cast<std::uint32_t>(runs_.size())});
    keys.clear();
    for (std::uint32_t at = b; at < e; ++at) {
      keys.push_back(std::uint64_t{symbols_[at]} << 32 | at);
    }
    std::sort(keys.begin(), keys.end());
    for (std::uint32_t j = 0; j < keys.size(); ++j) {
      const auto activity = static_cast<Symbol>(keys[j] >> 32);
      const auto at = static_cast<std::uint32_t>(keys[j]);
      if (j == 0 || runs_.back().activity != activity) {
        runs_.push_back({activity, b + j, 0});
      }
      ++runs_.back().length;
      positions_[b + j] = records_[at]->is_lsn;
    }
  }
  slices_.push_back({static_cast<std::uint32_t>(log.size()),
                     static_cast<std::uint32_t>(runs_.size())});

  for (std::size_t s = 0; s < count_of.size(); ++s) {
    if (count_of[s] != 0) {
      activities_.push_back(static_cast<Symbol>(s));
      counts_.push_back(count_of[s]);
    }
  }
}

InstanceView LogIndex::view_at(std::size_t i) const noexcept {
  const Slices& s = slices_[i];
  const Slices& next = slices_[i + 1];
  const std::size_t length = next.record_begin - s.record_begin;
  InstanceView v;
  v.records_ = {records_.data() + s.record_begin, length};
  v.symbols_ = {symbols_.data() + s.record_begin, length};
  v.runs_ = {runs_.data() + s.run_begin, next.run_begin - s.run_begin};
  v.positions_ = positions_.data();
  return v;
}

InstanceView LogIndex::view(Wid wid) const noexcept {
  const auto it = dense_.find(wid);
  return it == dense_.end() ? InstanceView{} : view_at(it->second);
}

std::vector<IsLsn> LogIndex::non_occurrences(Wid wid, Symbol activity) const {
  const InstanceView v = view(wid);
  std::vector<IsLsn> out;
  out.reserve(v.length());
  for (std::size_t i = 0; i < v.length(); ++i) {
    if (v.symbols()[i] != activity) out.push_back(v.records()[i]->is_lsn);
  }
  return out;
}

std::size_t LogIndex::total_count(Symbol activity) const noexcept {
  const auto it =
      std::lower_bound(activities_.begin(), activities_.end(), activity);
  if (it == activities_.end() || *it != activity) return 0;
  return counts_[static_cast<std::size_t>(it - activities_.begin())];
}

}  // namespace wflog
