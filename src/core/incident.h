#pragma once

// Incident instances (Definition 4): an incident o of pattern p in log L is
// a set of records of one workflow instance, with first(o), last(o), wid(o).
//
// Representation: the owning wid plus the sorted member records' is-lsns.
// Since is-lsn identifies a record within an instance, (wid, {is-lsns})
// identifies the record set exactly; actual LogRecords are recovered
// through LogIndex::find. first()/last() are O(1) (ends of the sorted
// positions), union and disjointness are linear sorted merges — matching
// the complexity accounting of Lemma 1.
//
// Positions live in an inline buffer of kInlineCapacity slots and spill to
// one exactly-sized heap block only past it, so the singletons every atom
// emits and the small merges above them never touch the allocator.
//
// Definition 4 makes inc_L(p) a SET of incidents. Evaluators therefore keep
// incident lists in canonical order (lexicographic on the position vector,
// which also orders by first()) and deduplicated; see canonicalize().

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace wflog {

class Incident {
 public:
  /// Positions held without a heap block. Measured over the benchmark's
  /// query mixes (every subpattern's incidents): 99.98% of the ad-hoc
  /// procurement queries' incidents and all of the offline clinic batch's
  /// have at most 5 positions (the largest seen has 6). Five slots also
  /// keep sizeof(Incident) at 32 bytes: wid, size and 5 positions.
  static constexpr std::size_t kInlineCapacity = 5;

  Incident() noexcept = default;
  Incident(const Incident& other) : wid_(other.wid_), size_(other.size_) {
    std::memcpy(inline_, other.inline_, sizeof inline_);
    if (spilled()) clone_heap();
  }
  Incident(Incident&& other) noexcept { steal(other); }
  Incident& operator=(const Incident& other);
  Incident& operator=(Incident&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  ~Incident() { release(); }

  friend void swap(Incident& a, Incident& b) noexcept;

  /// Singleton incident of an atomic pattern: one record.
  static Incident singleton(Wid wid, IsLsn pos) noexcept {
    Incident o;
    o.wid_ = wid;
    o.size_ = 1;
    o.inline_[0] = pos;
    return o;
  }

  /// Union o = o1 ∪ o2 used by ⊙ / ≫ / ⊕.
  /// Precondition: a.wid() == b.wid(). Shared positions collapse (sets).
  static Incident merged(const Incident& a, const Incident& b);

  /// True when the incidents share no log record (the ⊕ side condition).
  /// Linear sorted merge.
  static bool disjoint(const Incident& a, const Incident& b) noexcept;

  Wid wid() const noexcept { return wid_; }
  /// Paper's first(o): smallest member is-lsn. Precondition: !empty().
  IsLsn first() const noexcept { return data()[0]; }
  /// Paper's last(o): largest member is-lsn. Precondition: !empty().
  IsLsn last() const noexcept { return data()[size_ - 1]; }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  /// Member is-lsns, ascending.
  std::span<const IsLsn> positions() const noexcept {
    return {data(), size_};
  }

  /// Bytes this incident owns outside its own object: 0 unless its
  /// positions spilled past kInlineCapacity. Memory accounting (the result
  /// cache budget, the batch memo) counts sizeof(Incident) + heap_bytes().
  std::size_t heap_bytes() const noexcept {
    return spilled() ? size_ * sizeof(IsLsn) : 0;
  }

  bool operator==(const Incident& other) const noexcept {
    const std::span<const IsLsn> p = positions();
    const std::span<const IsLsn> q = other.positions();
    return wid_ == other.wid_ &&
           std::equal(p.begin(), p.end(), q.begin(), q.end());
  }

  /// Canonical order: by wid, then lexicographically on positions (which in
  /// particular sorts by first()). Total, strict weak ordering.
  bool operator<(const Incident& other) const noexcept {
    if (wid_ != other.wid_) return wid_ < other.wid_;
    const std::span<const IsLsn> p = positions();
    const std::span<const IsLsn> q = other.positions();
    return std::lexicographical_compare(p.begin(), p.end(), q.begin(),
                                        q.end());
  }

  std::size_t hash() const noexcept;

  /// "{wid=2: 5, 8, 9}" — diagnostic form; the engine renders richer views.
  std::string to_string() const;

 private:
  bool spilled() const noexcept { return size_ > kInlineCapacity; }
  // A spilled incident keeps its heap pointer in the first bytes of
  // inline_ (memcpy'd: inline_ is only 4-aligned), which keeps the object
  // at 32 bytes.
  IsLsn* heap() const noexcept {
    IsLsn* p = nullptr;
    std::memcpy(&p, inline_, sizeof p);
    return p;
  }
  const IsLsn* data() const noexcept { return spilled() ? heap() : inline_; }
  /// Sets size_ to n and returns storage for n positions (inline or a
  /// fresh heap block). Precondition: no storage owned.
  IsLsn* allocate(std::size_t n);
  /// Replaces a just-copied heap pointer with a copy of its block.
  void clone_heap();
  void release() noexcept {
    if (spilled()) delete[] heap();
    size_ = 0;
  }
  /// Takes other's state, leaving it empty. Precondition: no storage owned.
  void steal(Incident& other) noexcept {
    wid_ = other.wid_;
    size_ = other.size_;
    std::memcpy(inline_, other.inline_, sizeof inline_);
    other.size_ = 0;
  }

  Wid wid_ = 0;
  std::uint32_t size_ = 0;
  IsLsn inline_[kInlineCapacity] = {};
};

/// Incidents of one workflow instance. Invariant (maintained by the
/// evaluators): canonically sorted and duplicate-free.
using IncidentList = std::vector<Incident>;

/// Sorts canonically and removes duplicates, establishing the IncidentList
/// invariant (inc_L(p) is a set).
void canonicalize(IncidentList& list);

/// True when the list is canonically sorted and duplicate-free.
bool is_canonical(const IncidentList& list) noexcept;

/// Incidents grouped by workflow instance; the result of evaluating a
/// pattern over a whole log. Groups appear in ascending wid order.
class IncidentSet {
 public:
  IncidentSet() = default;

  /// Adds a group. Precondition: wid greater than any existing group's.
  void add_group(Wid wid, IncidentList incidents);

  std::size_t num_groups() const noexcept { return groups_.size(); }

  /// Total number of incidents across all instances.
  std::size_t total() const noexcept;

  bool empty() const noexcept { return total() == 0; }

  const IncidentList* find(Wid wid) const noexcept;

  struct Group {
    Wid wid = 0;
    IncidentList incidents;
  };
  const std::vector<Group>& groups() const noexcept { return groups_; }

  /// All incidents in one flat canonical list.
  IncidentList flatten() const;

  bool operator==(const IncidentSet& other) const;

 private:
  std::vector<Group> groups_;
};

}  // namespace wflog
