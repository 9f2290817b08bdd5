#pragma once

// Log records (Definition 1 of the paper): the fundamental unit of a
// workflow log. A record is (lsn, wid, is-lsn, t, αin, αout) — the global
// sequence number, the owning workflow instance, the position within that
// instance, the activity name, and the attribute maps the activity read
// (αin) and wrote (αout).

#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "common/value.h"

namespace wflog {

/// One attribute binding inside an input/output map.
struct AttrEntry {
  Symbol attr = kNoSymbol;
  Value value;

  bool operator==(const AttrEntry& other) const {
    return attr == other.attr && value == other.value;
  }
};

/// A finite map A -> D ("map" in the paper). Attribute maps are tiny (a
/// handful of entries), so a flat vector with linear lookup beats any
/// tree/hash container; insertion order is preserved for faithful
/// round-tripping.
class AttrMap {
 public:
  AttrMap() = default;
  AttrMap(std::initializer_list<AttrEntry> init) : entries_(init) {}

  /// Sets attr to value, overwriting an existing binding.
  void set(Symbol attr, Value value);

  /// Returns the bound value or nullptr when the attribute is undefined (⊥).
  const Value* get(Symbol attr) const noexcept;

  bool contains(Symbol attr) const noexcept { return get(attr) != nullptr; }
  void clear() noexcept { entries_.clear(); }
  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }

  auto begin() const noexcept { return entries_.begin(); }
  auto end() const noexcept { return entries_.end(); }

  bool operator==(const AttrMap& other) const {
    return entries_ == other.entries_;
  }

  /// Rewrites every attribute symbol s as to[s]: moves a map decoded
  /// against one Interner onto another. Precondition: s < to.size().
  void remap(std::span<const Symbol> to) noexcept;

 private:
  std::vector<AttrEntry> entries_;
};

/// A log record. Plain aggregate: all invariants that relate records to one
/// another (lsn bijection, consecutive is-lsn, ...) belong to Log
/// (Definition 2), not to the individual record.
struct LogRecord {
  Lsn lsn = 0;
  Wid wid = 0;
  IsLsn is_lsn = 0;
  Symbol activity = kNoSymbol;
  AttrMap in;
  AttrMap out;
};

/// Accessor functions mirroring the paper's notation lsn(l), wid(l),
/// is-lsn(l), act(l), αin(l), αout(l).
inline Lsn lsn(const LogRecord& l) noexcept { return l.lsn; }
inline Wid wid(const LogRecord& l) noexcept { return l.wid; }
inline IsLsn is_lsn(const LogRecord& l) noexcept { return l.is_lsn; }
inline Symbol act(const LogRecord& l) noexcept { return l.activity; }
inline const AttrMap& alpha_in(const LogRecord& l) noexcept { return l.in; }
inline const AttrMap& alpha_out(const LogRecord& l) noexcept { return l.out; }

/// Names of the two sentinel activities. Every instance begins with a START
/// record (is-lsn = 1) and a completed instance ends with an END record.
inline constexpr std::string_view kStartActivity = "START";
inline constexpr std::string_view kEndActivity = "END";

}  // namespace wflog
