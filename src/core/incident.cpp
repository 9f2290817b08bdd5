#include "core/incident.h"

#include <algorithm>
#include <utility>

namespace wflog {

static_assert(sizeof(Incident) == 32);
static_assert(Incident::kInlineCapacity * sizeof(IsLsn) >= sizeof(IsLsn*));

namespace {

/// |a ∪ b| for sorted position lists.
std::size_t union_size(std::span<const IsLsn> a,
                       std::span<const IsLsn> b) noexcept {
  std::size_t n = a.size() + b.size();
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      --n;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return n;
}

}  // namespace

Incident& Incident::operator=(const Incident& other) {
  Incident copy(other);
  swap(*this, copy);
  return *this;
}

void swap(Incident& a, Incident& b) noexcept {
  std::swap(a.wid_, b.wid_);
  std::swap(a.size_, b.size_);
  std::swap(a.inline_, b.inline_);
}

IsLsn* Incident::allocate(std::size_t n) {
  size_ = static_cast<std::uint32_t>(n);
  if (!spilled()) return inline_;
  IsLsn* p = new IsLsn[n];
  std::memcpy(inline_, &p, sizeof p);
  return p;
}

void Incident::clone_heap() {
  const IsLsn* src = heap();
  IsLsn* p = new IsLsn[size_];
  std::copy(src, src + size_, p);
  std::memcpy(inline_, &p, sizeof p);
}

Incident Incident::merged(const Incident& a, const Incident& b) {
  const std::span<const IsLsn> pa = a.positions();
  const std::span<const IsLsn> pb = b.positions();
  // ⊙ and ≫ only ever merge operands with separated spans: the union is
  // then the concatenation and needs no counting pass.
  const bool separated = a.empty() || b.empty() || a.last() < b.first() ||
                         b.last() < a.first();
  Incident out;
  out.wid_ = a.wid_;
  IsLsn* dst =
      out.allocate(separated ? pa.size() + pb.size() : union_size(pa, pb));
  std::set_union(pa.begin(), pa.end(), pb.begin(), pb.end(), dst);
  return out;
}

bool Incident::disjoint(const Incident& a, const Incident& b) noexcept {
  // Cheap interval reject first: non-overlapping spans cannot share records.
  if (a.empty() || b.empty()) return true;
  if (a.last() < b.first() || b.last() < a.first()) return true;
  const std::span<const IsLsn> pa = a.positions();
  const std::span<const IsLsn> pb = b.positions();
  std::size_t i = 0, j = 0;
  while (i < pa.size() && j < pb.size()) {
    if (pa[i] == pb[j]) return false;
    if (pa[i] < pb[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return true;
}

std::size_t Incident::hash() const noexcept {
  std::size_t h = static_cast<std::size_t>(wid_) * 0x9e3779b97f4a7c15ULL;
  for (IsLsn p : positions()) {
    h = h * 0x100000001b3ULL + p;
  }
  return h;
}

std::string Incident::to_string() const {
  std::string out = "{wid=" + std::to_string(wid_) + ":";
  const std::span<const IsLsn> p = positions();
  for (std::size_t i = 0; i < p.size(); ++i) {
    out += i == 0 ? " " : ", ";
    out += std::to_string(p[i]);
  }
  out += "}";
  return out;
}

void canonicalize(IncidentList& list) {
  // ⊙ and ≫ over canonical operands whose left incidents have one size
  // (the common case) emit in canonical order already; one linear check
  // then replaces the sort.
  if (is_canonical(list)) return;
  std::sort(list.begin(), list.end());
  list.erase(std::unique(list.begin(), list.end()), list.end());
}

bool is_canonical(const IncidentList& list) noexcept {
  for (std::size_t i = 1; i < list.size(); ++i) {
    if (!(list[i - 1] < list[i])) return false;
  }
  return true;
}

void IncidentSet::add_group(Wid wid, std::span<const Incident> incidents) {
  wids_.push_back(wid);
  incidents_.insert(incidents_.end(), incidents.begin(), incidents.end());
  ends_.push_back(incidents_.size());
}

void IncidentSet::reserve(std::size_t groups, std::size_t incidents) {
  wids_.reserve(wids_.size() + groups);
  ends_.reserve(ends_.size() + groups);
  incidents_.reserve(incidents_.size() + incidents);
}

std::optional<std::span<const Incident>> IncidentSet::find(
    Wid wid) const noexcept {
  for (std::size_t g = 0; g < wids_.size(); ++g) {
    if (wids_[g] == wid) return (*this)[g].incidents;
  }
  return std::nullopt;
}

std::size_t IncidentSet::heap_bytes() const noexcept {
  std::size_t n = wids_.capacity() * sizeof(Wid) +
                  ends_.capacity() * sizeof(std::size_t) +
                  incidents_.capacity() * sizeof(Incident);
  for (const Incident& o : incidents_) n += o.heap_bytes();
  return n;
}

IncidentList IncidentSet::flatten() const {
  IncidentList all(incidents_.begin(), incidents_.end());
  canonicalize(all);
  return all;
}

bool IncidentSet::operator==(const IncidentSet& other) const {
  // Compare as sets of incidents: groups may be split differently (e.g. one
  // side omits empty groups), so flatten.
  return flatten() == other.flatten();
}

}  // namespace wflog
