#include "log/record.h"

namespace wflog {

void AttrMap::set(Symbol attr, Value value) {
  for (AttrEntry& e : entries_) {
    if (e.attr == attr) {
      e.value = std::move(value);
      return;
    }
  }
  entries_.push_back(AttrEntry{attr, std::move(value)});
}

const Value* AttrMap::get(Symbol attr) const noexcept {
  for (const AttrEntry& e : entries_) {
    if (e.attr == attr) return &e.value;
  }
  return nullptr;
}

void AttrMap::remap(std::span<const Symbol> to) noexcept {
  for (AttrEntry& e : entries_) e.attr = to[e.attr];
}

}  // namespace wflog
