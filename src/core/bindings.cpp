#include "core/bindings.h"

#include <algorithm>
#include <functional>

namespace wflog {
namespace {

using Positions = std::span<const IsLsn>;  // sorted, distinct

/// Called each time a complete assignment for the current subtree is in
/// `current`; returns true to STOP the whole exploration.
using Continuation = std::function<bool()>;

/// Backtracking exact-cover exploration. Invokes `cont` once per way to
/// match `p` against exactly `positions`, with the named atoms' bindings
/// appended to `current` for the duration of the call.
bool explore(const Pattern& p, Positions positions, Wid wid,
             const LogIndex& index, BindingMap& current,
             const Continuation& cont) {
  if (p.is_atom()) {
    if (positions.size() != 1) return false;
    const LogRecord* l = index.find(wid, positions.front());
    if (l == nullptr) return false;
    const Symbol sym = index.log().activity_symbol(p.activity());
    const bool name_ok = p.negated()
                             ? l->activity != sym
                             : sym != kNoSymbol && l->activity == sym;
    if (!name_ok) return false;
    if (p.predicate() != nullptr &&
        !p.predicate()->eval(*l, index.log().interner())) {
      return false;
    }
    if (p.binding().empty()) return cont();
    current.push_back(Binding{p.binding(), positions.front()});
    const bool stop = cont();
    current.pop_back();
    return stop;
  }

  auto sizes_fit = [](const Pattern& node, std::size_t n) {
    return n >= node.min_incident_size() && n <= node.max_incident_size();
  };
  if (!sizes_fit(p, positions.size())) return false;

  switch (p.op()) {
    case PatternOp::kAtom:
      return false;  // unreachable
    case PatternOp::kConsecutive:
    case PatternOp::kSequential: {
      // Left covers a prefix, right the remaining suffix.
      const bool cons = p.op() == PatternOp::kConsecutive;
      for (std::size_t split = 1; split < positions.size(); ++split) {
        if (!sizes_fit(*p.left(), split) ||
            !sizes_fit(*p.right(), positions.size() - split)) {
          continue;
        }
        if (cons && positions[split - 1] + 1 != positions[split]) continue;
        const Positions left = positions.first(split);
        const Positions right = positions.subspan(split);
        const bool stop = explore(
            *p.left(), left, wid, index, current,
            [&]() {
              return explore(*p.right(), right, wid, index, current, cont);
            });
        if (stop) return true;
      }
      return false;
    }
    case PatternOp::kChoice: {
      if (explore(*p.left(), positions, wid, index, current, cont)) {
        return true;
      }
      return explore(*p.right(), positions, wid, index, current, cont);
    }
    case PatternOp::kParallel: {
      const std::size_t n = positions.size();
      if (n > kMaxParallelPositions) return false;  // refuse the blow-up
      const std::uint32_t limit = 1u << n;
      for (std::uint32_t mask = 1; mask + 1 < limit; ++mask) {
        const auto left_count =
            static_cast<std::size_t>(__builtin_popcount(mask));
        if (!sizes_fit(*p.left(), left_count) ||
            !sizes_fit(*p.right(), n - left_count)) {
          continue;
        }
        std::vector<IsLsn> left;
        std::vector<IsLsn> right;
        left.reserve(left_count);
        right.reserve(n - left_count);
        for (std::size_t i = 0; i < n; ++i) {
          ((mask >> i) & 1u ? left : right).push_back(positions[i]);
        }
        const bool stop = explore(
            *p.left(), left, wid, index, current,
            [&]() {
              return explore(*p.right(), right, wid, index, current, cont);
            });
        if (stop) return true;
      }
      return false;
    }
  }
  return false;
}

}  // namespace

std::optional<BindingMap> derive_bindings(const Pattern& p,
                                          const Incident& incident,
                                          const LogIndex& index) {
  BindingMap current;
  std::optional<BindingMap> result;
  explore(p, incident.positions(), incident.wid(), index, current,
          [&current, &result]() {
            result = current;
            return true;  // first assignment suffices
          });
  return result;
}

std::string render_bindings(const BindingMap& bindings, Wid wid,
                            const LogIndex& index) {
  std::string out;
  for (std::size_t i = 0; i < bindings.size(); ++i) {
    if (i != 0) out += ", ";
    out += bindings[i].variable;
    out += " = ";
    const LogRecord* l = index.find(wid, bindings[i].position);
    if (l == nullptr) {
      out += "?" + std::to_string(bindings[i].position);
    } else {
      out += "l" + std::to_string(l->lsn) + " " +
             std::string(index.log().activity_name(l->activity));
    }
  }
  return out;
}

std::vector<BindingMap> derive_all_bindings(const Pattern& p,
                                            const Incident& incident,
                                            const LogIndex& index,
                                            std::size_t limit) {
  BindingMap current;
  std::vector<BindingMap> all;
  explore(p, incident.positions(), incident.wid(), index, current,
          [&current, &all, limit]() {
            // Distinct match derivations can induce the same binding map
            // (e.g. unnamed atoms differing); deduplicate.
            if (std::find(all.begin(), all.end(), current) == all.end()) {
              all.push_back(current);
            }
            return all.size() >= limit;
          });
  return all;
}

}  // namespace wflog
