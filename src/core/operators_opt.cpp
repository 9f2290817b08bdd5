#include "core/operators_opt.h"

#include <algorithm>
#include <iterator>

namespace wflog {
namespace {

/// Iterator to the first incident in `list` (canonical => sorted by
/// first()) whose first() is >= bound.
IncidentList::const_iterator lower_bound_first(const IncidentList& list,
                                               IsLsn bound) {
  return std::lower_bound(
      list.begin(), list.end(), bound,
      [](const Incident& o, IsLsn b) { return o.first() < b; });
}

}  // namespace

void eval_consecutive_opt(const IncidentList& inc1,
                          const IncidentList& inc2, IncidentList& out,
                          const EvalGuard* guard) {
  out.clear();
  GuardPoll poll{guard};
  for (const Incident& o1 : inc1) {
    const IsLsn want = o1.last() + 1;
    for (auto it = lower_bound_first(inc2, want);
         it != inc2.end() && it->first() == want; ++it) {
      if (poll.should_stop()) return canonicalize(out);
      out.push_back(Incident::merged(o1, *it));
    }
  }
  canonicalize(out);
}

void eval_sequential_opt(const IncidentList& inc1, const IncidentList& inc2,
                         IncidentList& out, const EvalGuard* guard) {
  out.clear();
  GuardPoll poll{guard};
  for (const Incident& o1 : inc1) {
    for (auto it = lower_bound_first(inc2, o1.last() + 1); it != inc2.end();
         ++it) {
      if (poll.should_stop()) return canonicalize(out);
      out.push_back(Incident::merged(o1, *it));
    }
  }
  canonicalize(out);
}

void eval_choice_opt(const IncidentList& inc1, const IncidentList& inc2,
                     bool dedup, IncidentList& out,
                     const EvalGuard* /*guard*/) {
  // Both inputs are canonical (sorted, duplicate-free), so one linear
  // merge yields the canonical output. Disjoint by construction: merge.
  // Otherwise: set union, which keeps one copy of each shared incident.
  out.clear();
  out.reserve(inc1.size() + inc2.size());
  if (dedup) {
    std::set_union(inc1.begin(), inc1.end(), inc2.begin(), inc2.end(),
                   std::back_inserter(out));
  } else {
    std::merge(inc1.begin(), inc1.end(), inc2.begin(), inc2.end(),
               std::back_inserter(out));
  }
}

void eval_parallel_opt(const IncidentList& inc1, const IncidentList& inc2,
                       IncidentList& out, const EvalGuard* guard) {
  out.clear();
  GuardPoll poll{guard};
  for (const Incident& o1 : inc1) {
    for (const Incident& o2 : inc2) {
      if (poll.should_stop()) return canonicalize(out);
      // Incident::disjoint already performs the interval pre-filter before
      // the member scan; pairs with non-overlapping spans cost O(1).
      if (Incident::disjoint(o1, o2)) {
        out.push_back(Incident::merged(o1, o2));
      }
    }
  }
  canonicalize(out);
}

}  // namespace wflog
