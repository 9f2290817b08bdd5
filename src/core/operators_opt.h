#pragma once

// Optimized operator evaluation.
//
// The paper closes by noting that "the naive approach sketched in this
// paper can be augmented with more advanced optimization techniques"; these
// are the operator-level ones. They produce exactly the same canonical
// incident lists as core/operators.h (property-tested) but avoid the
// all-pairs scans where possible:
//
//   consecutive  inputs are sorted by first(); binary-search inc2 for the
//                run of incidents with first == last(o1)+1
//                -> O(n1·log n2 + |output|)
//   sequential   binary-search inc2 for the suffix with first > last(o1)
//                -> O(n1·log n2 + |output|)  (output may itself be Θ(n1·n2))
//   choice       one sorted merge (set union when deduplicating)
//                -> O((n1+n2)·k) instead of O(n1·n2·k)
//   parallel     interval pre-filter: pairs whose spans do not overlap are
//                disjoint without scanning members; the span test also
//                subsumes the common sequential-like case
//
// All functions require canonical inputs (sorted by positions, hence by
// first()) and write a canonical output into `out`, which they clear
// first. `out` keeps its capacity across calls, so an evaluator that hands
// every node the same scratch list per instance allocates nothing once the
// lists have grown; it must not alias either input.

// As in core/operators.h, every function with a nested loop polls an
// optional EvalGuard inside it and leaves a canonical partial list once it
// trips; choice is a single linear merge and runs to completion.

#include "core/guard.h"
#include "core/incident.h"

namespace wflog {

void eval_consecutive_opt(const IncidentList& inc1,
                          const IncidentList& inc2, IncidentList& out,
                          const EvalGuard* guard = nullptr);

void eval_sequential_opt(const IncidentList& inc1, const IncidentList& inc2,
                         IncidentList& out, const EvalGuard* guard = nullptr);

void eval_choice_opt(const IncidentList& inc1, const IncidentList& inc2,
                     bool dedup, IncidentList& out,
                     const EvalGuard* guard = nullptr);

void eval_parallel_opt(const IncidentList& inc1, const IncidentList& inc2,
                       IncidentList& out, const EvalGuard* guard = nullptr);

}  // namespace wflog
