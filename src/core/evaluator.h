#pragma once

// Incident-tree evaluation (the paper's Algorithm 2).
//
// Evaluation partitions the log by workflow instance (the paper's
// LogRecordsDict / widSet), then post-order-evaluates the pattern tree per
// instance: leaves pull their match lists from the LogIndex ("an index
// structure for each workflow id and activity is used to generate log
// records for an activity node in constant time"), internal nodes combine
// their children's incident lists with the operator algorithms of
// Algorithm 1 (or their optimized counterparts).

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/guard.h"
#include "core/incident.h"
#include "core/pattern.h"
#include "log/index.h"
#include "obs/trace.h"

namespace wflog {

struct EvalOptions {
  /// false = the paper's Algorithm 1 operator routines; true = the
  /// optimized ones (core/operators_opt.h). Both yield identical results.
  bool use_optimized_operators = true;

  /// Whether a negative atom ¬t may match the START/END sentinel records.
  /// Definition 4 excludes nothing ("activity name other than t"), so the
  /// faithful default is true; analysts usually want false.
  bool negation_matches_sentinels = true;

  /// Answer count()/exists() for linear patterns (⊙/≫ chains of positive
  /// atoms) with the DP of core/linear.h instead of materializing
  /// incidents. Identical answers, often asymptotically faster.
  bool use_linear_fast_path = true;

  /// CEP-style span window: keep only incidents whose records all fall
  /// within `max_span` consecutive positions (last - first < max_span).
  /// 0 disables. Because merging records can only widen an incident's
  /// span, the evaluator prunes at every operator, not just at the root —
  /// a large constant-factor win for selective windows.
  IsLsn max_span = 0;
};

/// Tallies of work done, for the benches and the cost-model calibration.
struct EvalCounters {
  std::uint64_t operator_nodes_evaluated = 0;
  std::uint64_t pairs_examined = 0;   // operand pairs inspected by ⊙/≫/⊕
  std::uint64_t incidents_emitted = 0;  // before cross-node canonicalization
  // Subpattern-memo traffic (zero unless evaluating with a SubpatternMemo).
  std::uint64_t cache_hits = 0;    // node evaluations answered from the memo
  std::uint64_t cache_misses = 0;  // memoizable nodes computed and stored
  std::uint64_t cache_bytes = 0;   // incident bytes retained in the memo

  EvalCounters& operator+=(const EvalCounters& other) {
    operator_nodes_evaluated += other.operator_nodes_evaluated;
    pairs_examined += other.pairs_examined;
    incidents_emitted += other.incidents_emitted;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    cache_bytes += other.cache_bytes;
    return *this;
  }

  /// Delta since a snapshot — how the engine folds per-run work into the
  /// telemetry registry (obs/telemetry.h) without resetting the evaluator.
  EvalCounters& operator-=(const EvalCounters& other) {
    operator_nodes_evaluated -= other.operator_nodes_evaluated;
    pairs_examined -= other.pairs_examined;
    incidents_emitted -= other.incidents_emitted;
    cache_hits -= other.cache_hits;
    cache_misses -= other.cache_misses;
    cache_bytes -= other.cache_bytes;
    return *this;
  }
};

/// Maps pattern nodes to canonical-key slots: nodes with equal
/// canonical_key (core/pattern.h) share a slot, nodes absent from the map
/// are evaluated without memoization. Built once per batch by BatchPlan
/// (core/batch.h) over the nodes of every query tree.
using SlotMap = std::unordered_map<const Pattern*, std::uint32_t>;

/// Per-instance memo of subpattern incident lists, indexed by canonical
/// slot. One memo serves every query of a batch within one workflow
/// instance; reset() clears it before moving to the next instance.
/// Results are only shareable while the log, the instance, and the
/// EvalOptions stay fixed — the batch engine guarantees all three.
class SubpatternMemo {
 public:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// `slots` must outlive the memo (the BatchPlan owns it).
  SubpatternMemo(const SlotMap* slots, std::size_t num_slots)
      : slots_(slots), entries_(num_slots) {}

  /// Forget every cached list (between instances).
  void reset() {
    for (auto& e : entries_) e.reset();
  }

  /// The node-to-slot map EvalPlans resolve their memo slots against.
  const SlotMap& slots() const noexcept { return *slots_; }

  const IncidentList* lookup(std::uint32_t slot) const {
    const auto& e = entries_[slot];
    return e.has_value() ? &*e : nullptr;
  }
  /// Stores a node's list; the returned reference stays valid until
  /// reset(), so evaluation borrows memoized lists instead of copying.
  const IncidentList& store(std::uint32_t slot, IncidentList list) {
    return entries_[slot].emplace(std::move(list));
  }

 private:
  const SlotMap* slots_;
  std::vector<std::optional<IncidentList>> entries_;
};

/// A pattern tree bound to one log for evaluation: the tree flattened in
/// pre-order, every atom's activity symbol and every ⊗ node's dedup
/// decision resolved once (not once per instance), and, when built against
/// a SlotMap, every node's memo slot too. Immutable, so one plan serves
/// every instance and every worker. The pattern must outlive the plan.
class EvalPlan {
 public:
  /// `slots`, when given, must be the SlotMap of the memo the plan will
  /// be evaluated with (null = no node is memoized).
  EvalPlan(const Pattern& root, const Log& log,
           const SlotMap* slots = nullptr);

 private:
  friend class Evaluator;
  struct Node {
    const Pattern* pattern;
    Symbol symbol;        // atoms: the activity (kNoSymbol if absent)
    std::uint32_t slot;   // memo slot, or SubpatternMemo::kNoSlot
    std::uint32_t right;  // operators: right child (left child is next)
    bool choice_dedup;    // ⊗: needs_choice_dedup of the operands
  };
  std::uint32_t add(const Pattern& p, const Log& log, const SlotMap* slots);

  std::vector<Node> nodes_;  // pre-order; nodes_[0] is the root
};

/// Per-operator-node profiling hook: assigns every node of ONE pattern
/// tree its pre-order index and render label, and makes the evaluator emit
/// one tracer span per node evaluation (args: "node" = pre-order index,
/// "incidents" = output size, "pairs" = operand pairs examined). Both
/// explain() and deep `wfq --trace` runs are built on this — the single
/// profiling code path. Evaluation without a NodeTracer costs one null
/// check per node.
///
/// Caveat: nodes are keyed by address, so a tree that physically shares a
/// subtree (possible after optimizer rewrites, never from the parser)
/// charges both occurrences to one row.
class NodeTracer {
 public:
  /// `tracer` and `root` must outlive the NodeTracer.
  NodeTracer(obs::Tracer& tracer, const Pattern& root);

  std::size_t num_nodes() const noexcept { return labels_.size(); }
  /// Render label of pre-order node i: "SeeDoctor", "!a[x > 5]", "[->]".
  const std::string& label(std::size_t i) const { return labels_[i]; }
  /// Depth of pre-order node i (root = 0).
  std::size_t depth(std::size_t i) const { return depths_[i]; }
  obs::Tracer& tracer() const noexcept { return *tracer_; }

 private:
  friend class Evaluator;
  /// Opens the span for one evaluation of `p` (with the "node" arg set).
  obs::Tracer::Span open(const Pattern& p) const;

  obs::Tracer* tracer_;
  std::unordered_map<const Pattern*, std::uint32_t> preorder_;
  std::vector<std::string> labels_;
  std::vector<std::size_t> depths_;
};

class Evaluator {
 public:
  /// The index (and the log it refers to) must outlive the Evaluator.
  explicit Evaluator(const LogIndex& index, EvalOptions opts = {});

  /// inc_L(p): all incidents of p in the log, grouped by instance. With a
  /// NodeTracer, every node evaluation emits a profiling span. With an
  /// EvalGuard (core/guard.h), the instance loop and every operator loop
  /// poll it; once it trips, evaluation stops and the set computed so far
  /// is returned — the caller reads guard->reason() to flag the result.
  IncidentSet evaluate(const Pattern& p, const NodeTracer* trace = nullptr,
                       const EvalGuard* guard = nullptr) const;

  /// Incidents of a plan's pattern within the `instance`-th workflow
  /// instance (position in index().wids()) — the per-instance step every
  /// evaluation path shares. With a memo, every node the plan maps to a
  /// slot is answered from / stored into the memo — the batch engine's
  /// sharing hook; the plan must have been built against the memo's
  /// slots(). The caller owns the memo's lifecycle (reset between
  /// instances). The guard works as in evaluate(); partial (post-trip)
  /// lists are never stored in the memo.
  IncidentList evaluate_instance(const EvalPlan& plan, std::size_t instance,
                                 SubpatternMemo* memo = nullptr,
                                 const NodeTracer* trace = nullptr,
                                 const EvalGuard* guard = nullptr) const;

  /// Incidents of p within the instance `wid` (empty for unknown wids):
  /// the one-off form, which builds the plan itself.
  IncidentList evaluate_instance(const Pattern& p, Wid wid,
                                 SubpatternMemo* memo = nullptr,
                                 const NodeTracer* trace = nullptr,
                                 const EvalGuard* guard = nullptr) const;

  /// True iff inc_L(p) is nonempty. Stops at the first instance with a
  /// match — the cheap mode for "are there any ...?" questions.
  bool exists(const Pattern& p) const;

  /// |inc_L(p)|.
  std::size_t count(const Pattern& p) const;

  const LogIndex& index() const noexcept { return *index_; }
  const EvalOptions& options() const noexcept { return opts_; }

  /// Counters accumulated since construction or the last reset.
  const EvalCounters& counters() const noexcept { return counters_; }
  void reset_counters() const noexcept { counters_ = EvalCounters{}; }

 private:
  /// What stays fixed while one instance's tree is evaluated.
  struct InstanceContext {
    const EvalPlan& plan;
    InstanceView instance;
    Wid wid;
    SubpatternMemo* memo;
    const NodeTracer* trace;
    const EvalGuard* guard;
  };
  /// A node's incident list: owned, or borrowed from the memo (valid
  /// until its next reset()).
  struct NodeResult {
    IncidentList owned;
    const IncidentList* borrowed = nullptr;
    const IncidentList& list() const { return borrowed ? *borrowed : owned; }
  };

  IncidentList run_instance(const InstanceContext& ctx) const;
  NodeResult eval_node(const InstanceContext& ctx, std::uint32_t n) const;
  IncidentList eval_atom(const InstanceContext& ctx,
                         const EvalPlan::Node& node) const;

  const LogIndex* index_;
  EvalOptions opts_;
  mutable EvalCounters counters_;
};

}  // namespace wflog
