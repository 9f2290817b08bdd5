#pragma once

// LogMonitor: continuous (incremental) evaluation of incident patterns over
// a live, growing log.
//
// The paper's framework (Figure 2) has the workflow engine appending to the
// log while analysts query it; its related-work discussion singles out
// runtime monitoring (BP-Mon) as something warehouse pipelines do poorly.
// LogMonitor closes that loop: register patterns once, feed workflow events
// as they happen, and receive each NEW incident exactly once, the moment
// its last record arrives.
//
// Algorithm. For every (query, instance) pair the monitor keeps, per
// pattern node, the full incident list computed so far. When a record at
// position n arrives, new incidents are propagated bottom-up as DELTAS:
// every new incident contains position n, hence has last() == n, so
//
//   ⊙ / ≫ : delta = old-left × delta-right (a new left incident ends at n
//           and can never precede an existing right incident);
//   ⊗     : delta = delta-left ∪ delta-right (minus already-known ones);
//   ⊕     : delta = delta-left × old-right ∪ old-left × delta-right
//           ∪ delta-left × delta-right, disjoint pairs only.
//
// Root deltas are the freshly completed matches. The total work to process
// a whole log equals one batch evaluation (amortized); the win is latency —
// matches surface immediately — plus exactly-once delivery.

#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/evaluator.h"
#include "core/guard.h"
#include "core/incident.h"
#include "core/pattern.h"
#include "log/builder.h"

namespace wflog {

/// What the monitor does with an event it cannot apply — an unknown or
/// already-completed wid (out-of-order delivery, lost START) or a reserved
/// activity name.
enum class BadEventPolicy {
  kReject,      // throw Error (the strict default)
  kSkip,        // drop the event, count it, keep running
  kQuarantine,  // drop it but retain it for inspection (quarantined())
};

/// One rejected/skipped/quarantined event.
struct BadEvent {
  Wid wid = 0;
  std::string activity;
  std::string reason;
};

struct MonitorOptions {
  /// Same semantics switches as batch evaluation.
  bool negation_matches_sentinels = true;
  /// Retain all observed records so snapshot() works. Disable for
  /// long-running monitors that only need matches.
  bool keep_records = true;
  /// How to treat events that cannot be applied. Under kSkip/kQuarantine
  /// the feed keeps running — one misbehaving producer cannot take down
  /// the monitor.
  BadEventPolicy bad_event_policy = BadEventPolicy::kReject;
  /// Invoked for every bad event (all policies), before it is thrown,
  /// dropped, or quarantined.
  std::function<void(const BadEvent&)> on_bad_event;
  /// Invoked with every record the monitor appends, after the registered
  /// queries have seen it: how a caller that keeps the log itself (with
  /// keep_records off) takes the records the feed produced.
  std::function<void(const LogRecord&)> on_record;
  /// Most recent quarantined events retained under kQuarantine; older ones
  /// are dropped (counted by num_quarantine_dropped()). 0 retains nothing.
  std::size_t quarantine_capacity = 1024;
};

class LogMonitor {
 public:
  using QueryId = std::size_t;

  struct Match {
    QueryId query = 0;
    Incident incident;
  };

  explicit LogMonitor(MonitorOptions options = {});
  /// A monitor that continues `seed`: its alphabet, its records' count and
  /// every instance's cursor (open instances take further records, ended
  /// ones are bad events, new wids skip the used ones), as if the seed had
  /// been fed — without feeding it. Its records are retained only under
  /// keep_records, so a caller that already holds the log pays no copy.
  LogMonitor(const Log& seed, MonitorOptions options);

  // ----- query management ----------------------------------------------
  /// Registers a pattern. Retained history is replayed first (requires
  /// keep_records when events were already fed), so results are identical
  /// to having registered the query before the first event; historical
  /// matches are reported immediately, in log order.
  ///
  /// A non-null `guard` bounds the backfill replay (deadline / incident
  /// budget / cancellation). When the guard trips, the half-registered
  /// query is rolled back completely and Error is thrown naming the stop
  /// reason — the monitor is left exactly as before the call.
  QueryId add_query(std::string_view pattern_text,
                    const EvalGuard* guard = nullptr);
  QueryId add_query(PatternPtr pattern, const EvalGuard* guard = nullptr);
  /// Unregisters a query and releases everything it owned: per-instance
  /// node state, the match-total entry, and any of its matches still
  /// queued for drain(). After removal the id never surfaces again.
  void remove_query(QueryId id);
  std::size_t num_queries() const noexcept { return queries_.size(); }

  // ----- event feed ------------------------------------------------------
  /// Starts a new workflow instance (emits its START record). Returns the
  /// fresh wid.
  Wid begin_instance();
  /// Records one activity execution for an open instance. An event naming
  /// an unknown/completed wid or a reserved activity is handled per
  /// MonitorOptions::bad_event_policy (kReject throws Error).
  void record(Wid wid, std::string_view activity, const NamedAttrs& in = {},
              const NamedAttrs& out = {});
  /// Completes an instance (emits END) and releases its per-query state.
  /// A wid that is not open follows the bad-event policy too.
  void end_instance(Wid wid);

  // ----- results -----------------------------------------------------------
  /// Matches accumulated since the last drain(), in arrival order.
  const std::vector<Match>& matches() const noexcept { return matches_; }
  std::vector<Match> drain();
  /// Extracts only one query's pending matches, preserving arrival order;
  /// other queries' matches stay queued.
  std::vector<Match> drain(QueryId id);
  std::size_t total_matches(QueryId id) const;

  /// Everything observed so far, as a validated Log (keep_records only).
  Log snapshot() const;

  std::size_t num_records() const noexcept { return num_records_; }
  /// Names of every activity and attribute seen (the seed's and the
  /// feed's); the Symbols of every appended record refer to it.
  const Interner& interner() const noexcept { return interner_; }
  /// Events retained under BadEventPolicy::kQuarantine, in arrival order
  /// (at most MonitorOptions::quarantine_capacity; oldest dropped first).
  const std::deque<BadEvent>& quarantined() const noexcept {
    return quarantined_;
  }
  /// Quarantined events evicted to honor quarantine_capacity.
  std::size_t num_quarantine_dropped() const noexcept {
    return num_quarantine_dropped_;
  }
  /// Bad events seen so far (rejected, skipped, and quarantined alike).
  std::size_t num_bad_events() const noexcept { return num_bad_events_; }

  /// Internal bookkeeping sizes, exposed so tests (and leak audits) can
  /// assert that removing a query releases everything it owned.
  struct MemoryStats {
    std::size_t state_queries = 0;    // query ids with per-instance state
    std::size_t state_instances = 0;  // (query, instance) state pairs
    std::size_t tracked_totals = 0;   // match_totals_ entries
    std::size_t pending_matches = 0;  // matches_ rows awaiting drain()
  };
  MemoryStats memory_stats() const noexcept;

 private:
  struct CompiledNode {
    PatternOp op = PatternOp::kAtom;
    // atom payload
    Symbol activity = kNoSymbol;
    bool negated = false;
    PredicatePtr predicate;
    // composite payload
    std::size_t left = 0;
    std::size_t right = 0;
  };

  struct CompiledQuery {
    QueryId id = 0;
    PatternPtr pattern;
    std::vector<CompiledNode> nodes;  // post-order; root last
  };

  /// Incident lists per node for one (query, instance) pair.
  struct InstanceState {
    std::vector<IncidentList> full;  // parallel to CompiledQuery::nodes
  };

  std::size_t compile_node(const Pattern& p, CompiledQuery& q);
  void feed(CompiledQuery& q, const LogRecord& l);
  void backfill(CompiledQuery& q, const EvalGuard* guard);
  void append_record(Wid wid, Symbol activity, AttrMap in, AttrMap out);
  /// Applies the bad-event policy: counts it, invokes the callback, then
  /// throws (kReject), drops (kSkip), or retains (kQuarantine) the event.
  void note_bad_event(Wid wid, std::string_view activity,
                      std::string reason);

  MonitorOptions options_;
  Interner interner_;
  Symbol start_sym_;
  Symbol end_sym_;
  std::vector<CompiledQuery> queries_;
  // State keyed per query id then wid.
  std::unordered_map<QueryId, std::unordered_map<Wid, InstanceState>> state_;
  std::unordered_map<Wid, IsLsn> next_is_lsn_;  // open instances
  std::vector<LogRecord> records_;              // retained when keep_records
  std::deque<BadEvent> quarantined_;            // ring: capacity-capped
  std::size_t num_quarantine_dropped_ = 0;
  std::size_t num_bad_events_ = 0;
  std::vector<Match> matches_;
  std::unordered_map<QueryId, std::size_t> match_totals_;
  Wid next_wid_ = 1;
  std::size_t num_records_ = 0;
  QueryId next_query_id_ = 1;
};

}  // namespace wflog
