#include "core/monitor.h"

#include <algorithm>

#include "common/error.h"
#include "core/parser.h"
#include "obs/telemetry.h"

namespace wflog {
namespace {

/// Inserts `o` into the canonical list `list` if absent; true if inserted.
bool insert_unique(IncidentList& list, Incident o) {
  auto it = std::lower_bound(list.begin(), list.end(), o);
  if (it != list.end() && *it == o) return false;
  list.insert(it, std::move(o));
  return true;
}

}  // namespace

LogMonitor::LogMonitor(MonitorOptions options) : options_(options) {
  start_sym_ = interner_.intern(kStartActivity);
  end_sym_ = interner_.intern(kEndActivity);
}

LogMonitor::LogMonitor(const Log& seed, MonitorOptions options)
    : options_(std::move(options)), interner_(seed.interner()) {
  start_sym_ = interner_.intern(kStartActivity);
  end_sym_ = interner_.intern(kEndActivity);
  std::size_t open = 0;
  for (const LogRecord& l : seed) {
    if (l.is_lsn == 1) ++open;
    if (advance_cursor(next_is_lsn_, l, l.activity == end_sym_) == 0) --open;
  }
  num_records_ = seed.size();
  if (options_.keep_records) records_.assign(seed.begin(), seed.end());
  WFLOG_TELEMETRY(t) {
    t->monitor_open_instances->add(static_cast<double>(open));
  }
}

std::size_t LogMonitor::compile_node(const Pattern& p, CompiledQuery& q) {
  CompiledNode node;
  node.op = p.op();
  if (p.is_atom()) {
    node.activity = interner_.intern(p.activity());
    node.negated = p.negated();
    node.predicate = p.predicate();
  } else {
    node.left = compile_node(*p.left(), q);
    node.right = compile_node(*p.right(), q);
  }
  q.nodes.push_back(std::move(node));
  return q.nodes.size() - 1;
}

LogMonitor::QueryId LogMonitor::add_query(std::string_view pattern_text,
                                          const EvalGuard* guard) {
  return add_query(parse_pattern(pattern_text), guard);
}

LogMonitor::QueryId LogMonitor::add_query(PatternPtr pattern,
                                          const EvalGuard* guard) {
  WFLOG_SPAN(span, "monitor.add_query");
  CompiledQuery q;
  q.id = next_query_id_++;
  q.pattern = std::move(pattern);
  compile_node(*q.pattern, q);
  queries_.push_back(std::move(q));
  const QueryId id = queries_.back().id;
  match_totals_.emplace(id, 0);
  try {
    backfill(queries_.back(), guard);
  } catch (...) {
    remove_query(id);  // leave the monitor exactly as before the call
    throw;
  }
  WFLOG_TELEMETRY(t) {
    t->monitor_queries->set(static_cast<double>(queries_.size()));
  }
  if (span.active()) {
    span.arg("backfilled", static_cast<std::uint64_t>(num_records_));
  }
  return id;
}

void LogMonitor::remove_query(QueryId id) {
  queries_.erase(std::remove_if(queries_.begin(), queries_.end(),
                                [id](const CompiledQuery& q) {
                                  return q.id == id;
                                }),
                 queries_.end());
  state_.erase(id);
  match_totals_.erase(id);
  // Undelivered matches must not surface for an id that no longer exists.
  matches_.erase(std::remove_if(matches_.begin(), matches_.end(),
                                [id](const Match& m) {
                                  return m.query == id;
                                }),
                 matches_.end());
  WFLOG_TELEMETRY(t) {
    t->monitor_queries->set(static_cast<double>(queries_.size()));
  }
}

void LogMonitor::backfill(CompiledQuery& q, const EvalGuard* guard) {
  if (num_records_ == 0) return;
  if (!options_.keep_records) {
    throw Error(
        "LogMonitor: adding a query after events requires keep_records");
  }
  // Replay retained history so the new query's results are indistinguishable
  // from having been registered up front (its historical matches are
  // reported now, in log order).
  for (const LogRecord& l : records_) {
    if (guard != nullptr && guard->check()) {
      throw Error(std::string("LogMonitor: backfill stopped (") +
                  stop_reason_name(guard->reason()) + ")");
    }
    const std::size_t before = matches_.size();
    feed(q, l);
    if (guard != nullptr && matches_.size() > before) {
      guard->add_incidents(matches_.size() - before);
    }
  }
  // Completed instances produce no further matches; drop their state.
  auto& per_wid = state_[q.id];
  for (auto it = per_wid.begin(); it != per_wid.end();) {
    const auto open = next_is_lsn_.find(it->first);
    const bool is_open = open != next_is_lsn_.end() && open->second != 0;
    it = is_open ? std::next(it) : per_wid.erase(it);
  }
}

Wid LogMonitor::begin_instance() {
  // next_is_lsn_ entries: absent = never used, 0 = completed, >= 1 = open.
  while (next_is_lsn_.contains(next_wid_)) ++next_wid_;
  const Wid wid = next_wid_;
  next_is_lsn_.emplace(wid, 1);
  WFLOG_TELEMETRY(t) { t->monitor_open_instances->add(1.0); }
  append_record(wid, start_sym_, {}, {});
  return wid;
}

void LogMonitor::record(Wid wid, std::string_view activity,
                        const NamedAttrs& in, const NamedAttrs& out) {
  const auto open = next_is_lsn_.find(wid);
  if (open == next_is_lsn_.end() || open->second == 0) {
    note_bad_event(wid, activity,
                   "instance " + std::to_string(wid) + " is not open");
    return;
  }
  if (activity == kStartActivity || activity == kEndActivity) {
    note_bad_event(wid, activity,
                   "activity name '" + std::string(activity) +
                       "' is reserved");
    return;
  }
  AttrMap in_map;
  for (const auto& [name, value] : in) {
    in_map.set(interner_.intern(name), value);
  }
  AttrMap out_map;
  for (const auto& [name, value] : out) {
    out_map.set(interner_.intern(name), value);
  }
  append_record(wid, interner_.intern(activity), std::move(in_map),
                std::move(out_map));
}

void LogMonitor::end_instance(Wid wid) {
  auto it = next_is_lsn_.find(wid);
  if (it == next_is_lsn_.end() || it->second == 0) {
    note_bad_event(wid, kEndActivity,
                   "instance " + std::to_string(wid) + " is not open");
    return;
  }
  append_record(wid, end_sym_, {}, {});
  it->second = 0;  // completed
  WFLOG_TELEMETRY(t) { t->monitor_open_instances->add(-1.0); }
  // A completed instance can produce no further matches: drop its state.
  for (auto& [query_id, per_wid] : state_) {
    per_wid.erase(wid);
  }
}

void LogMonitor::note_bad_event(Wid wid, std::string_view activity,
                                std::string reason) {
  ++num_bad_events_;
  WFLOG_TELEMETRY(t) { t->monitor_bad_events_total->inc(); }
  BadEvent event{wid, std::string(activity), std::move(reason)};
  if (options_.on_bad_event) options_.on_bad_event(event);
  switch (options_.bad_event_policy) {
    case BadEventPolicy::kReject:
      throw Error("LogMonitor: " + event.reason);
    case BadEventPolicy::kSkip:
      break;
    case BadEventPolicy::kQuarantine:
      // Bounded ring: retain only the newest quarantine_capacity events so
      // a misbehaving producer cannot grow this without bound.
      if (options_.quarantine_capacity == 0) {
        ++num_quarantine_dropped_;
        break;
      }
      while (quarantined_.size() >= options_.quarantine_capacity) {
        quarantined_.pop_front();
        ++num_quarantine_dropped_;
      }
      quarantined_.push_back(std::move(event));
      break;
  }
}

void LogMonitor::append_record(Wid wid, Symbol activity, AttrMap in,
                               AttrMap out) {
  LogRecord l;
  l.lsn = static_cast<Lsn>(num_records_ + 1);
  l.wid = wid;
  l.is_lsn = next_is_lsn_.at(wid)++;
  l.activity = activity;
  l.in = std::move(in);
  l.out = std::move(out);
  ++num_records_;
  WFLOG_TELEMETRY(t) { t->monitor_records_total->inc(); }

  for (CompiledQuery& q : queries_) {
    feed(q, l);
  }
  if (options_.on_record) options_.on_record(l);
  if (options_.keep_records) records_.push_back(std::move(l));
}

void LogMonitor::feed(CompiledQuery& q, const LogRecord& l) {
  InstanceState& st = state_[q.id][l.wid];
  if (st.full.empty()) st.full.resize(q.nodes.size());

  // Per-node delta lists for this record; all new incidents end at l.is_lsn.
  std::vector<IncidentList> delta(q.nodes.size());

  for (std::size_t i = 0; i < q.nodes.size(); ++i) {
    const CompiledNode& node = q.nodes[i];
    IncidentList& d = delta[i];

    switch (node.op) {
      case PatternOp::kAtom: {
        bool hit = node.negated ? l.activity != node.activity
                                : l.activity == node.activity;
        if (hit && node.negated && !options_.negation_matches_sentinels) {
          hit = l.activity != start_sym_ && l.activity != end_sym_;
        }
        if (hit && node.predicate != nullptr) {
          hit = node.predicate->eval(l, interner_);
        }
        if (hit) d.push_back(Incident::singleton(l.wid, l.is_lsn));
        break;
      }
      case PatternOp::kConsecutive:
      case PatternOp::kSequential: {
        // New right incidents (ending at n) joined with ALL left incidents
        // known so far (old ∪ delta-left: a delta-left incident also ends
        // at n and can never precede a right incident ending at n, so only
        // the old ones matter).
        const bool cons = node.op == PatternOp::kConsecutive;
        for (const Incident& r : delta[node.right]) {
          for (const Incident& lft : st.full[node.left]) {
            const bool ok = cons ? lft.last() + 1 == r.first()
                                 : lft.last() < r.first();
            if (ok) d.push_back(Incident::merged(lft, r));
          }
        }
        canonicalize(d);
        break;
      }
      case PatternOp::kChoice: {
        // Every delta incident contains the brand-new position, so deltas
        // can never duplicate history (whose incidents end earlier); only
        // the two sides' deltas can coincide, which canonicalize removes.
        d = delta[node.left];
        d.insert(d.end(), delta[node.right].begin(),
                 delta[node.right].end());
        canonicalize(d);
        break;
      }
      case PatternOp::kParallel: {
        for (const Incident& a : delta[node.left]) {
          for (const Incident& b : st.full[node.right]) {
            if (Incident::disjoint(a, b)) {
              d.push_back(Incident::merged(a, b));
            }
          }
        }
        for (const Incident& b : delta[node.right]) {
          for (const Incident& a : st.full[node.left]) {
            if (Incident::disjoint(a, b)) {
              d.push_back(Incident::merged(a, b));
            }
          }
          for (const Incident& a : delta[node.left]) {
            if (Incident::disjoint(a, b)) {
              d.push_back(Incident::merged(a, b));
            }
          }
        }
        canonicalize(d);
        break;
      }
    }
  }

  // Commit deltas to node state and report root matches, suppressing any
  // duplicate the root may have produced before (set semantics).
  const std::size_t root = q.nodes.size() - 1;
  for (std::size_t i = 0; i < q.nodes.size(); ++i) {
    for (Incident& o : delta[i]) {
      const bool fresh = insert_unique(st.full[i], o);
      if (fresh && i == root) {
        matches_.push_back(Match{q.id, o});
        ++match_totals_[q.id];
        WFLOG_TELEMETRY(t) { t->monitor_matches_total->inc(); }
      }
    }
  }
}

std::vector<LogMonitor::Match> LogMonitor::drain() {
  std::vector<Match> out;
  out.swap(matches_);
  return out;
}

std::vector<LogMonitor::Match> LogMonitor::drain(QueryId id) {
  std::vector<Match> out;
  std::vector<Match> rest;
  rest.reserve(matches_.size());
  for (Match& m : matches_) {
    (m.query == id ? out : rest).push_back(std::move(m));
  }
  matches_ = std::move(rest);
  return out;
}

LogMonitor::MemoryStats LogMonitor::memory_stats() const noexcept {
  MemoryStats s;
  s.state_queries = state_.size();
  for (const auto& [id, per_wid] : state_) {
    s.state_instances += per_wid.size();
  }
  s.tracked_totals = match_totals_.size();
  s.pending_matches = matches_.size();
  return s;
}

std::size_t LogMonitor::total_matches(QueryId id) const {
  auto it = match_totals_.find(id);
  return it == match_totals_.end() ? 0 : it->second;
}

Log LogMonitor::snapshot() const {
  if (!options_.keep_records) {
    throw Error("LogMonitor: snapshot requires keep_records");
  }
  return Log::from_records(records_, interner_);
}

}  // namespace wflog
