#include "core/evaluator.h"

#include "core/linear.h"
#include "core/operators.h"
#include "core/operators_opt.h"

namespace wflog {
namespace {

/// Render label shared by NodeTracer spans and explain() rows.
std::string node_label(const Pattern& p) {
  if (!p.is_atom()) return "[" + std::string(op_token(p.op())) + "]";
  std::string label = (p.negated() ? "!" : "") + p.activity();
  if (p.predicate() != nullptr) {
    label += "[" + p.predicate()->to_string() + "]";
  }
  return label;
}

}  // namespace

NodeTracer::NodeTracer(obs::Tracer& tracer, const Pattern& root)
    : tracer_(&tracer) {
  // Pre-order walk, matching explain()'s row order.
  struct Frame {
    const Pattern* node;
    std::size_t depth;
  };
  std::vector<Frame> stack{{&root, 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    preorder_.emplace(f.node,
                      static_cast<std::uint32_t>(labels_.size()));
    labels_.push_back(node_label(*f.node));
    depths_.push_back(f.depth);
    if (!f.node->is_atom()) {
      // Right pushed first so left pops (and numbers) first.
      stack.push_back({f.node->right().get(), f.depth + 1});
      stack.push_back({f.node->left().get(), f.depth + 1});
    }
  }
}

obs::Tracer::Span NodeTracer::open(const Pattern& p) const {
  const auto it = preorder_.find(&p);
  if (it == preorder_.end()) {
    // Not a node of the traced tree (e.g. a different query of the same
    // batch): stay silent rather than mislabel.
    return obs::Tracer::Span{};
  }
  obs::Tracer::Span span = tracer_->span(labels_[it->second]);
  span.arg("node", static_cast<std::uint64_t>(it->second));
  return span;
}

EvalPlan::EvalPlan(const Pattern& root, const Log& log,
                   const SlotMap* slots) {
  add(root, log, slots);
}

std::uint32_t EvalPlan::add(const Pattern& p, const Log& log,
                            const SlotMap* slots) {
  const auto n = static_cast<std::uint32_t>(nodes_.size());
  std::uint32_t slot = SubpatternMemo::kNoSlot;
  if (slots != nullptr) {
    const auto it = slots->find(&p);
    if (it != slots->end()) slot = it->second;
  }
  const bool choice = p.op() == PatternOp::kChoice;
  nodes_.push_back(
      {&p,
       p.is_atom() ? log.activity_symbol(p.activity()) : kNoSymbol, slot, 0,
       choice && needs_choice_dedup(*p.left(), *p.right())});
  if (!p.is_atom()) {
    add(*p.left(), log, slots);
    const std::uint32_t right = add(*p.right(), log, slots);
    nodes_[n].right = right;
  }
  return n;
}

Evaluator::Evaluator(const LogIndex& index, EvalOptions opts)
    : index_(&index), opts_(opts) {}

IncidentList Evaluator::eval_atom(const InstanceContext& ctx,
                                  const EvalPlan::Node& node) const {
  const Pattern& p = *node.pattern;
  const Log& log = index_->log();
  const Symbol sym = node.symbol;
  const Predicate* pred = p.predicate().get();
  const InstanceView& inst = ctx.instance;
  IncidentList out;

  // Predicate evaluation per occurrence can be arbitrarily slow (string
  // compares over long values); poll the guard so a deadline bounds the
  // filtering too, not just the operator combination above it.
  GuardPoll poll{ctx.guard};

  if (!p.negated()) {
    // An activity name never interned can't occur in the log.
    if (sym == kNoSymbol) return out;
    const std::span<const IsLsn> occ = inst.occurrences(sym);
    out.reserve(occ.size());
    for (IsLsn n : occ) {
      if (poll.should_stop()) break;
      if (pred != nullptr) {
        const LogRecord* l = inst.find(n);
        if (l == nullptr || !pred->eval(*l, log.interner())) continue;
      }
      out.push_back(Incident::singleton(ctx.wid, n));
    }
    return out;
  }

  // ¬t: scan the instance's activity column; records are only touched
  // when a predicate needs their attributes.
  const std::span<const Symbol> symbols = inst.symbols();
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    const Symbol a = symbols[i];
    if (a == sym) continue;
    if (poll.should_stop()) break;
    if (!opts_.negation_matches_sentinels &&
        (a == log.start_symbol() || a == log.end_symbol())) {
      continue;
    }
    if (pred == nullptr || pred->eval(*inst.records()[i], log.interner())) {
      out.push_back(Incident::singleton(ctx.wid, static_cast<IsLsn>(i + 1)));
    }
  }
  return out;
}

namespace {

std::uint64_t incident_bytes(const IncidentList& list) {
  std::uint64_t bytes = 0;
  for (const Incident& o : list) bytes += sizeof(Incident) + o.heap_bytes();
  return bytes;
}

/// Operators whose result is empty whenever their left operand is.
bool empty_if_left_empty(PatternOp op) {
  return op == PatternOp::kConsecutive || op == PatternOp::kSequential ||
         op == PatternOp::kParallel;
}

}  // namespace

Evaluator::NodeResult Evaluator::eval_node(const InstanceContext& ctx,
                                           std::uint32_t n) const {
  const EvalGuard* guard = ctx.guard;
  // A tripped guard collapses the whole subtree to an empty list — the
  // cheapest sound partial answer (the caller flags the result).
  if (guard != nullptr && guard->check()) return {};

  const EvalPlan::Node& node = ctx.plan.nodes_[n];
  const Pattern& p = *node.pattern;

  // Profiling span (inert unless a NodeTracer is threaded through): opened
  // before the memo check so cache hits are visible in traces too.
  obs::Tracer::Span span;
  if (ctx.trace != nullptr) span = ctx.trace->open(p);

  // Memo check first: a hit replaces the whole subtree's evaluation,
  // atoms included ("atomic occurrence lists are computed once").
  const std::uint32_t slot =
      ctx.memo != nullptr ? node.slot : SubpatternMemo::kNoSlot;
  if (slot != SubpatternMemo::kNoSlot) {
    if (const IncidentList* cached = ctx.memo->lookup(slot)) {
      ++counters_.cache_hits;
      if (span.active()) {
        span.arg("cache_hit", std::uint64_t{1});
        span.arg("incidents", static_cast<std::uint64_t>(cached->size()));
      }
      return {{}, cached};
    }
  }

  NodeResult result;
  IncidentList& out = result.owned;
  std::uint64_t pairs = 0;
  if (p.is_atom()) {
    out = eval_atom(ctx, node);
  } else {
    const NodeResult left = eval_node(ctx, n + 1);
    // ⊙, ≫ and ⊕ are empty when their left operand is, so the right
    // subtree is skipped — except under a NodeTracer, whose per-node rows
    // (explain's actuals) must cover every node in every instance.
    const bool skip_right = left.list().empty() && ctx.trace == nullptr &&
                            empty_if_left_empty(p.op());
    const NodeResult right =
        skip_right ? NodeResult{} : eval_node(ctx, node.right);
    const IncidentList& l = left.list();
    const IncidentList& r = right.list();
    ++counters_.operator_nodes_evaluated;

    const bool opt = opts_.use_optimized_operators;
    switch (p.op()) {
      case PatternOp::kAtom:
        break;  // unreachable
      case PatternOp::kConsecutive:
        pairs = l.size() * r.size();
        out = opt ? eval_consecutive_opt(l, r, guard)
                  : eval_consecutive_naive(l, r, guard);
        break;
      case PatternOp::kSequential:
        pairs = l.size() * r.size();
        out = opt ? eval_sequential_opt(l, r, guard)
                  : eval_sequential_naive(l, r, guard);
        break;
      case PatternOp::kChoice: {
        const bool dedup = node.choice_dedup;
        pairs = dedup ? l.size() * r.size() : l.size() + r.size();
        out = opt ? eval_choice_opt(l, r, dedup, guard)
                  : eval_choice_naive(l, r, dedup, guard);
        break;
      }
      case PatternOp::kParallel:
        pairs = l.size() * r.size();
        out = opt ? eval_parallel_opt(l, r, guard)
                  : eval_parallel_naive(l, r, guard);
        break;
    }
    counters_.pairs_examined += pairs;
    if (opts_.max_span != 0) {
      // Span only grows upward through the tree, so pruning here is sound.
      std::erase_if(out, [this](const Incident& o) {
        return o.last() - o.first() >= opts_.max_span;
      });
    }
    counters_.incidents_emitted += out.size();
  }
  if (guard != nullptr) guard->add_incidents(out.size());
  if (span.active()) {
    span.arg("incidents", static_cast<std::uint64_t>(out.size()));
    if (!p.is_atom()) span.arg("pairs", pairs);
  }
  // Never memoize under a tripped guard: the list may be truncated, and a
  // later lookup would mistake it for the complete list — silently
  // corrupting any query of the batch that shares the slot.
  if (slot != SubpatternMemo::kNoSlot &&
      (guard == nullptr || !guard->stopped())) {
    ++counters_.cache_misses;
    counters_.cache_bytes += incident_bytes(out);
    result.borrowed = &ctx.memo->store(slot, std::move(out));
  }
  return result;
}

IncidentList Evaluator::run_instance(const InstanceContext& ctx) const {
  NodeResult root = eval_node(ctx, 0);
  return root.borrowed != nullptr ? *root.borrowed : std::move(root.owned);
}

IncidentList Evaluator::evaluate_instance(const EvalPlan& plan,
                                          std::size_t instance,
                                          SubpatternMemo* memo,
                                          const NodeTracer* trace,
                                          const EvalGuard* guard) const {
  return run_instance({plan, index_->view_at(instance),
                       index_->wids()[instance], memo, trace, guard});
}

IncidentList Evaluator::evaluate_instance(const Pattern& p, Wid wid,
                                          SubpatternMemo* memo,
                                          const NodeTracer* trace,
                                          const EvalGuard* guard) const {
  const EvalPlan plan(p, index_->log(),
                      memo != nullptr ? &memo->slots() : nullptr);
  return run_instance({plan, index_->view(wid), wid, memo, trace, guard});
}

IncidentSet Evaluator::evaluate(const Pattern& p, const NodeTracer* trace,
                                const EvalGuard* guard) const {
  const EvalPlan plan(p, index_->log());
  const std::vector<Wid>& wids = index_->wids();
  IncidentSet result;
  for (std::size_t i = 0; i < wids.size(); ++i) {
    if (guard != nullptr && guard->stopped()) break;
    IncidentList incidents = evaluate_instance(plan, i, nullptr, trace, guard);
    if (!incidents.empty()) result.add_group(wids[i], std::move(incidents));
  }
  return result;
}

bool Evaluator::exists(const Pattern& p) const {
  if (opts_.use_linear_fast_path && opts_.max_span == 0) {
    if (const auto chain = as_linear_chain(p)) {
      return exists_linear(*chain, *index_);
    }
  }
  const EvalPlan plan(p, index_->log());
  for (std::size_t i = 0; i < index_->wids().size(); ++i) {
    if (!evaluate_instance(plan, i).empty()) return true;
  }
  return false;
}

std::size_t Evaluator::count(const Pattern& p) const {
  if (opts_.use_linear_fast_path && opts_.max_span == 0) {
    if (const auto chain = as_linear_chain(p)) {
      return count_linear(*chain, *index_);
    }
  }
  const EvalPlan plan(p, index_->log());
  std::size_t n = 0;
  for (std::size_t i = 0; i < index_->wids().size(); ++i) {
    n += evaluate_instance(plan, i).size();
  }
  return n;
}

}  // namespace wflog
