#include "core/explain.h"

#include <chrono>
#include <sstream>

#include "obs/trace.h"

namespace wflog {
namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

ExplainResult explain(const Pattern& p, const LogIndex& index,
                      const CostModel& model, const EvalOptions& opts) {
  ExplainResult result;

  // One profiling code path: evaluation runs through the ordinary
  // Evaluator with a NodeTracer emitting a span per node per instance
  // (core/evaluator.h); the report below is an aggregation of those spans.
  obs::Tracer tracer;
  const NodeTracer node_trace(tracer, p);

  // Row skeleton in NodeTracer's pre-order, with the cost model's view.
  struct Walk {
    const CostModel& model;
    std::size_t instances;
    std::vector<NodeProfile>& out;
    void visit(const Pattern& node, std::size_t depth) {
      NodeProfile profile;
      profile.depth = depth;
      profile.op = node.op();
      const Estimate est = model.estimate(node);
      profile.estimated_incidents =
          est.cardinality * static_cast<double>(instances);
      profile.estimated_cost = est.cost;
      out.push_back(std::move(profile));
      if (!node.is_atom()) {
        visit(*node.left(), depth + 1);
        visit(*node.right(), depth + 1);
      }
    }
  };
  Walk{model, index.wids().size(), result.nodes}.visit(p, 0);
  for (std::size_t i = 0; i < result.nodes.size(); ++i) {
    result.nodes[i].label = node_trace.label(i);
  }

  const Evaluator evaluator(index, opts);
  const auto t0 = Clock::now();
  result.incidents = evaluator.evaluate(p, &node_trace);
  result.total_us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count();

  // Fold the spans into the per-node rows: self time (children excluded),
  // output cardinality, and pairs examined, summed over instances.
  const obs::SpanSnapshot snap = tracer.snapshot();
  std::vector<std::uint64_t> child_ns(snap.spans.size(), 0);
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    const obs::SpanRecord& span = snap.spans[i];
    if (span.parent != obs::SpanRecord::kNoParent) {
      child_ns[span.parent] += span.dur_ns;
    }
  }
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    const obs::SpanRecord& span = snap.spans[i];
    std::size_t node = result.nodes.size();
    std::uint64_t incidents = 0, pairs = 0;
    for (const obs::SpanArg& arg : span.args) {
      const auto* v = std::get_if<std::uint64_t>(&arg.value);
      if (v == nullptr) continue;
      if (arg.key == "node") {
        node = static_cast<std::size_t>(*v);
      } else if (arg.key == "incidents") {
        incidents = *v;
      } else if (arg.key == "pairs") {
        pairs = *v;
      }
    }
    if (node >= result.nodes.size()) continue;
    NodeProfile& row = result.nodes[node];
    // Saturate: clock quantization can make nested child durations sum to
    // a hair more than the parent's.
    const std::uint64_t self_ns =
        span.dur_ns > child_ns[i] ? span.dur_ns - child_ns[i] : 0;
    row.actual_us += static_cast<double>(self_ns) / 1000.0;
    row.actual_incidents += incidents;
    row.pairs_examined += pairs;
  }
  return result;
}

std::string ExplainResult::to_string() const {
  std::ostringstream os;
  std::size_t label_width = 4;
  for (const NodeProfile& n : nodes) {
    label_width = std::max(label_width, n.label.size() + 2 * n.depth);
  }
  auto pad = [&os](const std::string& s, std::size_t width) {
    os << s;
    for (std::size_t i = s.size(); i < width + 2; ++i) os << ' ';
  };
  pad("node", label_width);
  pad("actual", 10);
  pad("estimated", 10);
  pad("self-us", 10);
  os << "pairs\n";
  for (const NodeProfile& n : nodes) {
    pad(std::string(2 * n.depth, ' ') + n.label, label_width);
    pad(std::to_string(n.actual_incidents), 10);
    {
      std::ostringstream tmp;
      tmp.precision(1);
      tmp << std::fixed << n.estimated_incidents;
      pad(tmp.str(), 10);
    }
    {
      std::ostringstream tmp;
      tmp.precision(1);
      tmp << std::fixed << n.actual_us;
      pad(tmp.str(), 10);
    }
    if (n.op == PatternOp::kAtom) {
      os << "-";
    } else {
      os << n.pairs_examined;
    }
    os << "\n";
  }
  std::ostringstream total;
  total.precision(1);
  total << std::fixed << total_us;
  os << "total: " << incidents.total() << " incident(s) in " << total.str()
     << " us\n";
  return os.str();
}

}  // namespace wflog
