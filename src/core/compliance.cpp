#include "core/compliance.h"

#include <algorithm>
#include <sstream>

namespace wflog {

std::string_view to_string(RuleKind kind) {
  switch (kind) {
    case RuleKind::kExistence:
      return "Existence";
    case RuleKind::kAbsence:
      return "Absence";
    case RuleKind::kExactly:
      return "Exactly";
    case RuleKind::kInit:
      return "Init";
    case RuleKind::kLast:
      return "Last";
    case RuleKind::kResponse:
      return "Response";
    case RuleKind::kAlternateResponse:
      return "AlternateResponse";
    case RuleKind::kChainResponse:
      return "ChainResponse";
    case RuleKind::kPrecedence:
      return "Precedence";
    case RuleKind::kChainPrecedence:
      return "ChainPrecedence";
    case RuleKind::kNotSuccession:
      return "NotSuccession";
  }
  return "?";
}

namespace {

Rule make(RuleKind kind, std::string a, std::string b, std::size_t n) {
  Rule r;
  r.kind = kind;
  r.a = std::move(a);
  r.b = std::move(b);
  r.n = n;
  return r;
}

}  // namespace

Rule Rule::existence(std::string a, std::size_t n) {
  return make(RuleKind::kExistence, std::move(a), {}, n);
}
Rule Rule::absence(std::string a, std::size_t n) {
  return make(RuleKind::kAbsence, std::move(a), {}, n);
}
Rule Rule::exactly(std::string a, std::size_t n) {
  return make(RuleKind::kExactly, std::move(a), {}, n);
}
Rule Rule::init(std::string a) {
  return make(RuleKind::kInit, std::move(a), {}, 1);
}
Rule Rule::last(std::string a) {
  return make(RuleKind::kLast, std::move(a), {}, 1);
}
Rule Rule::response(std::string a, std::string b) {
  return make(RuleKind::kResponse, std::move(a), std::move(b), 1);
}
Rule Rule::alternate_response(std::string a, std::string b) {
  return make(RuleKind::kAlternateResponse, std::move(a), std::move(b), 1);
}
Rule Rule::chain_response(std::string a, std::string b) {
  return make(RuleKind::kChainResponse, std::move(a), std::move(b), 1);
}
Rule Rule::precedence(std::string a, std::string b) {
  return make(RuleKind::kPrecedence, std::move(a), std::move(b), 1);
}
Rule Rule::chain_precedence(std::string a, std::string b) {
  return make(RuleKind::kChainPrecedence, std::move(a), std::move(b), 1);
}
Rule Rule::not_succession(std::string a, std::string b) {
  return make(RuleKind::kNotSuccession, std::move(a), std::move(b), 1);
}

std::string Rule::name() const {
  std::string out = std::string(wflog::to_string(kind)) + "(" + a;
  switch (kind) {
    case RuleKind::kExistence:
    case RuleKind::kAbsence:
    case RuleKind::kExactly:
      out += ", " + std::to_string(n);
      break;
    case RuleKind::kResponse:
    case RuleKind::kAlternateResponse:
    case RuleKind::kChainResponse:
    case RuleKind::kPrecedence:
    case RuleKind::kChainPrecedence:
    case RuleKind::kNotSuccession:
      out += ", " + b;
      break;
    case RuleKind::kInit:
    case RuleKind::kLast:
      break;
  }
  return out + ")";
}

namespace {

/// Position of the first violation of `rule` within one instance, or 0.
IsLsn find_violation(const Rule& rule, const LogIndex& index, Wid wid,
                     Symbol a_sym, Symbol b_sym,
                     const ComplianceOptions& options, bool* skipped) {
  const Log& log = index.log();
  // occurrences() returns the empty list for kNoSymbol (an activity the
  // log never saw), which is exactly the right behaviour for every rule.
  const std::span<const IsLsn> a_occ = index.occurrences(wid, a_sym);
  const std::span<const IsLsn> b_occ = index.occurrences(wid, b_sym);
  const std::size_t len = index.instance_length(wid);
  *skipped = false;

  switch (rule.kind) {
    case RuleKind::kExistence:
      if (a_occ.size() < rule.n) return static_cast<IsLsn>(len);  // "at end"
      return 0;
    case RuleKind::kAbsence: {
      if (a_occ.size() >= rule.n) return a_occ[rule.n - 1];
      return 0;
    }
    case RuleKind::kExactly: {
      if (a_occ.size() > rule.n) return a_occ[rule.n];
      if (a_occ.size() < rule.n) return static_cast<IsLsn>(len);
      return 0;
    }
    case RuleKind::kInit: {
      // Position 1 is START; the first business activity sits at 2.
      const LogRecord* first = index.find(wid, 2);
      if (first == nullptr || first->activity != a_sym) return 2;
      return 0;
    }
    case RuleKind::kLast: {
      const LogRecord* last_rec = index.find(
          wid, static_cast<IsLsn>(len));
      const bool completed =
          last_rec != nullptr && last_rec->activity == log.end_symbol();
      if (!completed) {
        if (options.skip_incomplete_for_last) {
          *skipped = true;
          return 0;
        }
        return static_cast<IsLsn>(len);
      }
      const LogRecord* final_act = index.find(
          wid, static_cast<IsLsn>(len - 1));
      if (final_act == nullptr || final_act->activity != a_sym) {
        return static_cast<IsLsn>(len - 1);
      }
      return 0;
    }
    case RuleKind::kResponse: {
      // Violated by the last a when no b follows it.
      if (a_occ.empty()) return 0;
      const IsLsn last_a = a_occ.back();
      if (b_occ.empty() || b_occ.back() <= last_a) return last_a;
      return 0;
    }
    case RuleKind::kAlternateResponse: {
      // Between consecutive a's (and after the final a) there must be a b.
      for (std::size_t i = 0; i < a_occ.size(); ++i) {
        const IsLsn from = a_occ[i];
        const IsLsn to = i + 1 < a_occ.size()
                             ? a_occ[i + 1]
                             : static_cast<IsLsn>(len + 1);
        const auto it =
            std::upper_bound(b_occ.begin(), b_occ.end(), from);
        if (it == b_occ.end() || *it >= to) return from;
      }
      return 0;
    }
    case RuleKind::kChainResponse: {
      for (IsLsn pos : a_occ) {
        const LogRecord* next = index.find(wid, pos + 1);
        if (next == nullptr || next->activity != b_sym) return pos;
      }
      return 0;
    }
    case RuleKind::kPrecedence: {
      // Every b needs an a before it: only the first b can be the witness.
      if (b_occ.empty()) return 0;
      if (a_occ.empty() || a_occ.front() >= b_occ.front()) {
        return b_occ.front();
      }
      return 0;
    }
    case RuleKind::kChainPrecedence: {
      for (IsLsn pos : b_occ) {
        if (pos == 1) return pos;
        const LogRecord* prev = index.find(wid, pos - 1);
        if (prev == nullptr || prev->activity != a_sym) return pos;
      }
      return 0;
    }
    case RuleKind::kNotSuccession: {
      // Violated iff some b follows some a — i.e. pattern `a -> b` has an
      // incident; the witness is the earliest such b.
      if (a_occ.empty() || b_occ.empty()) return 0;
      const auto it =
          std::upper_bound(b_occ.begin(), b_occ.end(), a_occ.front());
      if (it != b_occ.end()) return *it;
      return 0;
    }
  }
  return 0;
}

}  // namespace

ComplianceReport check_compliance(const std::vector<Rule>& rules,
                                  const LogIndex& index,
                                  const ComplianceOptions& options) {
  ComplianceReport report;
  const Log& log = index.log();
  report.results.reserve(rules.size());

  for (const Rule& rule : rules) {
    RuleResult result;
    result.rule = rule;
    const Symbol a_sym = log.activity_symbol(rule.a);
    const Symbol b_sym =
        rule.b.empty() ? kNoSymbol : log.activity_symbol(rule.b);

    for (Wid wid : index.wids()) {
      bool skipped = false;
      const IsLsn witness =
          find_violation(rule, index, wid, a_sym, b_sym, options, &skipped);
      if (skipped) continue;
      ++result.instances_checked;
      if (witness != 0) {
        ++result.instances_violating;
        if (result.samples.size() < options.max_samples_per_rule) {
          result.samples.push_back(Violation{wid, witness});
        }
      }
    }
    report.results.push_back(std::move(result));
  }
  return report;
}

bool ComplianceReport::compliant() const noexcept {
  for (const RuleResult& r : results) {
    if (!r.compliant()) return false;
  }
  return true;
}

std::size_t ComplianceReport::total_violations() const noexcept {
  std::size_t n = 0;
  for (const RuleResult& r : results) n += r.instances_violating;
  return n;
}

std::string ComplianceReport::to_string() const {
  std::size_t name_width = 4;
  for (const RuleResult& r : results) {
    name_width = std::max(name_width, r.rule.name().size());
  }
  std::ostringstream os;
  auto pad = [&os](const std::string& s, std::size_t width) {
    os << s;
    for (std::size_t i = s.size(); i < width + 2; ++i) os << ' ';
  };
  pad("rule", name_width);
  pad("checked", 8);
  os << "violations\n";
  for (const RuleResult& r : results) {
    pad(r.rule.name(), name_width);
    pad(std::to_string(r.instances_checked), 8);
    os << r.instances_violating;
    if (!r.samples.empty()) {
      os << "  (e.g. wid=" << r.samples.front().wid << " @"
         << r.samples.front().position << ")";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace wflog
