#pragma once

// Shared helpers for the test suite.

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/text.h"
#include "core/evaluator.h"
#include "core/parser.h"
#include "log/builder.h"
#include "log/index.h"

namespace wflog::testing {

/// Builds a log from a compact spec: instances separated by ';', activity
/// names by whitespace. Every instance gets the START sentinel; instances
/// are ENDed unless their last token is "...".
///
///   make_log("a b c ; a c b")      -> two completed instances
///   make_log("a b ...")            -> one incomplete instance
///
/// NOTE: START occupies is-lsn 1, so the first named activity of each
/// instance sits at is-lsn 2.
inline Log make_log(std::string_view spec) {
  LogBuilder b;
  for (std::string_view inst : split(spec, ';')) {
    inst = trim(inst);
    const Wid wid = b.begin_instance();
    bool ended = true;
    for (std::string_view tok : split(inst, ' ')) {
      tok = trim(tok);
      if (tok.empty()) continue;
      if (tok == "...") {
        ended = false;
        break;
      }
      b.append(wid, tok);
    }
    if (ended) b.end_instance(wid);
  }
  return b.build();
}

/// Parses and evaluates in one step, returning the flattened canonical
/// incident list.
inline IncidentList eval(const Log& log, std::string_view pattern,
                         EvalOptions opts = {}) {
  LogIndex index(log);
  Evaluator ev(index, opts);
  return ev.evaluate(*parse_pattern(pattern)).flatten();
}

/// Compact rendering of an incident: "w1:2,4" (wid then is-lsns).
inline std::string brief(const Incident& o) {
  std::string s = "w" + std::to_string(o.wid()) + ":";
  for (std::size_t i = 0; i < o.positions().size(); ++i) {
    if (i != 0) s += ",";
    s += std::to_string(o.positions()[i]);
  }
  return s;
}

inline std::vector<std::string> briefs(const IncidentList& list) {
  std::vector<std::string> out;
  out.reserve(list.size());
  for (const Incident& o : list) out.push_back(brief(o));
  return out;
}

/// Is-lsns viewed through a span (Incident::positions(),
/// LogIndex::occurrences()) as a vector, for EXPECT_EQ against a literal.
inline std::vector<IsLsn> to_vector(std::span<const IsLsn> positions) {
  return {positions.begin(), positions.end()};
}

/// Builds an incident from explicit positions (must be sorted ascending).
inline Incident inc(Wid wid, std::initializer_list<IsLsn> positions) {
  Incident o;
  for (IsLsn p : positions) {
    Incident single = Incident::singleton(wid, p);
    o = o.empty() ? single : Incident::merged(o, single);
  }
  return o;
}

}  // namespace wflog::testing
