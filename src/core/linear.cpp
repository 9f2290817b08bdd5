#include "core/linear.h"

#include <algorithm>

namespace wflog {

namespace {

/// Appends the chain steps of `p` in temporal order. `op_from_parent` is
/// the operator that attaches this subtree to the atom preceding it.
bool flatten(const Pattern& p, bool consecutive_join, LinearChain& out) {
  if (p.is_atom()) {
    if (p.negated() || p.predicate() != nullptr) return false;
    out.push_back(LinearStep{p.activity(), consecutive_join});
    return true;
  }
  const bool is_cons = p.op() == PatternOp::kConsecutive;
  if (!is_cons && p.op() != PatternOp::kSequential) return false;
  // The operator binds the LAST atom of the left subtree to the FIRST atom
  // of the right subtree; joins inside the subtrees keep their own ops.
  return flatten(*p.left(), consecutive_join, out) &&
         flatten(*p.right(), is_cons, out);
}

}  // namespace

std::optional<LinearChain> as_linear_chain(const Pattern& p) {
  LinearChain chain;
  if (!flatten(p, /*consecutive_join=*/false, chain)) return std::nullopt;
  return chain;
}

std::size_t count_linear(const LinearChain& chain, const LogIndex& index,
                         Wid wid) {
  if (chain.empty()) return 0;
  const Log& log = index.log();

  // ways[j] = number of chain prefixes ending exactly at occurrence j of
  // the current atom. Rolling DP over the chain.
  const Symbol first_sym = log.activity_symbol(chain[0].activity);
  if (first_sym == kNoSymbol) return 0;
  std::span<const IsLsn> occ = index.occurrences(wid, first_sym);
  std::vector<std::size_t> ways(occ.size(), 1);

  for (std::size_t i = 1; i < chain.size(); ++i) {
    const Symbol sym = log.activity_symbol(chain[i].activity);
    if (sym == kNoSymbol) return 0;
    const std::span<const IsLsn> prev_occ = occ;
    const std::span<const IsLsn> cur_occ = index.occurrences(wid, sym);
    if (cur_occ.empty()) return 0;
    std::vector<std::size_t> cur_ways(cur_occ.size(), 0);

    if (chain[i].consecutive) {
      // Match prev position p with current position p+1: merge walk.
      std::size_t a = 0;
      for (std::size_t b = 0; b < cur_occ.size(); ++b) {
        while (a < prev_occ.size() && prev_occ[a] + 1 < cur_occ[b]) ++a;
        if (a < prev_occ.size() && prev_occ[a] + 1 == cur_occ[b]) {
          cur_ways[b] = ways[a];
        }
      }
    } else {
      // Sequential: cur_ways[b] = sum of ways over prev positions < cur
      // position. Prefix sums + merge walk.
      std::size_t a = 0;
      std::size_t prefix = 0;
      for (std::size_t b = 0; b < cur_occ.size(); ++b) {
        while (a < prev_occ.size() && prev_occ[a] < cur_occ[b]) {
          prefix += ways[a];
          ++a;
        }
        cur_ways[b] = prefix;
      }
    }
    occ = cur_occ;
    ways = std::move(cur_ways);
  }

  std::size_t total = 0;
  for (std::size_t w : ways) total += w;
  return total;
}

std::size_t count_linear(const LinearChain& chain, const LogIndex& index) {
  std::size_t total = 0;
  for (Wid wid : index.wids()) total += count_linear(chain, index, wid);
  return total;
}

bool exists_linear(const LinearChain& chain, const LogIndex& index,
                   Wid wid) {
  if (chain.empty()) return false;
  const Log& log = index.log();

  // Greedy earliest match: the chain is satisfiable iff picking the
  // earliest feasible occurrence at each step succeeds.
  IsLsn prev = 0;  // position of the previous atom's match (0 = none yet)
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const Symbol sym = log.activity_symbol(chain[i].activity);
    if (sym == kNoSymbol) return false;
    const std::span<const IsLsn> occ = index.occurrences(wid, sym);
    if (i > 0 && chain[i].consecutive) {
      // Exactly prev+1 must be an occurrence. Greediness is still safe:
      // earliest-feasible for the prefix dominates any other choice for
      // sequential joins; for a consecutive join a failure here only rules
      // out THIS prefix assignment, so fall back to trying successively
      // later positions for the previous atom. Handle via binary search
      // retry loop below.
      if (!std::binary_search(occ.begin(), occ.end(), prev + 1)) {
        return count_linear(chain, index, wid) > 0;  // rare fallback
      }
      prev = prev + 1;
      continue;
    }
    auto it = std::upper_bound(occ.begin(), occ.end(), prev);
    if (it == occ.end()) return false;
    prev = *it;
  }
  return true;
}

bool exists_linear(const LinearChain& chain, const LogIndex& index) {
  for (Wid wid : index.wids()) {
    if (exists_linear(chain, index, wid)) return true;
  }
  return false;
}

}  // namespace wflog
