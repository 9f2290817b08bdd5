#include "core/incident.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "test_util.h"

namespace wflog {
namespace {

using testing::inc;
using testing::to_vector;

TEST(IncidentTest, SingletonBasics) {
  const Incident o = Incident::singleton(3, 7);
  EXPECT_EQ(o.wid(), 3u);
  EXPECT_EQ(o.first(), 7u);
  EXPECT_EQ(o.last(), 7u);
  EXPECT_EQ(o.size(), 1u);
  EXPECT_FALSE(o.empty());
}

TEST(IncidentTest, MergedKeepsSortedUnion) {
  const Incident a = inc(1, {2, 5});
  const Incident b = inc(1, {3, 9});
  const Incident m = Incident::merged(a, b);
  EXPECT_EQ(to_vector(m.positions()), (std::vector<IsLsn>{2, 3, 5, 9}));
  EXPECT_EQ(m.first(), 2u);
  EXPECT_EQ(m.last(), 9u);
  EXPECT_EQ(m.wid(), 1u);
}

TEST(IncidentTest, MergedCollapsesSharedPositions) {
  const Incident a = inc(1, {2, 5});
  const Incident b = inc(1, {5, 9});
  const Incident m = Incident::merged(a, b);
  EXPECT_EQ(to_vector(m.positions()), (std::vector<IsLsn>{2, 5, 9}));
}

TEST(IncidentTest, DisjointTrueWhenNoSharing) {
  EXPECT_TRUE(Incident::disjoint(inc(1, {1, 3}), inc(1, {2, 4})));
  EXPECT_TRUE(Incident::disjoint(inc(1, {1, 2}), inc(1, {3, 4})));
}

TEST(IncidentTest, DisjointFalseOnSharedRecord) {
  EXPECT_FALSE(Incident::disjoint(inc(1, {1, 3}), inc(1, {3, 4})));
  EXPECT_FALSE(Incident::disjoint(inc(1, {5}), inc(1, {5})));
}

TEST(IncidentTest, DisjointIntervalFastPath) {
  // Non-overlapping spans short-circuit; result must match a full scan.
  EXPECT_TRUE(Incident::disjoint(inc(1, {1, 2, 3}), inc(1, {10, 11})));
  EXPECT_TRUE(Incident::disjoint(inc(1, {10, 11}), inc(1, {1, 2, 3})));
}

TEST(IncidentTest, EqualityAndOrdering) {
  EXPECT_EQ(inc(1, {2, 4}), inc(1, {2, 4}));
  EXPECT_FALSE(inc(1, {2, 4}) == inc(1, {2, 5}));
  EXPECT_FALSE(inc(1, {2, 4}) == inc(2, {2, 4}));
  EXPECT_LT(inc(1, {2, 4}), inc(1, {2, 5}));
  EXPECT_LT(inc(1, {2}), inc(1, {2, 5}));  // prefix sorts first
  EXPECT_LT(inc(1, {9}), inc(2, {1}));     // wid dominates
}

TEST(IncidentTest, HashConsistentWithEquality) {
  EXPECT_EQ(inc(1, {2, 4}).hash(), inc(1, {2, 4}).hash());
  EXPECT_NE(inc(1, {2, 4}).hash(), inc(1, {2, 5}).hash());
}

TEST(IncidentTest, ToString) {
  EXPECT_EQ(inc(2, {5, 8}).to_string(), "{wid=2: 5, 8}");
}

// ----- inline buffer / spill properties ------------------------------------

constexpr std::size_t kCap = Incident::kInlineCapacity;

std::vector<IsLsn> iota_positions(std::size_t n, IsLsn from = 1) {
  std::vector<IsLsn> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = from + static_cast<IsLsn>(i);
  return out;
}

/// An incident with exactly `positions` (sorted, distinct), built through
/// the public merge API.
Incident of(Wid wid, const std::vector<IsLsn>& positions) {
  Incident o;
  for (const IsLsn p : positions) {
    o = o.empty() ? Incident::singleton(wid, p)
                  : Incident::merged(o, Incident::singleton(wid, p));
  }
  return o;
}

/// The size-boundary cases: empty, singleton, full inline buffer, first
/// spilled size, and a larger spill.
const std::size_t kBoundarySizes[] = {0, 1, kCap, kCap + 1, 2 * kCap + 3};

TEST(IncidentBufferTest, CopyPreservesContentsAndIsIndependent) {
  for (const std::size_t n : kBoundarySizes) {
    const std::vector<IsLsn> pos = iota_positions(n, 3);
    Incident a = of(7, pos);
    ASSERT_EQ(to_vector(a.positions()), pos) << "n=" << n;
    const Incident b(a);
    EXPECT_EQ(b, a) << "n=" << n;
    EXPECT_EQ(to_vector(b.positions()), pos);
    Incident c = Incident::singleton(1, 1);
    c = a;
    EXPECT_EQ(c, a) << "n=" << n;
    // Overwriting the source leaves the copies intact (no shared block).
    a = of(7, iota_positions(n + 2, 50));
    EXPECT_EQ(to_vector(b.positions()), pos) << "n=" << n;
    EXPECT_EQ(to_vector(c.positions()), pos) << "n=" << n;
    EXPECT_EQ(b.heap_bytes(), n > kCap ? n * sizeof(IsLsn) : 0u);
  }
}

TEST(IncidentBufferTest, MoveTransfersAndEmptiesTheSource) {
  for (const std::size_t n : kBoundarySizes) {
    const std::vector<IsLsn> pos = iota_positions(n, 2);
    Incident a = of(4, pos);
    const Incident b(std::move(a));
    EXPECT_EQ(to_vector(b.positions()), pos) << "n=" << n;
    EXPECT_EQ(b.wid(), n == 0 ? 0u : 4u);
    EXPECT_TRUE(a.empty()) << "n=" << n;  // NOLINT(bugprone-use-after-move)
    Incident c = of(9, iota_positions(kCap + 2, 30));  // owns a block
    c = of(4, pos);
    EXPECT_EQ(to_vector(c.positions()), pos) << "n=" << n;
    // A moved-from incident is reusable.
    a = of(4, pos);
    EXPECT_EQ(a, c) << "n=" << n;
  }
}

TEST(IncidentBufferTest, SelfAssignmentIsANoop) {
  for (const std::size_t n : kBoundarySizes) {
    const std::vector<IsLsn> pos = iota_positions(n, 5);
    Incident a = of(3, pos);
    Incident& alias = a;
    a = alias;
    EXPECT_EQ(to_vector(a.positions()), pos) << "copy, n=" << n;
    a = std::move(alias);
    EXPECT_EQ(to_vector(a.positions()), pos) << "move, n=" << n;
  }
}

TEST(IncidentBufferTest, SwapAcrossEverySizePair) {
  for (const std::size_t n : kBoundarySizes) {
    for (const std::size_t m : kBoundarySizes) {
      const std::vector<IsLsn> pn = iota_positions(n, 1);
      const std::vector<IsLsn> pm = iota_positions(m, 40);
      Incident a = of(1, pn);
      Incident b = of(2, pm);
      swap(a, b);
      EXPECT_EQ(to_vector(a.positions()), pm) << n << " <-> " << m;
      EXPECT_EQ(to_vector(b.positions()), pn) << n << " <-> " << m;
      swap(a, a);
      EXPECT_EQ(to_vector(a.positions()), pm) << "self swap, m=" << m;
    }
  }
}

/// A random sorted, distinct position set of size 0..2*kCap+2 drawn from
/// 1..3*kCap, so sizes straddle the spill boundary and sets overlap often.
std::vector<IsLsn> random_positions(Rng& rng) {
  const auto universe = static_cast<IsLsn>(3 * kCap);
  std::vector<IsLsn> out;
  const std::size_t want = rng.uniform(0, 2 * kCap + 2);
  for (IsLsn p = 1; p <= universe && out.size() < want; ++p) {
    if (rng.bernoulli(0.6)) out.push_back(p);
  }
  return out;
}

/// The hash of the former vector-backed Incident, restated on a vector.
std::size_t reference_hash(Wid wid, const std::vector<IsLsn>& positions) {
  std::size_t h = static_cast<std::size_t>(wid) * 0x9e3779b97f4a7c15ULL;
  for (const IsLsn p : positions) h = h * 0x100000001b3ULL + p;
  return h;
}

TEST(IncidentBufferTest, MergedAndDisjointMatchVectorReference) {
  Rng rng(2024);
  for (int round = 0; round < 3000; ++round) {
    const std::vector<IsLsn> pa = random_positions(rng);
    const std::vector<IsLsn> pb = random_positions(rng);
    if (pa.empty() || pb.empty()) continue;  // merged() takes incidents
    const Incident a = of(5, pa);
    const Incident b = of(5, pb);
    std::vector<IsLsn> want;
    std::set_union(pa.begin(), pa.end(), pb.begin(), pb.end(),
                   std::back_inserter(want));
    const Incident m = Incident::merged(a, b);
    EXPECT_EQ(to_vector(m.positions()), want);
    EXPECT_EQ(m.heap_bytes(),
              want.size() > kCap ? want.size() * sizeof(IsLsn) : 0u);
    std::vector<IsLsn> shared;
    std::set_intersection(pa.begin(), pa.end(), pb.begin(), pb.end(),
                          std::back_inserter(shared));
    EXPECT_EQ(Incident::disjoint(a, b), shared.empty());
  }
}

TEST(IncidentBufferTest, OrderEqualityAndHashMatchVectorSemantics) {
  Rng rng(77);
  for (int round = 0; round < 3000; ++round) {
    const Wid wa = rng.uniform(1, 2);
    const Wid wb = rng.uniform(1, 2);
    const std::vector<IsLsn> pa = random_positions(rng);
    const std::vector<IsLsn> pb =
        rng.bernoulli(0.2) ? pa : random_positions(rng);
    const Incident a = of(wa, pa);
    const Incident b = of(wb, pb);
    // An empty incident keeps the default wid 0 (of() never sets it).
    const Wid ka = pa.empty() ? 0 : wa;
    const Wid kb = pb.empty() ? 0 : wb;
    EXPECT_EQ(a < b, std::tie(ka, pa) < std::tie(kb, pb));
    EXPECT_EQ(a == b, std::tie(ka, pa) == std::tie(kb, pb));
    EXPECT_EQ(a.hash(), reference_hash(ka, pa));
  }
}

TEST(IncidentListTest, CanonicalizeSortsAndDedups) {
  IncidentList list{inc(1, {4}), inc(1, {2}), inc(1, {4}), inc(1, {2, 3})};
  canonicalize(list);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], inc(1, {2}));
  EXPECT_EQ(list[1], inc(1, {2, 3}));
  EXPECT_EQ(list[2], inc(1, {4}));
  EXPECT_TRUE(is_canonical(list));
}

TEST(IncidentListTest, IsCanonicalDetectsDisorder) {
  IncidentList list{inc(1, {4}), inc(1, {2})};
  EXPECT_FALSE(is_canonical(list));
  IncidentList dup{inc(1, {2}), inc(1, {2})};
  EXPECT_FALSE(is_canonical(dup));
  EXPECT_TRUE(is_canonical(IncidentList{}));
}

TEST(IncidentSetTest, TotalsAndLookup) {
  IncidentSet set;
  set.add_group(1, {inc(1, {2}), inc(1, {3})});
  set.add_group(4, {inc(4, {2})});
  EXPECT_EQ(set.num_groups(), 2u);
  EXPECT_EQ(set.total(), 3u);
  EXPECT_FALSE(set.empty());
  ASSERT_NE(set.find(4), nullptr);
  EXPECT_EQ(set.find(4)->size(), 1u);
  EXPECT_EQ(set.find(9), nullptr);
}

TEST(IncidentSetTest, FlattenIsCanonical) {
  IncidentSet set;
  set.add_group(1, {inc(1, {2})});
  set.add_group(2, {inc(2, {1}), inc(2, {5})});
  const IncidentList flat = set.flatten();
  EXPECT_EQ(flat.size(), 3u);
  EXPECT_TRUE(is_canonical(flat));
}

TEST(IncidentSetTest, EqualityIgnoresEmptyGroups) {
  IncidentSet a;
  a.add_group(1, {inc(1, {2})});
  IncidentSet b;
  b.add_group(1, {inc(1, {2})});
  b.add_group(2, {});
  EXPECT_TRUE(a == b);
}

TEST(IncidentSetTest, EmptySet) {
  IncidentSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.total(), 0u);
  EXPECT_TRUE(set.flatten().empty());
}

}  // namespace
}  // namespace wflog
