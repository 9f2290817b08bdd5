#include "core/aggregate.h"

#include <algorithm>

#include "core/shard.h"

namespace wflog {

std::vector<InstanceCount> incidents_per_instance(const IncidentSet& set) {
  std::vector<InstanceCount> out;
  out.reserve(set.groups().size());
  for (const IncidentSet::Group& g : set.groups()) {
    if (!g.incidents.empty()) {
      out.push_back(InstanceCount{g.wid, g.incidents.size()});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const InstanceCount& a, const InstanceCount& b) {
              return a.wid < b.wid;
            });
  return out;
}

std::size_t instances_with_match(const IncidentSet& set) {
  std::size_t n = 0;
  for (const IncidentSet::Group& g : set.groups()) {
    if (!g.incidents.empty()) ++n;
  }
  return n;
}

namespace {

/// The grouping value for one instance, or null when the instance never
/// executed the key activity or the record lacks the attribute.
Value group_value(const LogIndex& index, Wid wid, const GroupKey& key,
                  Symbol activity_sym, Symbol attr_sym) {
  if (activity_sym == kNoSymbol || attr_sym == kNoSymbol) return Value{};
  const std::span<const IsLsn> occ = index.occurrences(wid, activity_sym);
  if (occ.empty()) return Value{};
  const LogRecord* l = index.find(wid, occ.front());
  if (l == nullptr) return Value{};
  const Value* v = nullptr;
  switch (key.sel) {
    case MapSel::kIn:
      v = l->in.get(attr_sym);
      break;
    case MapSel::kOut:
      v = l->out.get(attr_sym);
      break;
    case MapSel::kAny:
      v = l->out.get(attr_sym);
      if (v == nullptr) v = l->in.get(attr_sym);
      break;
  }
  return v == nullptr ? Value{} : *v;
}

}  // namespace

std::vector<GroupCount> group_by_attribute(const IncidentSet& set,
                                           const LogIndex& index,
                                           const GroupKey& key,
                                           const EvalGuard* guard) {
  const Interner& interner = index.log().interner();
  const Symbol activity_sym = interner.find(key.activity);
  const Symbol attr_sym = interner.find(key.attr);

  std::vector<GroupCount> groups;
  for (const IncidentSet::Group& g : set.groups()) {
    if (guard != nullptr && guard->check()) break;
    if (g.incidents.empty()) continue;
    const Value v = group_value(index, g.wid, key, activity_sym, attr_sym);
    auto it = std::find_if(
        groups.begin(), groups.end(),
        [&v](const GroupCount& gc) { return gc.key == v; });
    if (it == groups.end()) {
      groups.push_back(GroupCount{v, 0, 0});
      it = groups.end() - 1;
    }
    ++it->instances;
    it->incidents += g.incidents.size();
  }
  std::sort(groups.begin(), groups.end(),
            [](const GroupCount& a, const GroupCount& b) {
              return a.key.compare(b.key) < 0;
            });
  return groups;
}

std::vector<GroupCount> combine_groups(
    std::vector<std::vector<GroupCount>> partials) {
  std::vector<GroupCount> merged;
  for (std::vector<GroupCount>& partial : partials) {
    for (GroupCount& g : partial) {
      auto it = std::find_if(
          merged.begin(), merged.end(),
          [&g](const GroupCount& m) { return m.key == g.key; });
      if (it == merged.end()) {
        merged.push_back(std::move(g));
      } else {
        it->instances += g.instances;
        it->incidents += g.incidents;
      }
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const GroupCount& a, const GroupCount& b) {
              return a.key.compare(b.key) < 0;
            });
  return merged;
}

std::vector<GroupCount> group_by_attribute_sharded(const IncidentSet& set,
                                                   const LogIndex& index,
                                                   const GroupKey& key,
                                                   std::size_t num_shards,
                                                   ShardPool* pool) {
  // Scatter: each shard folds the groups whose wid hashes to it. The
  // incident-set groups are wid-disjoint, so the slices partition `set`
  // and the combine below is exact, not approximate.
  const std::size_t k = std::max<std::size_t>(1, num_shards);
  std::vector<std::vector<GroupCount>> partials(k);
  const auto fold_shard = [&](std::size_t s) {
    IncidentSet slice;
    for (const IncidentSet::Group& g : set.groups()) {
      if (shard_of_wid(g.wid, k) == s && !g.incidents.empty()) {
        slice.add_group(g.wid, g.incidents);
      }
    }
    partials[s] = group_by_attribute(slice, index, key);
  };
  if (pool != nullptr) {
    pool->run(k, fold_shard);
  } else {
    for (std::size_t s = 0; s < k; ++s) fold_shard(s);
  }
  return combine_groups(std::move(partials));
}

std::string render_groups(const std::vector<GroupCount>& groups) {
  std::size_t key_width = 5;  // "group"
  for (const GroupCount& g : groups) {
    key_width = std::max(key_width, g.key.to_string().size());
  }
  std::string out = "group";
  out.append(key_width - 5, ' ');
  out += "  instances  incidents\n";
  for (const GroupCount& g : groups) {
    const std::string k = g.key.to_string();
    out += k;
    out.append(key_width - k.size(), ' ');
    out += "  " + std::to_string(g.instances);
    out.append(g.instances < 10 ? 8 : 7, ' ');
    out += std::to_string(g.incidents) + "\n";
  }
  return out;
}

}  // namespace wflog
