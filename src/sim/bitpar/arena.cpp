#include "sim/bitpar/arena.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "common/heap_bytes.h"

namespace m3dfl::sim::bitpar {

using netlist::GateId;
using netlist::GateType;

namespace {

OpKind op_of(GateType t) {
  switch (t) {
    case GateType::kInput: return OpKind::kInput;
    case GateType::kBuf:
    case GateType::kInv:
    case GateType::kMiv:
    case GateType::kObs: return OpKind::kPass;
    case GateType::kXor:
    case GateType::kXnor: return OpKind::kXor2;
    case GateType::kAnd:
    case GateType::kNand: return OpKind::kAnd;
    case GateType::kOr:
    case GateType::kNor: return OpKind::kOr;
  }
  return OpKind::kPass;
}

}  // namespace

NetlistArena::NetlistArena(const netlist::Netlist& nl,
                           const netlist::SiteTable& sites)
    : nl_(&nl) {
  const std::size_t n = nl.num_gates();
  const auto& levels = nl.levels();
  num_outputs_ = nl.num_outputs();
  num_levels_ = nl.depth() + 1;

  // Arena order: stable sort by (level, gate id). Ascending arena id is
  // then a topological order and levels are contiguous.
  orig_of_.resize(n);
  for (std::size_t g = 0; g < n; ++g) orig_of_[g] = static_cast<GateId>(g);
  std::stable_sort(orig_of_.begin(), orig_of_.end(),
                   [&levels](GateId a, GateId b) {
                     if (levels[a] != levels[b]) return levels[a] < levels[b];
                     return a < b;
                   });
  arena_of_.resize(n);
  for (std::uint32_t u = 0; u < n; ++u) arena_of_[orig_of_[u]] = u;

  op_.resize(n);
  type_.resize(n);
  level_.resize(n);
  level_off_.assign(num_levels_ + 1, 0);
  for (std::uint32_t u = 0; u < n; ++u) {
    const GateId g = orig_of_[u];
    type_[u] = nl.gate(g).type;
    op_[u] = op_of(type_[u]);
    level_[u] = levels[g];
    ++level_off_[level_[u] + 1];
  }
  for (std::uint32_t l = 0; l < num_levels_; ++l) {
    level_off_[l + 1] += level_off_[l];
  }

  // Fanin/fanout CSR in arena ids (fanin keeps pin order; fanout sorted
  // ascending for deterministic traversal). Every fanin pin is one fanout
  // entry, so the fanin total bounds both offset arrays.
  std::uint64_t pins = 0;
  for (std::size_t g = 0; g < n; ++g) pins += nl.gate(g).fanin.size();
  if (pins > std::numeric_limits<std::uint32_t>::max() ||
      nl.num_outputs() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("NetlistArena: CSR offsets overflow 32 bits");
  }
  fanin_off_.assign(n + 1, 0);
  fanout_off_.assign(n + 1, 0);
  obs_off_.assign(n + 1, 0);
  for (std::uint32_t u = 0; u < n; ++u) {
    const netlist::Gate& gate = nl.gate(orig_of_[u]);
    fanin_off_[u + 1] =
        fanin_off_[u] + static_cast<std::uint32_t>(gate.fanin.size());
    fanout_off_[u + 1] =
        fanout_off_[u] + static_cast<std::uint32_t>(gate.fanout.size());
  }
  fanin_.resize(fanin_off_[n]);
  fanout_.resize(fanout_off_[n]);
  for (std::uint32_t u = 0; u < n; ++u) {
    const netlist::Gate& gate = nl.gate(orig_of_[u]);
    for (std::size_t k = 0; k < gate.fanin.size(); ++k) {
      fanin_[fanin_off_[u] + k] = arena_of_[gate.fanin[k]];
      assert(arena_of_[gate.fanin[k]] < u && "arena order is topological");
    }
    for (std::size_t k = 0; k < gate.fanout.size(); ++k) {
      fanout_[fanout_off_[u] + k] = arena_of_[gate.fanout[k]];
    }
    std::sort(fanout_.begin() + static_cast<std::ptrdiff_t>(fanout_off_[u]),
              fanout_.begin() + static_cast<std::ptrdiff_t>(fanout_off_[u + 1]));
  }

  // Observation points per gate (a gate may feed several scan cells).
  const auto outs = nl.outputs();
  for (std::uint32_t o = 0; o < outs.size(); ++o) {
    ++obs_off_[arena_of_[outs[o]] + 1];
  }
  for (std::size_t u = 0; u < n; ++u) obs_off_[u + 1] += obs_off_[u];
  obs_.resize(obs_off_[n]);
  {
    std::vector<std::uint32_t> cursor(obs_off_.begin(), obs_off_.end() - 1);
    for (std::uint32_t o = 0; o < outs.size(); ++o) {
      obs_[cursor[arena_of_[outs[o]]]++] = o;
    }
  }

  // Reverse reachability to the observation points, the cone-pruning
  // predicate of both engines. Descending arena order is a reverse
  // topological order, so one sweep settles it.
  observable_.assign(n, 0);
  for (std::uint32_t u = static_cast<std::uint32_t>(n); u-- > 0;) {
    std::uint8_t obs = obs_off_[u + 1] != obs_off_[u] ? 1 : 0;
    if (!obs) {
      for (std::uint32_t fo : fanout(u)) obs |= observable_[fo];
    }
    observable_[u] = obs;
  }

  // Fault sites re-based onto arena ids.
  sites_.resize(sites.size());
  for (netlist::SiteId s = 0; s < sites.size(); ++s) {
    const netlist::FaultSite& fs = sites.site(s);
    sites_[s] = {arena_of_[fs.gate], arena_of_[fs.driver], fs.pin};
  }
}

std::size_t NetlistArena::bytes() const {
  return sizeof(*this) +
         heap_bytes(orig_of_, arena_of_, op_, type_, level_, observable_,
                    fanin_off_, fanout_off_, obs_off_, fanin_, fanout_, obs_,
                    level_off_, sites_);
}

}  // namespace m3dfl::sim::bitpar
