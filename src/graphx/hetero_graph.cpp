#include "graphx/hetero_graph.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <queue>

namespace m3dfl::graphx {

using netlist::FaultSite;
using netlist::GateId;
using netlist::GateType;

HeteroGraph::HeteroGraph(const Netlist& nl, const SiteTable& sites)
    : nl_(&nl), sites_(&sites) {
  const std::size_t n = sites.size();

  // --- Circuit-level edges -------------------------------------------------
  // input-pin -> output-pin (branch b of gate g -> stem of g) and
  // net-stem -> net-branch (stem of driver d -> branch (g, k)).
  std::vector<std::size_t> out_deg(n, 0), in_deg(n, 0);
  auto for_each_edge = [&](auto&& fn) {
    for (SiteId s = 0; s < n; ++s) {
      const FaultSite& fs = sites.site(s);
      if (fs.is_stem()) continue;
      const SiteId stem = sites.stem_of(fs.gate);
      const SiteId driver_stem = sites.stem_of(fs.driver);
      fn(s, stem);         // input pin -> output pin of the same gate
      fn(driver_stem, s);  // stem -> branch
    }
  };
  for_each_edge([&](SiteId a, SiteId b) {
    ++out_deg[a];
    ++in_deg[b];
  });
  out_ptr_.assign(n + 1, 0);
  in_ptr_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    out_ptr_[i + 1] = out_ptr_[i] + out_deg[i];
    in_ptr_[i + 1] = in_ptr_[i] + in_deg[i];
  }
  out_col_.resize(out_ptr_[n]);
  in_col_.resize(in_ptr_[n]);
  std::vector<std::size_t> ofill(out_ptr_.begin(), out_ptr_.end() - 1);
  std::vector<std::size_t> ifill(in_ptr_.begin(), in_ptr_.end() - 1);
  for_each_edge([&](SiteId a, SiteId b) {
    out_col_[ofill[a]++] = b;
    in_col_[ifill[b]++] = a;
  });

  // --- Static node attributes ---------------------------------------------
  static_.resize(n);
  const auto& gate_levels = nl.levels();
  for (SiteId s = 0; s < n; ++s) {
    const FaultSite& fs = sites.site(s);
    NodeStatic& st = static_[s];
    const std::uint32_t gl = gate_levels[fs.gate];
    st.level = fs.is_stem() ? 2 * gl : (gl > 0 ? 2 * gl - 1 : 0);
    st.tier = static_cast<std::uint8_t>(sites.tier_of(s, nl));
    st.is_output_pin = fs.is_stem() ? 1 : 0;
    st.is_miv = sites.is_miv_site(s, nl) ? 1 : 0;
    max_level_ = std::max(max_level_, st.level);
  }
  for (SiteId s = 0; s < n; ++s) {
    std::uint8_t c = 0;
    for (SiteId m : out_neighbors(s)) c |= static_[m].is_miv;
    for (SiteId m : in_neighbors(s)) c |= static_[m].is_miv;
    static_[s].connects_miv = c;
  }

  // --- Top level: Topnodes + Topedges via backward BFS ---------------------
  const auto outs = nl.outputs();
  topedge_ptr_.assign(outs.size() + 1, 0);
  agg_.assign(n, TopAgg{});

  std::vector<std::uint32_t> dist(n, 0xffffffffu);
  std::vector<std::uint16_t> nmiv(n, 0);
  std::vector<SiteId> frontier, next, reached;
  // First pass estimates pool size, second fills; a single pass with
  // push_back is simpler and the reallocation cost is negligible.
  for (std::size_t o = 0; o < outs.size(); ++o) {
    const SiteId root = sites.stem_of(outs[o]);
    reached.clear();
    frontier.clear();
    frontier.push_back(root);
    dist[root] = 0;
    nmiv[root] = static_[root].is_miv;
    reached.push_back(root);
    std::uint32_t d = 0;
    while (!frontier.empty()) {
      next.clear();
      ++d;
      for (SiteId u : frontier) {
        for (SiteId v : in_neighbors(u)) {
          if (dist[v] != 0xffffffffu) continue;
          dist[v] = d;
          nmiv[v] = static_cast<std::uint16_t>(nmiv[u] + static_[v].is_miv);
          next.push_back(v);
          reached.push_back(v);
        }
      }
      frontier.swap(next);
    }
    for (SiteId v : reached) {
      topedge_pool_.push_back(
          {v, static_cast<std::uint16_t>(std::min(dist[v], 0xffffu)),
           nmiv[v]});
      TopAgg& a = agg_[v];
      ++a.count;
      a.sum_d += dist[v];
      a.sum_d2 += static_cast<double>(dist[v]) * dist[v];
      a.sum_m += nmiv[v];
      a.sum_m2 += static_cast<double>(nmiv[v]) * nmiv[v];
      dist[v] = 0xffffffffu;  // Reset for the next Topnode.
    }
    topedge_ptr_[o + 1] = topedge_pool_.size();
  }
}

void HeteroGraph::bind_transitions(const sim::SimCore& core) {
  core_ = &core;
  tpat_.assign(num_nodes(), 0);
  for (SiteId s = 0; s < num_nodes(); ++s) {
    std::uint32_t count = 0;
    for (sim::Word t : core.transition(sites_->site(s).driver)) {
      count += static_cast<std::uint32_t>(std::popcount(t));
    }
    tpat_[s] = count;
  }
}

bool HeteroGraph::transitions_at(SiteId n, std::uint32_t pattern) const {
  assert(core_);
  const sim::Word t =
      core_->transition(sites_->site(n).driver)[pattern / sim::kWordBits];
  return (t >> (pattern % sim::kWordBits)) & 1;
}

}  // namespace m3dfl::graphx
