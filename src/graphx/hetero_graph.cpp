#include "graphx/hetero_graph.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "common/executor.h"
#include "common/heap_bytes.h"

namespace m3dfl::graphx {

using netlist::FaultSite;
using netlist::GateId;
using netlist::GateType;

namespace {

/// Below this many Topnodes the sweep runs inline (auto thread count);
/// `tiny` has ~40.
constexpr std::size_t kSerialTopnodes = 1024;
/// Largest run of Topnodes a shard claims at once (m3d100k has ~4.2K
/// Topnodes, with cones of very different sizes).
constexpr std::size_t kMaxTopnodeChunk = 16;

}  // namespace

HeteroGraph::HeteroGraph(const Netlist& nl, const SiteTable& sites,
                         std::size_t num_threads)
    : nl_(&nl), sites_(&sites) {
  const std::size_t n = sites.size();

  // --- Circuit-level edges -------------------------------------------------
  // input-pin -> output-pin (branch b of gate g -> stem of g) and
  // net-stem -> net-branch (stem of driver d -> branch (g, k)). Each
  // branch node adds two edges, so 2n bounds the edge count and the 32-bit
  // CSR offsets.
  if (2 * static_cast<std::uint64_t>(n) >
      std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("HeteroGraph: edge count overflows 32 bits");
  }
  std::vector<std::uint32_t> out_deg(n, 0), in_deg(n, 0);
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
  std::vector<std::uint32_t> ofill(out_ptr_.begin(), out_ptr_.end() - 1);
  std::vector<std::uint32_t> ifill(in_ptr_.begin(), in_ptr_.end() - 1);
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

  // --- Top level: per-node Topedge sums via one backward BFS per Topnode --
  // The Topedges are visited here and not kept: a node's Topedges only
  // feed its sums, and the back-trace walks cones on demand. Every in-edge
  // lowers the level, so D_top <= max_level_; MIV stems on a path are two
  // steps apart, so N_MIV <= max_level_ + 1. That bounds the 32-bit sums.
  const auto outs = nl.outputs();
  if (static_cast<std::uint64_t>(outs.size()) * (max_level_ + 1ull) >
      std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(
        "HeteroGraph: Topedge distance sums overflow 32 bits");
  }
  // Sharded over Topnodes: each shard owns its BFS scratch and its sums
  // (shard 0 writes agg_ itself), and the shard sums are added into agg_ at
  // the end. Integer sums make that merge exact in any order, so the graph
  // is the same at any thread count. Scratch is allocated here, before the
  // fan-out, and freed on return.
  agg_.assign(n, TopAgg{});
  const std::size_t shards =
      sweep_shards(num_threads, outs.size(), kSerialTopnodes);
  // Cache-line aligned: `reached` grows on every visit, and neighbouring
  // shards must not share the line that holds its end pointer.
  struct alignas(64) Shard {
    std::vector<std::uint32_t> dist, nmiv;
    std::vector<SiteId> reached;
    std::vector<TopAgg> agg;  // Empty for shard 0, which sums into agg_.
    std::size_t topedges = 0;
  };
  std::vector<Shard> scratch(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    scratch[k].dist.assign(n, 0xffffffffu);
    scratch[k].nmiv.assign(n, 0);
    if (k > 0) scratch[k].agg.assign(n, TopAgg{});
  }
  // The workers read the CSR, the site table and `outs`; the netlist's
  // lazy caches they could race on are not touched (levels() is warm from
  // the node attributes above).
  auto sweep = [&](std::size_t shard, std::size_t lo, std::size_t hi) {
    Shard& sh = scratch[shard];
    std::vector<std::uint32_t>& dist = sh.dist;
    std::vector<std::uint32_t>& nmiv = sh.nmiv;
    std::vector<SiteId>& reached = sh.reached;
    TopAgg* agg = shard == 0 ? agg_.data() : sh.agg.data();
    std::size_t topedges = 0;
    for (std::size_t o = lo; o < hi; ++o) {
      // Breadth-first; `reached` doubles as the FIFO queue and the list of
      // nodes to reset for the next Topnode.
      const SiteId root = sites.stem_of(outs[o]);
      reached.assign(1, root);
      dist[root] = 0;
      nmiv[root] = static_[root].is_miv;
      for (std::size_t i = 0; i < reached.size(); ++i) {
        const SiteId u = reached[i];
        for (SiteId v : in_neighbors(u)) {
          if (dist[v] != 0xffffffffu) continue;
          dist[v] = dist[u] + 1;
          nmiv[v] = nmiv[u] + static_[v].is_miv;
          reached.push_back(v);
        }
      }
      for (SiteId v : reached) {
        TopAgg& a = agg[v];
        const std::uint64_t d = dist[v], m = nmiv[v];
        ++a.count;
        a.sum_d += static_cast<std::uint32_t>(d);
        a.sum_d2 += d * d;
        a.sum_m += static_cast<std::uint32_t>(m);
        a.sum_m2 += m * m;
        dist[v] = 0xffffffffu;  // Reset for the next Topnode.
      }
      topedges += reached.size();
    }
    sh.topedges += topedges;
  };
  for_each_chunk(shards, outs.size(), kMaxTopnodeChunk, "topnode_sweep",
                 sweep);
  for (const Shard& sh : scratch) {
    num_topedges_ += sh.topedges;
    for (std::size_t v = 0; v < sh.agg.size(); ++v) {
      TopAgg& a = agg_[v];
      const TopAgg& b = sh.agg[v];
      a.count += b.count;
      a.sum_d += b.sum_d;
      a.sum_d2 += b.sum_d2;
      a.sum_m += b.sum_m;
      a.sum_m2 += b.sum_m2;
    }
  }
}

std::size_t HeteroGraph::bytes() const {
  return sizeof(*this) + heap_bytes(out_ptr_, in_ptr_, out_col_, in_col_,
                                    static_, agg_, tpat_);
}

void HeteroGraph::bind_transitions(const sim::SimCore& core) {
  core_ = &core;
  tpat_.assign(num_nodes(), 0);
  for (SiteId s = 0; s < num_nodes(); ++s) {
    std::uint32_t count = 0;
    for (sim::Word t : transitions(s)) {
      count += static_cast<std::uint32_t>(std::popcount(t));
    }
    tpat_[s] = count;
  }
}

bool HeteroGraph::transitions_at(SiteId n, std::uint32_t pattern) const {
  const sim::Word t = transitions(n)[pattern / sim::kWordBits];
  return (t >> (pattern % sim::kWordBits)) & 1;
}

}  // namespace m3dfl::graphx
