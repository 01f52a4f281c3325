// Reproduces Table I of the paper: the features of the heterogeneous
// graph, demonstrated on a live benchmark build (every feature is computed,
// not just listed).

#include <cstdio>
#include <string>
#include <vector>

#include "common/table.h"
#include "eval/benchmarks.h"

namespace {

using m3dfl::graphx::HeteroGraph;
using m3dfl::netlist::SiteId;

/// The Topedge from Topnode 0 to the farthest node of its fan-in cone, by
/// backward BFS (the graph keeps only per-node Topedge sums).
struct TopedgeSample {
  SiteId node = 0;
  std::uint32_t dist = 0;  ///< D_top.
  std::uint32_t nmiv = 0;  ///< N_MIV.
};

TopedgeSample farthest_topedge(const HeteroGraph& g) {
  const SiteId root = g.topnode_root(0);
  std::vector<std::uint32_t> dist(g.num_nodes(), 0xffffffffu);
  std::vector<std::uint32_t> nmiv(g.num_nodes(), 0);
  std::vector<SiteId> queue{root};
  dist[root] = 0;
  nmiv[root] = g.node(root).is_miv;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    for (SiteId v : g.in_neighbors(queue[i])) {
      if (dist[v] != 0xffffffffu) continue;
      dist[v] = dist[queue[i]] + 1;
      nmiv[v] = nmiv[queue[i]] + g.node(v).is_miv;
      queue.push_back(v);
    }
  }
  const SiteId far = queue.back();
  return {far, dist[far], nmiv[far]};
}

}  // namespace

int main() {
  using namespace m3dfl;
  std::puts("Table I: features in a heterogeneous graph");

  const eval::BenchmarkSpec spec = eval::tiny_spec();
  const eval::Design& d = eval::cached_design(spec, eval::Config::kSyn1);
  const graphx::HeteroGraph& g = *d.graph;

  // Sample values from the live graph prove each feature is materialized.
  const netlist::SiteId node = g.num_nodes() / 2;
  const auto& st = g.node(node);
  const auto& agg = g.top_agg(node);
  const TopedgeSample topedge = farthest_topedge(g);
  const std::string edge_example =
      "Topnode 0 -> node " + std::to_string(topedge.node) + ": ";

  TablePrinter t;
  t.set_header({"Symbol", "Granularity", "Object", "Description",
                "Example (node " + std::to_string(node) + ")"});
  t.add_row({"N_fi", "Circuit-level", "Node", "Number of fan-in edges",
             std::to_string(g.in_neighbors(node).size())});
  t.add_row({"N_fo", "Circuit-level", "Node", "Number of fan-out edges",
             std::to_string(g.out_neighbors(node).size())});
  t.add_row({"T_pat", "Circuit-level", "Node",
             "Transitions with TDF patterns", std::to_string(g.tpat(node))});
  t.add_row({"N_top", "Circuit-level", "Node",
             "Number of fan-in Topedges", std::to_string(agg.count)});
  t.add_row({"Loc", "Circuit-level", "Node", "Tier-level location",
             st.tier ? "top" : "bottom"});
  t.add_row({"Lvl", "Circuit-level", "Node", "Level in topological order",
             std::to_string(st.level)});
  t.add_row({"Out", "Circuit-level", "Node", "Whether it is a gate output",
             st.is_output_pin ? "yes" : "no"});
  t.add_row({"MIV", "Circuit-level", "Node",
             "Whether it connects to an MIV", st.connects_miv ? "yes" : "no"});
  t.add_row({"D_top", "Top-level", "Edge",
             "Shortest distance between both ends",
             edge_example + std::to_string(topedge.dist)});
  t.add_row({"N_MIV", "Top-level", "Edge",
             "Number of MIVs passed through",
             edge_example + std::to_string(topedge.nmiv)});
  t.print();

  std::printf("\nlive graph: %zu nodes, %zu circuit edges, %zu Topnodes, "
              "%zu Topedges (one O(V+E) BFS per Topnode; only per-node "
              "sums kept)\n",
              g.num_nodes(), g.num_edges(), g.num_topnodes(),
              g.num_topedges());
  return 0;
}
