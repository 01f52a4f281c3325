// Tests of the heterogeneous graph, Topedge features, back-tracing, and
// sub-graph extraction.

#include <gtest/gtest.h>

#include <queue>
#include <set>

#include "common/rng.h"
#include "compress/compactor.h"
#include "graphx/backtrace.h"
#include "graphx/hetero_graph.h"
#include "graphx/subgraph.h"
#include "sim/fault_sim.h"
#include "netlist/generators.h"

namespace m3dfl::graphx {
namespace {

using netlist::GateId;
using netlist::GateType;
using netlist::GeneratorParams;
using netlist::Netlist;
using netlist::SiteTable;
using sim::FaultPolarity;
using sim::InjectedFault;

struct Fixture {
  Netlist nl;
  SiteTable sites;
  atpg::ScanConfig scan;
  sim::FaultSimulator fsim;
  HeteroGraph graph;

  explicit Fixture(std::uint64_t seed, std::size_t patterns = 96)
      : nl(make(seed)),
        sites(nl),
        scan(atpg::ScanConfig::make(
            static_cast<std::uint32_t>(nl.num_outputs()), 6, 3)),
        fsim(nl, sites),
        graph(nl, sites) {
    Rng rng(seed + 2);
    auto v1 = sim::PatternSet::random(nl.num_inputs(), patterns, rng);
    auto v2 = sim::PatternSet::random(nl.num_inputs(), patterns, rng);
    fsim.bind(v1, v2);
    graph.bind_transitions(fsim.core());
  }

  static Netlist make(std::uint64_t seed) {
    GeneratorParams p;
    p.num_logic_gates = 250;
    p.num_scan_cells = 18;
    p.num_levels = 8;
    p.seed = seed;
    return netlist::generate_netlist(p);
  }
};

TEST(HeteroGraph, NodeCountEqualsSiteCount) {
  Fixture fx(1);
  EXPECT_EQ(fx.graph.num_nodes(), fx.sites.size());
  EXPECT_EQ(fx.graph.num_topnodes(), fx.nl.num_outputs());
}

TEST(HeteroGraph, EdgesFollowPinStructure) {
  Fixture fx(2);
  // Every branch node has exactly one outgoing edge (to its gate's stem)
  // and one incoming edge (from its driver's stem).
  for (netlist::SiteId s = 0; s < fx.graph.num_nodes(); ++s) {
    const auto& site = fx.sites.site(s);
    if (site.is_stem()) {
      // Stem in-degree = gate fanin count; out-degree = total branch pins
      // it drives.
      EXPECT_EQ(fx.graph.in_neighbors(s).size(),
                fx.nl.gate(site.gate).fanin.size());
    } else {
      ASSERT_EQ(fx.graph.out_neighbors(s).size(), 1u);
      EXPECT_EQ(fx.graph.out_neighbors(s)[0], fx.sites.stem_of(site.gate));
      ASSERT_EQ(fx.graph.in_neighbors(s).size(), 1u);
      EXPECT_EQ(fx.graph.in_neighbors(s)[0], fx.sites.stem_of(site.driver));
    }
  }
}

TEST(HeteroGraph, MivNodesFlagged) {
  // Build a netlist with MIVs by manual construction.
  Netlist nl;
  const GateId a = nl.add_input();
  const GateId m = nl.add_gate(GateType::kMiv, {a});
  const GateId b = nl.add_gate(GateType::kBuf, {m});
  nl.add_output(b);
  nl.set_num_scan_cells(1);
  const SiteTable sites(nl);
  const HeteroGraph g(nl, sites);
  EXPECT_EQ(g.node(sites.stem_of(m)).is_miv, 1);
  EXPECT_EQ(g.node(sites.stem_of(b)).is_miv, 0);
  // Neighbors of the MIV node are flagged connects_miv.
  EXPECT_EQ(g.node(sites.branch_of(b, 0)).connects_miv, 1);
}

/// Reference BFS distance in the site graph from node to the topnode root.
std::uint32_t ref_distance(const HeteroGraph& g, netlist::SiteId root,
                           netlist::SiteId target) {
  std::vector<std::uint32_t> dist(g.num_nodes(), 0xffffffffu);
  std::queue<netlist::SiteId> q;
  dist[root] = 0;
  q.push(root);
  while (!q.empty()) {
    const auto u = q.front();
    q.pop();
    if (u == target) return dist[u];
    for (auto v : g.in_neighbors(u)) {
      if (dist[v] == 0xffffffffu) {
        dist[v] = dist[u] + 1;
        q.push(v);
      }
    }
  }
  return dist[target];
}

class TopedgeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TopedgeProperty, DistancesAreBfsShortest) {
  Fixture fx(GetParam());
  Rng rng(GetParam() + 3);
  // Spot-check a few topnodes against a reference BFS.
  for (int t = 0; t < 3; ++t) {
    const auto topnode =
        static_cast<std::uint32_t>(rng.next_below(fx.graph.num_topnodes()));
    const netlist::SiteId root =
        fx.sites.stem_of(fx.nl.outputs()[topnode]);
    const auto edges = fx.graph.topedges_of(topnode);
    ASSERT_FALSE(edges.empty());
    for (std::size_t i = 0; i < edges.size(); i += 7) {
      EXPECT_EQ(edges[i].dist,
                ref_distance(fx.graph, root, edges[i].node))
          << "topnode " << topnode << " node " << edges[i].node;
    }
  }
}

TEST_P(TopedgeProperty, AggregatesMatchEdgeLists) {
  Fixture fx(GetParam() + 10);
  // Rebuild per-node aggregates from the raw Topedge lists and compare.
  std::vector<HeteroGraph::TopAgg> ref(fx.graph.num_nodes());
  for (std::uint32_t t = 0; t < fx.graph.num_topnodes(); ++t) {
    for (const auto& e : fx.graph.topedges_of(t)) {
      auto& a = ref[e.node];
      ++a.count;
      a.sum_d += e.dist;
      a.sum_d2 += static_cast<double>(e.dist) * e.dist;
      a.sum_m += e.nmiv;
      a.sum_m2 += static_cast<double>(e.nmiv) * e.nmiv;
    }
  }
  for (netlist::SiteId n = 0; n < fx.graph.num_nodes(); ++n) {
    const auto& a = fx.graph.top_agg(n);
    EXPECT_EQ(a.count, ref[n].count);
    EXPECT_DOUBLE_EQ(a.sum_d, ref[n].sum_d);
    EXPECT_DOUBLE_EQ(a.sum_m, ref[n].sum_m);
  }
}

TEST_P(TopedgeProperty, EveryNodeCoveredBySomeTopnode) {
  Fixture fx(GetParam() + 20);
  // Full observability implies every node lies in at least one fan-in cone.
  for (netlist::SiteId n = 0; n < fx.graph.num_nodes(); ++n) {
    EXPECT_GT(fx.graph.top_agg(n).count, 0u) << "node " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopedgeProperty,
                         ::testing::Values(5, 6, 7));

TEST(HeteroGraph, TpatMatchesPopcount) {
  Fixture fx(8);
  for (netlist::SiteId n = 0; n < fx.graph.num_nodes(); n += 13) {
    std::uint32_t count = 0;
    for (std::uint32_t p = 0; p < fx.fsim.num_patterns(); ++p) {
      count += fx.graph.transitions_at(n, p);
    }
    EXPECT_EQ(fx.graph.tpat(n), count);
  }
}

// --- Back-tracing ----------------------------------------------------------------

class BacktraceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BacktraceProperty, TruthSurvivesUncompacted) {
  Fixture fx(GetParam());
  Rng rng(GetParam() + 4);
  std::vector<sim::Word> diff;
  int tested = 0;
  while (tested < 15) {
    const InjectedFault f{
        static_cast<netlist::SiteId>(rng.next_below(fx.sites.size())),
        rng.bernoulli(0.5) ? FaultPolarity::kSlowToRise
                           : FaultPolarity::kSlowToFall};
    if (!fx.fsim.observed_diff(f, diff)) continue;
    ++tested;
    const auto log = sim::failure_log_from_diff(diff, fx.nl.num_outputs(),
                                                fx.fsim.num_patterns());
    const auto nodes = backtrace(fx.graph, log, fx.scan);
    // Soundness: the injected site always passes its own back-trace on an
    // uncompacted log (it transitions on every failing pattern and sits in
    // every failing cone).
    EXPECT_NE(std::find(nodes.begin(), nodes.end(), f.site), nodes.end())
        << "site " << f.site << " lost by back-trace";
  }
}

TEST_P(BacktraceProperty, CompactedSupersetOfTopnodes) {
  Fixture fx(GetParam() + 40);
  Rng rng(GetParam() + 5);
  std::vector<sim::Word> diff;
  int tested = 0;
  while (tested < 10) {
    const InjectedFault f{
        static_cast<netlist::SiteId>(rng.next_below(fx.sites.size())),
        FaultPolarity::kSlow};
    if (!fx.fsim.observed_diff(f, diff)) continue;
    const auto ulog = sim::failure_log_from_diff(diff, fx.nl.num_outputs(),
                                                 fx.fsim.num_patterns());
    const auto clog = compress::ResponseCompactor(fx.scan)
                          .failure_log_from_diff(diff, fx.fsim.num_words(),
                                                 fx.fsim.num_patterns());
    if (ulog.empty() || clog.empty()) continue;
    ++tested;
    const auto un = backtrace(fx.graph, ulog, fx.scan);
    const auto cn = backtrace(fx.graph, clog, fx.scan);
    // The compacted candidate set cannot be smaller than the bypass set
    // when no aliasing removed responses (it may equal it).
    EXPECT_GE(cn.size() + 2, un.size());
    EXPECT_NE(std::find(cn.begin(), cn.end(), f.site), cn.end());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BacktraceProperty,
                         ::testing::Values(31, 32, 33));

TEST(Backtrace, EmptyLogYieldsNothing) {
  Fixture fx(44);
  EXPECT_TRUE(backtrace(fx.graph, sim::FailureLog{}, fx.scan).empty());
}

// --- Sub-graph -------------------------------------------------------------------

TEST(SubGraph, InducedAdjacencyIsSymmetricAndInRange) {
  Fixture fx(50);
  Rng rng(51);
  std::vector<sim::Word> diff;
  for (int trial = 0; trial < 10; ++trial) {
    const InjectedFault f{
        static_cast<netlist::SiteId>(rng.next_below(fx.sites.size())),
        FaultPolarity::kSlow};
    if (!fx.fsim.observed_diff(f, diff)) continue;
    const auto log = sim::failure_log_from_diff(diff, fx.nl.num_outputs(),
                                                fx.fsim.num_patterns());
    const SubGraph sg = backtrace_subgraph(fx.graph, log, fx.scan);
    ASSERT_EQ(sg.row_ptr.size(), sg.num_nodes() + 1);
    std::set<std::pair<std::uint32_t, std::uint32_t>> edges;
    for (std::uint32_t v = 0; v < sg.num_nodes(); ++v) {
      for (std::uint32_t e = sg.row_ptr[v]; e < sg.row_ptr[v + 1]; ++e) {
        const std::uint32_t u = sg.col_idx[e];
        ASSERT_LT(u, sg.num_nodes());
        EXPECT_NE(u, v) << "self loop in induced sub-graph";
        edges.insert({v, u});
      }
    }
    for (const auto& [v, u] : edges) {
      EXPECT_TRUE(edges.count({u, v})) << "edge " << v << "-" << u
                                       << " not symmetric";
    }
    break;
  }
}

TEST(SubGraph, FeaturesInUnitRangeAndLabeled) {
  Fixture fx(52);
  Rng rng(53);
  std::vector<sim::Word> diff;
  for (int trial = 0; trial < 20; ++trial) {
    const InjectedFault f{
        static_cast<netlist::SiteId>(rng.next_below(fx.sites.size())),
        FaultPolarity::kSlow};
    if (!fx.fsim.observed_diff(f, diff)) continue;
    const auto log = sim::failure_log_from_diff(diff, fx.nl.num_outputs(),
                                                fx.fsim.num_patterns());
    const SubGraph sg = backtrace_subgraph(fx.graph, log, fx.scan);
    ASSERT_GT(sg.num_nodes(), 0u);
    for (std::size_t i = 0; i < sg.num_nodes(); ++i) {
      for (std::size_t k = 0; k < kNumSubgraphFeatures; ++k) {
        EXPECT_GE(sg.feature(i, k), 0.0f) << "feature " << k;
        EXPECT_LE(sg.feature(i, k), 1.5f) << "feature " << k;
      }
    }
    // MIV locals point at MIV sites.
    for (std::uint32_t m : sg.miv_local) {
      EXPECT_TRUE(fx.sites.is_miv_site(sg.nodes[m], fx.nl));
    }
    // local_of round-trips.
    for (std::size_t i = 0; i < sg.num_nodes(); ++i) {
      EXPECT_EQ(sg.local_of(sg.nodes[i]), static_cast<std::int64_t>(i));
    }
    EXPECT_EQ(sg.local_of(0xfffffff0u), -1);
    return;
  }
  FAIL() << "no detectable fault found";
}

TEST(SubGraph, FeatureNamesExist) {
  for (std::size_t i = 0; i < kNumSubgraphFeatures; ++i) {
    EXPECT_NE(std::string(subgraph_feature_name(i)), "?");
  }
}

TEST(SubGraph, FeatureMeanMatchesManualAverage) {
  Fixture fx(54);
  std::vector<netlist::SiteId> nodes = {0, 1, 2, 3, 4};
  const SubGraph sg = extract_subgraph(fx.graph, nodes);
  const auto mean = sg.feature_mean();
  ASSERT_EQ(mean.size(), kNumSubgraphFeatures);
  for (std::size_t k = 0; k < kNumSubgraphFeatures; ++k) {
    double m = 0;
    for (std::size_t i = 0; i < sg.num_nodes(); ++i) m += sg.feature(i, k);
    m /= static_cast<double>(sg.num_nodes());
    EXPECT_NEAR(mean[k], m, 1e-9);
  }
}

}  // namespace
}  // namespace m3dfl::graphx
