// Tests of the heterogeneous graph, Topedge features, back-tracing, and
// sub-graph extraction.

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "compress/compactor.h"
#include "eval/benchmarks.h"
#include "graphx/backtrace.h"
#include "graphx/hetero_graph.h"
#include "graphx/subgraph.h"
#include "m3d/miv.h"
#include "m3d/partition.h"
#include "netlist/generators.h"
#include "sim/fault_sim.h"

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

  /// With `m3d`, the netlist is partitioned onto two tiers and carries an
  /// MIV per cut net, so Topedges pass through MIV nodes.
  explicit Fixture(std::uint64_t seed, std::size_t patterns = 96,
                   bool m3d = false)
      : nl(m3d ? with_mivs(make(seed), seed) : make(seed)),
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

  static Netlist with_mivs(const Netlist& base, std::uint64_t seed) {
    part::PartitionOptions popts;
    popts.seed = seed;
    return part::insert_mivs(base, part::partition_netlist(base, popts))
        .netlist;
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

/// One reference Topedge: cone node, D_top and N_MIV along the BFS tree.
struct RefTopedge {
  netlist::SiteId node;
  std::uint32_t dist;
  std::uint32_t nmiv;
};

/// Reference Topedge list of one Topnode: a std::queue BFS from the stem
/// of the observed gate, taken from the netlist rather than the graph.
/// N_MIV follows the first-discovered (BFS tree) parent, MIV endpoints
/// included, as the paper's "MIVs passed through on the shortest path".
std::vector<RefTopedge> ref_topedges(const Fixture& fx, std::uint32_t t) {
  const HeteroGraph& g = fx.graph;
  const netlist::SiteId root = fx.sites.stem_of(fx.nl.outputs()[t]);
  std::vector<std::uint32_t> dist(g.num_nodes(), 0xffffffffu);
  std::vector<std::uint32_t> nmiv(g.num_nodes(), 0);
  std::vector<RefTopedge> edges;
  std::queue<netlist::SiteId> q;
  dist[root] = 0;
  nmiv[root] = fx.sites.is_miv_site(root, fx.nl) ? 1 : 0;
  q.push(root);
  while (!q.empty()) {
    const auto u = q.front();
    q.pop();
    edges.push_back({u, dist[u], nmiv[u]});
    for (auto v : g.in_neighbors(u)) {
      if (dist[v] != 0xffffffffu) continue;
      dist[v] = dist[u] + 1;
      nmiv[v] = nmiv[u] + (fx.sites.is_miv_site(v, fx.nl) ? 1 : 0);
      q.push(v);
    }
  }
  return edges;
}

/// Per-node sums over every reference Topedge.
std::vector<HeteroGraph::TopAgg> ref_aggregates(const Fixture& fx) {
  std::vector<HeteroGraph::TopAgg> ref(fx.graph.num_nodes());
  for (std::uint32_t t = 0; t < fx.graph.num_topnodes(); ++t) {
    for (const RefTopedge& e : ref_topedges(fx, t)) {
      auto& a = ref[e.node];
      ++a.count;
      a.sum_d += e.dist;
      a.sum_d2 += static_cast<std::uint64_t>(e.dist) * e.dist;
      a.sum_m += e.nmiv;
      a.sum_m2 += static_cast<std::uint64_t>(e.nmiv) * e.nmiv;
    }
  }
  return ref;
}

class TopedgeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TopedgeProperty, DistancesAreBfsShortest) {
  Fixture fx(GetParam(), 96, /*m3d=*/true);
  Rng rng(GetParam() + 3);
  // The reference lists hold BFS-shortest distances (spot-checked against
  // a per-target search), and the graph's per-node distance sums equal
  // theirs.
  for (int t = 0; t < 3; ++t) {
    const auto topnode =
        static_cast<std::uint32_t>(rng.next_below(fx.graph.num_topnodes()));
    const netlist::SiteId root = fx.graph.topnode_root(topnode);
    EXPECT_EQ(root, fx.sites.stem_of(fx.nl.outputs()[topnode]));
    const auto edges = ref_topedges(fx, topnode);
    ASSERT_FALSE(edges.empty());
    for (std::size_t i = 0; i < edges.size(); i += 7) {
      EXPECT_EQ(edges[i].dist, ref_distance(fx.graph, root, edges[i].node))
          << "topnode " << topnode << " node " << edges[i].node;
      EXPECT_LE(edges[i].dist, fx.graph.max_level());
    }
  }
  const auto ref = ref_aggregates(fx);
  for (netlist::SiteId n = 0; n < fx.graph.num_nodes(); ++n) {
    EXPECT_EQ(fx.graph.top_agg(n).sum_d, ref[n].sum_d) << "node " << n;
    EXPECT_EQ(fx.graph.top_agg(n).sum_d2, ref[n].sum_d2) << "node " << n;
  }
}

TEST_P(TopedgeProperty, AggregatesMatchEdgeLists) {
  Fixture fx(GetParam() + 10, 96, /*m3d=*/true);
  // Rebuild every per-node aggregate field from the reference Topedge
  // lists; the MIV sums must be exercised, not all zero. The graph built
  // with a sharded Topnode sweep must match the reference too.
  const auto ref = ref_aggregates(fx);
  const HeteroGraph sharded(fx.nl, fx.sites, 3);
  std::size_t total = 0, with_mivs = 0;
  for (netlist::SiteId n = 0; n < fx.graph.num_nodes(); ++n) {
    for (const HeteroGraph* g : {&std::as_const(fx.graph), &sharded}) {
      const auto& a = g->top_agg(n);
      EXPECT_EQ(a.count, ref[n].count) << "node " << n;
      EXPECT_EQ(a.sum_d, ref[n].sum_d) << "node " << n;
      EXPECT_EQ(a.sum_d2, ref[n].sum_d2) << "node " << n;
      EXPECT_EQ(a.sum_m, ref[n].sum_m) << "node " << n;
      EXPECT_EQ(a.sum_m2, ref[n].sum_m2) << "node " << n;
    }
    total += ref[n].count;
    with_mivs += ref[n].sum_m > 0;
  }
  EXPECT_EQ(fx.graph.num_topedges(), total);
  EXPECT_EQ(sharded.num_topedges(), total);
  EXPECT_GT(with_mivs, 0u) << "no Topedge passes through an MIV";
}

TEST_P(TopedgeProperty, EveryNodeCoveredBySomeTopnode) {
  Fixture fx(GetParam() + 20, 96, /*m3d=*/true);
  // Full observability implies every node lies in at least one fan-in
  // cone, and the reference cones agree on how many.
  const auto ref = ref_aggregates(fx);
  for (netlist::SiteId n = 0; n < fx.graph.num_nodes(); ++n) {
    EXPECT_GT(fx.graph.top_agg(n).count, 0u) << "node " << n;
    EXPECT_EQ(fx.graph.top_agg(n).count, ref[n].count) << "node " << n;
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

// --- On-demand back-trace against the cone-list reference ------------------

/// Every Topnode's fan-in cone as a node list in BFS order: the per-Topnode
/// Topedge lists the graph used to store.
std::vector<std::vector<netlist::SiteId>> cone_lists(const HeteroGraph& g) {
  std::vector<std::vector<netlist::SiteId>> cones(g.num_topnodes());
  std::vector<std::uint8_t> seen(g.num_nodes(), 0);
  for (std::uint32_t t = 0; t < g.num_topnodes(); ++t) {
    auto& cone = cones[t];
    cone.push_back(g.sites().stem_of(g.nl().outputs()[t]));
    seen[cone[0]] = 1;
    for (std::size_t i = 0; i < cone.size(); ++i) {
      for (netlist::SiteId v : g.in_neighbors(cone[i])) {
        if (!seen[v]) {
          seen[v] = 1;
          cone.push_back(v);
        }
      }
    }
    for (netlist::SiteId v : cone) seen[v] = 0;
  }
  return cones;
}

/// The cone-list back-trace: each response scans its Topnodes' cone lists,
/// counting a switching node once per response; strict intersection, then
/// the relax and best-count fallbacks over a scan of all nodes.
std::vector<netlist::SiteId> cone_list_backtrace(
    const HeteroGraph& graph,
    const std::vector<std::vector<netlist::SiteId>>& cones,
    const sim::FailureLog& log, const atpg::ScanConfig& scan) {
  const BacktraceOptions opts;
  if (log.empty()) return {};
  struct Response {
    std::uint32_t pattern;
    std::vector<std::uint32_t> topnodes;
  };
  std::vector<Response> responses;
  if (log.compacted) {
    for (const auto& f : log.cfails) {
      responses.push_back({f.pattern, scan.outputs_of(f.channel, f.cycle)});
    }
  } else {
    for (const auto& f : log.fails) responses.push_back({f.pattern, {f.output}});
  }
  if (responses.size() > opts.max_responses) {
    std::vector<Response> sampled;
    const double stride =
        static_cast<double>(responses.size()) / opts.max_responses;
    for (std::size_t i = 0; i < opts.max_responses; ++i) {
      sampled.push_back(responses[static_cast<std::size_t>(i * stride)]);
    }
    responses = std::move(sampled);
  }
  std::vector<std::uint32_t> count(graph.num_nodes(), 0);
  std::vector<std::uint32_t> last_seen(graph.num_nodes(), 0xffffffffu);
  for (std::uint32_t r = 0; r < responses.size(); ++r) {
    for (std::uint32_t t : responses[r].topnodes) {
      for (netlist::SiteId n : cones[t]) {
        if (last_seen[n] == r) continue;
        if (!graph.transitions_at(n, responses[r].pattern)) continue;
        last_seen[n] = r;
        ++count[n];
      }
    }
  }
  const auto all = static_cast<std::uint32_t>(responses.size());
  std::vector<netlist::SiteId> out;
  for (netlist::SiteId n = 0; n < graph.num_nodes(); ++n) {
    if (count[n] == all) out.push_back(n);
  }
  if (out.empty()) {
    const auto floor_count = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(opts.relax_fraction * all));
    for (netlist::SiteId n = 0; n < graph.num_nodes(); ++n) {
      if (count[n] >= floor_count) out.push_back(n);
    }
  }
  if (out.empty()) {
    const std::uint32_t best = *std::max_element(count.begin(), count.end());
    for (netlist::SiteId n = 0; n < graph.num_nodes() && best > 0; ++n) {
      if (count[n] == best) out.push_back(n);
    }
  }
  return out;
}

/// Failure logs of a built design: single-fault and multi-fault, bypass and
/// compacted, at least one over the 384-response sub-sampling threshold,
/// two with repeated entries, and last a log whose candidates the
/// sub-sampling decides.
std::vector<sim::FailureLog> backtrace_logs(const eval::Design& d,
                                            std::uint64_t seed) {
  const auto fsim = d.fsim->clone();
  const compress::ResponseCompactor compactor(d.scan);
  Rng rng(seed);
  std::vector<sim::FailureLog> logs;
  std::vector<sim::Word> diff;
  auto add = [&](const std::vector<InjectedFault>& faults) {
    if (!fsim->observed_diff(faults, diff)) return;
    logs.push_back(sim::failure_log_from_diff(diff, d.nl.num_outputs(),
                                              fsim->num_patterns()));
    sim::FailureLog clog = compactor.failure_log_from_diff(
        diff, fsim->num_words(), fsim->num_patterns());
    if (!clog.empty()) logs.push_back(std::move(clog));
  };
  auto draw = [&](std::size_t k) {
    std::vector<InjectedFault> faults;
    for (std::size_t i = 0; i < k; ++i) {
      faults.push_back(
          {static_cast<netlist::SiteId>(rng.next_below(d.sites.size())),
           rng.bernoulli(0.5) ? FaultPolarity::kSlowToRise
                              : FaultPolarity::kSlow});
    }
    return faults;
  };
  while (logs.size() < 16) add(draw(1));
  for (std::size_t k : {2, 3, 12}) add(draw(k));
  std::size_t largest = 0;
  for (const auto& log : logs) largest = std::max(largest, log.size());
  while (largest <= 384) {
    add(draw(24));
    largest = std::max(largest, logs.back().size());
  }
  for (std::size_t i = 0; i < 2; ++i) {
    sim::FailureLog rep = logs[i];
    if (rep.compacted) {
      rep.cfails.push_back(rep.cfails.front());
    } else {
      rep.fails.insert(rep.fails.begin(), rep.fails.begin(), rep.fails.end());
    }
    logs.push_back(std::move(rep));
  }
  // Last: 768 entries alternating between two single-fault bypass logs, so
  // the stride-2 sub-sample keeps only the first fault's responses.
  std::vector<const sim::FailureLog*> bypass;
  for (const auto& log : logs) {
    if (!log.compacted) bypass.push_back(&log);
  }
  sim::FailureLog mixed;
  for (std::size_t i = 0; i < 384; ++i) {
    mixed.fails.push_back(bypass[0]->fails[i % bypass[0]->fails.size()]);
    mixed.fails.push_back(bypass[1]->fails[i % bypass[1]->fails.size()]);
  }
  logs.push_back(std::move(mixed));
  return logs;
}

void expect_same_subgraph(const SubGraph& a, const SubGraph& b,
                          const std::string& what) {
  EXPECT_EQ(a.nodes, b.nodes) << what;
  EXPECT_EQ(a.row_ptr, b.row_ptr) << what;
  EXPECT_EQ(a.col_idx, b.col_idx) << what;
  EXPECT_EQ(a.features, b.features) << what;
  EXPECT_EQ(a.miv_local, b.miv_local) << what;
}

TEST(GraphBacktrace, OnDemandWalkMatchesConeListReference) {
  for (const eval::BenchmarkSpec& spec :
       {eval::tiny_spec(), eval::aes_spec()}) {
    const eval::Design& d = eval::cached_design(spec, eval::Config::kSyn2);
    const auto cones = cone_lists(*d.graph);
    const auto logs = backtrace_logs(d, 61);
    std::size_t compacted = 0, nonempty = 0;
    for (std::size_t i = 0; i < logs.size(); ++i) {
      const auto want = cone_list_backtrace(*d.graph, cones, logs[i], d.scan);
      EXPECT_EQ(backtrace(*d.graph, logs[i], d.scan), want)
          << spec.name << " log " << i << " (" << logs[i].size()
          << " entries, compacted=" << logs[i].compacted << ")";
      compacted += logs[i].compacted;
      nonempty += !want.empty();
    }
    EXPECT_GT(compacted, 0u) << spec.name;
    EXPECT_EQ(nonempty, logs.size()) << spec.name;
    BacktraceOptions every_response;
    every_response.max_responses = logs.back().size();
    EXPECT_NE(backtrace(*d.graph, logs.back(), d.scan),
              backtrace(*d.graph, logs.back(), d.scan, every_response))
        << spec.name << ": sub-sampling does not matter on the mixed log";
  }
}

TEST(GraphBacktrace, ConcurrentCallsOnOneGraphAgree) {
  const eval::Design& d =
      eval::cached_design(eval::tiny_spec(), eval::Config::kSyn2);
  const auto logs = backtrace_logs(d, 62);
  std::vector<SubGraph> want;
  for (const auto& log : logs) {
    want.push_back(backtrace_subgraph(*d.graph, log, d.scan));
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<SubGraph>> got(kThreads,
                                         std::vector<SubGraph>(logs.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different log so calls overlap.
      for (std::size_t k = 0; k < logs.size(); ++k) {
        const std::size_t i = (k + t * logs.size() / kThreads) % logs.size();
        got[t][i] = backtrace_subgraph(*d.graph, logs[i], d.scan);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < logs.size(); ++i) {
      expect_same_subgraph(got[t][i], want[i],
                           "thread " + std::to_string(t) + " log " +
                               std::to_string(i));
    }
  }
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
