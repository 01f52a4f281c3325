#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/fault_site.h"
#include "sim/sim_core.h"

namespace m3dfl::graphx {

using netlist::Netlist;
using netlist::SiteId;
using netlist::SiteTable;

/// The heterogeneous graph of paper Sec. III-A.
///
/// Circuit level: every fault site (every gate pin, plus every MIV) is a
/// node; edges are input-pin -> output-pin (within a gate) and net-stem ->
/// net-branch (driver output pin to each reader input pin). Node ids are
/// the shared SiteIds, so graph nodes, diagnosis candidates and injected
/// faults all name the same location.
///
/// Top level: one Topnode per observation point (scan-cell D input); a
/// Topedge connects a Topnode to every node in its fan-in cone and carries
/// the BFS-shortest distance between its ends and the number of MIV nodes
/// on that shortest path (Table I). The Topedges themselves are not stored:
/// the constructor runs one backward BFS per Topnode, O(V + E) each, and
/// keeps only the per-node sums the Table-II features read (top_agg()).
/// The BFS sweep is sharded over `num_threads` (0 = the hardware's count,
/// inline for designs with few Topnodes); the sums are exact integers, so
/// the graph is the same at any thread count.
/// The back-trace (graphx::backtrace) walks the cones it needs on demand
/// over in_neighbors(), so the graph holds O(V + E) bytes, not one entry
/// per (Topnode, cone node) pair.
///
/// The top level exists to accelerate back-tracing and to contribute
/// numerical node features; after back-tracing only circuit-level nodes are
/// extracted into the homogeneous sub-graph fed to the GNNs.
class HeteroGraph {
 public:
  HeteroGraph(const Netlist& nl, const SiteTable& sites,
              std::size_t num_threads = 0);

  std::size_t num_nodes() const { return static_.size(); }
  std::size_t num_edges() const { return out_col_.size(); }
  std::size_t num_topnodes() const { return nl_->num_outputs(); }
  /// Number of Topedges: the (Topnode, cone node) pairs, i.e. the sum of
  /// top_agg(n).count over all nodes.
  std::size_t num_topedges() const { return num_topedges_; }

  /// Circuit node a Topnode stands for (the stem of its observed gate).
  SiteId topnode_root(std::uint32_t topnode) const {
    return sites_->stem_of(nl_->outputs()[topnode]);
  }

  const Netlist& nl() const { return *nl_; }
  const SiteTable& sites() const { return *sites_; }

  std::span<const SiteId> out_neighbors(SiteId n) const {
    return {out_col_.data() + out_ptr_[n], out_ptr_[n + 1] - out_ptr_[n]};
  }
  std::span<const SiteId> in_neighbors(SiteId n) const {
    return {in_col_.data() + in_ptr_[n], in_ptr_[n + 1] - in_ptr_[n]};
  }

  /// Static (pattern-independent) node attributes.
  struct NodeStatic {
    std::uint32_t level = 0;        ///< Topological level in the site graph.
    std::uint8_t tier = 0;          ///< Tier of the owning pin.
    std::uint8_t is_output_pin = 0; ///< 1 for stem (gate output) nodes.
    std::uint8_t connects_miv = 0;  ///< 1 if any neighbor is an MIV node.
    std::uint8_t is_miv = 0;        ///< 1 for MIV stem nodes.
  };
  const NodeStatic& node(SiteId n) const { return static_[n]; }
  std::uint32_t max_level() const { return max_level_; }

  /// Per-node aggregates over all Topedges that reach the node; these feed
  /// the Table-II sub-graph features (count, mean/std of length, mean/std
  /// of MIVs passed through). Integer sums are exact, so the features read
  /// them as doubles without rounding. D_top never exceeds max_level() and
  /// N_MIV never exceeds max_level() + 1; the constructor throws
  /// std::length_error unless num_topnodes() * (max_level() + 1) fits the
  /// 32-bit sums.
  struct TopAgg {
    std::uint64_t sum_d2 = 0;  ///< Sum of squared D_top.
    std::uint64_t sum_m2 = 0;  ///< Sum of squared N_MIV.
    std::uint32_t count = 0;   ///< Topedges reaching the node.
    std::uint32_t sum_d = 0;   ///< Sum of D_top.
    std::uint32_t sum_m = 0;   ///< Sum of N_MIV.
  };
  const TopAgg& top_agg(SiteId n) const { return agg_[n]; }

  // -- Pattern binding ------------------------------------------------------

  /// Binds the good machine of a simulation core so transition queries
  /// (used by back-tracing and the Tpat feature) are available. The core
  /// must outlive the binding.
  void bind_transitions(const sim::SimCore& core);

  bool has_transitions() const { return core_ != nullptr; }

  /// True if the signal at node n switches under pattern p.
  bool transitions_at(SiteId n, std::uint32_t pattern) const;

  /// Transition row of node n: bit p is set iff the signal at n switches
  /// under pattern p (core().num_words() words).
  std::span<const sim::Word> transitions(SiteId n) const {
    assert(core_);
    return core_->transition(sites_->site(n).driver);
  }

  /// Tpat: number of patterns that launch a transition through node n.
  std::uint32_t tpat(SiteId n) const { return tpat_[n]; }

  /// Heap bytes the graph holds (its CSR, node attributes, aggregates and
  /// Tpat counts), plus the object itself; the netlist, site table and
  /// bound core are not counted.
  std::size_t bytes() const;

 private:
  const Netlist* nl_;
  const SiteTable* sites_;

  std::vector<std::uint32_t> out_ptr_, in_ptr_;
  std::vector<SiteId> out_col_, in_col_;
  std::vector<NodeStatic> static_;
  std::uint32_t max_level_ = 0;

  std::vector<TopAgg> agg_;
  std::size_t num_topedges_ = 0;

  const sim::SimCore* core_ = nullptr;
  std::vector<std::uint32_t> tpat_;
};

}  // namespace m3dfl::graphx
