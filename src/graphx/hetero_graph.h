#pragma once

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
/// on that shortest path (Table I). Construction is O(V + E) per Topnode
/// via BFS, exactly as analyzed in the paper.
///
/// The top level exists to accelerate back-tracing and to contribute
/// numerical node features; after back-tracing only circuit-level nodes are
/// extracted into the homogeneous sub-graph fed to the GNNs.
class HeteroGraph {
 public:
  HeteroGraph(const Netlist& nl, const SiteTable& sites);

  std::size_t num_nodes() const { return static_.size(); }
  std::size_t num_edges() const { return out_col_.size(); }
  std::size_t num_topnodes() const { return topedge_ptr_.size() - 1; }
  std::size_t num_topedges() const { return topedge_pool_.size(); }

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

  /// One Topedge: destination circuit node + features of Table I.
  struct TopEdge {
    SiteId node;
    std::uint16_t dist;  ///< D_top: shortest distance between both ends.
    std::uint16_t nmiv;  ///< N_MIV: MIVs passed through on that path.
  };
  std::span<const TopEdge> topedges_of(std::uint32_t topnode) const {
    return {topedge_pool_.data() + topedge_ptr_[topnode],
            topedge_ptr_[topnode + 1] - topedge_ptr_[topnode]};
  }

  /// Per-node aggregates over all Topedges that reach the node; these feed
  /// the Table-II sub-graph features (count, mean/std of length, mean/std
  /// of MIVs passed through).
  struct TopAgg {
    std::uint32_t count = 0;
    double sum_d = 0, sum_d2 = 0;
    double sum_m = 0, sum_m2 = 0;
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

  /// Tpat: number of patterns that launch a transition through node n.
  std::uint32_t tpat(SiteId n) const { return tpat_[n]; }

 private:
  const Netlist* nl_;
  const SiteTable* sites_;

  std::vector<std::size_t> out_ptr_, in_ptr_;
  std::vector<SiteId> out_col_, in_col_;
  std::vector<NodeStatic> static_;
  std::uint32_t max_level_ = 0;

  std::vector<TopEdge> topedge_pool_;
  std::vector<std::size_t> topedge_ptr_;
  std::vector<TopAgg> agg_;

  const sim::SimCore* core_ = nullptr;
  std::vector<std::uint32_t> tpat_;
};

}  // namespace m3dfl::graphx
