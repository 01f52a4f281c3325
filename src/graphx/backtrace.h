#pragma once

#include <cstdint>
#include <vector>

#include "atpg/scan_config.h"
#include "graphx/hetero_graph.h"
#include "graphx/subgraph.h"
#include "sim/failure_log.h"

namespace m3dfl::graphx {

using atpg::ScanConfig;
using sim::FailureLog;

struct BacktraceOptions {
  /// If the strict intersection of per-response suspect sets is empty
  /// (possible with response compaction or multiple defects), relax to
  /// nodes present in at least this fraction of responses. The paper's
  /// Fig. 3 uses strict intersection; this fallback keeps the sub-graph
  /// non-empty in the corner cases, matching the framework's behaviour on
  /// multi-fault logs (Sec. VII-A).
  double relax_fraction = 0.60;
  /// Upper bound on responses examined (large multi-fault logs are
  /// deterministically subsampled for the structural pass). At least 1.
  std::size_t max_responses = 384;
};

/// The back-tracing algorithm of paper Fig. 3: for every erroneous test
/// response, collect the union over connected Topnodes of the fan-in-cone
/// nodes whose signal switches under the failing pattern; intersect across
/// responses; return the surviving candidate nodes, in ascending node order.
///
/// The cones are walked on demand over the graph's in_neighbors() with
/// per-call scratch (two counters per node), once per distinct Topnode set:
/// responses that share a set share the walk. The cost is the failing
/// cones times their responses, not the design's Topedge count, and
/// concurrent calls on one graph need no lock.
///
/// Requires graph.bind_transitions() to have been called. For compacted
/// logs, the Topnode set of a response is the ambiguity set of scan cells
/// behind the failing (channel, cycle).
std::vector<SiteId> backtrace(const HeteroGraph& graph, const FailureLog& log,
                              const ScanConfig& scan,
                              const BacktraceOptions& opts = {});

/// Convenience: back-trace then extract the homogeneous sub-graph.
SubGraph backtrace_subgraph(const HeteroGraph& graph, const FailureLog& log,
                            const ScanConfig& scan,
                            const BacktraceOptions& opts = {});

}  // namespace m3dfl::graphx
