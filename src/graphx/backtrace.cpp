#include "graphx/backtrace.h"

#include <algorithm>
#include <cassert>

namespace m3dfl::graphx {

std::vector<SiteId> backtrace(const HeteroGraph& graph, const FailureLog& log,
                              const ScanConfig& scan,
                              const BacktraceOptions& opts) {
  assert(graph.has_transitions());
  if (log.empty()) return {};

  // Failing responses as (Topnode set, pattern), one per log entry. The set
  // is one output in bypass mode and one compactor cell, (channel << 32) |
  // cycle, in compacted mode.
  struct Response {
    std::uint64_t obs;
    std::uint32_t pattern;
  };
  std::vector<Response> responses;
  if (log.compacted) {
    responses.reserve(log.cfails.size());
    for (const FailureLog::CObs& f : log.cfails) {
      responses.push_back(
          {(static_cast<std::uint64_t>(f.channel) << 32) | f.cycle,
           f.pattern});
    }
  } else {
    responses.reserve(log.fails.size());
    for (const FailureLog::Obs& f : log.fails) {
      responses.push_back({f.output, f.pattern});
    }
  }
  if (responses.size() > opts.max_responses) {
    std::vector<Response> sampled;
    sampled.reserve(opts.max_responses);
    const double stride =
        static_cast<double>(responses.size()) / opts.max_responses;
    for (std::size_t i = 0; i < opts.max_responses; ++i) {
      sampled.push_back(responses[static_cast<std::size_t>(i * stride)]);
    }
    responses = std::move(sampled);
  }
  const auto all = static_cast<std::uint32_t>(responses.size());

  // count[n]: responses whose suspect union contains node n, i.e. n lies in
  // the fan-in cone of one of the response's Topnodes and switches under
  // its pattern. Responses sharing a Topnode set share one breadth-first
  // walk of the cone union over in_neighbors(); `walk` doubles as the queue
  // and the visited list, and mark[n] holds the 1-based index of the last
  // group that reached n. Only walked nodes can count, so `touched` lists
  // every node with a nonzero count.
  std::sort(responses.begin(), responses.end(),
            [](const Response& a, const Response& b) { return a.obs < b.obs; });
  const std::size_t n = graph.num_nodes();
  std::vector<std::uint32_t> count(n, 0), mark(n, 0);
  std::vector<SiteId> walk, touched;
  std::vector<std::uint32_t> topnodes;
  std::uint32_t group = 0;
  for (std::size_t lo = 0, hi; lo < responses.size(); lo = hi) {
    hi = lo;
    while (hi < responses.size() && responses[hi].obs == responses[lo].obs) {
      ++hi;
    }
    const std::uint64_t obs = responses[lo].obs;
    if (log.compacted) {
      topnodes = scan.outputs_of(static_cast<std::uint32_t>(obs >> 32),
                                 static_cast<std::uint32_t>(obs));
    } else {
      topnodes.assign(1, static_cast<std::uint32_t>(obs));
    }

    ++group;
    walk.clear();
    for (std::uint32_t t : topnodes) {
      const SiteId root = graph.topnode_root(t);
      if (mark[root] == group) continue;
      mark[root] = group;
      walk.push_back(root);
    }
    for (std::size_t i = 0; i < walk.size(); ++i) {
      for (SiteId v : graph.in_neighbors(walk[i])) {
        if (mark[v] == group) continue;
        mark[v] = group;
        walk.push_back(v);
      }
    }

    for (SiteId v : walk) {
      const sim::Word* tr = graph.transitions(v).data();
      std::uint32_t add = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        const std::uint32_t p = responses[i].pattern;
        add += (tr[p / sim::kWordBits] >> (p % sim::kWordBits)) & 1;
      }
      if (add == 0) continue;
      if (count[v] == 0) touched.push_back(v);
      count[v] += add;
    }
  }

  // Candidates in ascending node order, as a scan over all nodes would
  // give; a node no walk reached has count 0 and passes no rule below.
  std::sort(touched.begin(), touched.end());
  std::vector<SiteId> candidates;
  for (SiteId v : touched) {
    if (count[v] == all) candidates.push_back(v);
  }
  if (candidates.empty()) {
    const auto floor_count = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(opts.relax_fraction * all));
    for (SiteId v : touched) {
      if (count[v] >= floor_count) candidates.push_back(v);
    }
  }
  if (candidates.empty()) {
    // Multiple defects can defeat any fixed fraction (each fault explains
    // only its own share of the responses); keep the best-explaining nodes
    // so the sub-graph is never empty for a non-empty log.
    std::uint32_t best = 0;
    for (SiteId v : touched) best = std::max(best, count[v]);
    for (SiteId v : touched) {
      if (count[v] == best) candidates.push_back(v);
    }
  }
  return candidates;
}

SubGraph backtrace_subgraph(const HeteroGraph& graph, const FailureLog& log,
                            const ScanConfig& scan,
                            const BacktraceOptions& opts) {
  const std::vector<SiteId> nodes = backtrace(graph, log, scan, opts);
  return extract_subgraph(graph, nodes);
}

}  // namespace m3dfl::graphx
