// The three stages of one benchmark run. run.py launches each as its own
// process: `onboard` writes the framework file, `pool` writes the file of
// failure logs to serve, and `serve` loads both, so the serving process
// never holds training designs, datasets or the log generator's state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "netlist/fault_site.h"
#include "sim/failure_log.h"

namespace e2e {

struct StageOptions {
  double seconds = 30.0;      ///< Nominal measured time of the whole run.
  std::uint64_t seed = 1;     ///< Backlog order, checked subset.
  bool trace = false;         ///< Traced run: per-layer metrics.
  std::string framework_path; ///< Written by onboard, read by the others.
  std::string pool_path;      ///< Written by pool, read by serve.
  std::string result_path;    ///< StageResult JSON.
  std::string trace_path;     ///< Chrome trace (traced runs only).
};

int run_onboard(const Workload& w, const StageOptions& opt);
int run_pool(const Workload& w, const StageOptions& opt);
int run_serve(const Workload& w, const StageOptions& opt);

/// One chip under diagnosis: its failure log and the injected fault sites.
struct PoolLog {
  m3dfl::sim::FailureLog log;
  std::vector<m3dfl::netlist::SiteId> truth;
};

/// Reads the file the pool stage wrote; false (with `error`) when it is
/// missing or malformed.
bool read_pool(const std::string& path, std::vector<PoolLog>& out,
               std::string& error);

/// Writes the result file and a one-line summary on stdout. Returns 0 when
/// the file was written (output-check failures travel inside it).
int finish_stage(const StageResult& res, const StageOptions& opt);

}  // namespace e2e
