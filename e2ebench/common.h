// Shared pieces of the end-to-end benchmark program: workload definitions,
// timing helpers, and the small JSON writer both stages use to hand their
// results to run.py.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "eval/benchmarks.h"
#include "eval/datagen.h"
#include "eval/experiments.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated percentile (pct in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> v, double pct);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Threads that do the compute in every stage (executor workers, campaign
/// shards, training). The host budget is nproc (4) threads per process.
inline constexpr std::size_t kComputeThreads = 2;

/// One named workload: a design taken through onboarding (dictionary,
/// datagen, training into a framework file) and then served under a fixed
/// traffic shape. The nominal_* rates convert --seconds into fixed work;
/// they are constants, so both commits of a comparison do identical work.
struct Workload {
  std::string name;
  m3dfl::eval::BenchmarkSpec spec;
  m3dfl::eval::InferenceMode inference = m3dfl::eval::InferenceMode::kFp32;

  // -- Onboarding ----------------------------------------------------------
  /// Training recipe (datagen counts, epochs) — the library's
  /// build_training_bundle + train_framework sizing knobs.
  m3dfl::eval::RunScale train_scale;
  double nominal_dict_campaign_s = 1.0;  ///< One full Syn-1 campaign.
  double nominal_datagen_per_s = 1.0;    ///< Samples per second.
  /// Training runs; train_graphs_per_s is the fastest of their rates.
  std::size_t train_reps = 5;

  // -- Serving -------------------------------------------------------------
  double rate_rps = 1.0;  ///< Open-loop Poisson arrival rate.
  /// Open-loop length as a share of --seconds.
  double open_share = 0.55;
  /// 0: every request carries a distinct log (the sub-graph LRU always
  /// misses). > 0: requests cycle through shuffled passes over a pool of
  /// this many logs, so the LRU hits on part of them.
  std::size_t hot_pool = 0;
  double nominal_capacity_rps = 1.0;  ///< Sizes the backlog phase.
  std::size_t checked_logs = 8;       ///< Logs re-diagnosed sequentially
                                      ///< per untraced run.
  int setup_reps = 3;  ///< Serving set-ups per run; setup_s is their median.

  // -- Fixed work derived from --seconds -----------------------------------
  std::size_t dict_reps(double seconds) const;
  std::size_t datagen_samples(double seconds) const;
  std::size_t open_requests(double seconds) const;
  std::size_t backlog_requests(double seconds) const;
  /// Distinct logs in the served pool.
  std::size_t pool_logs(double seconds) const;
};

/// The workloads, by name; nullptr for an unknown name.
const Workload* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// latency_tail_ms is the kTailPercentile of each consecutive window of
/// kTailWindow open-loop requests (the whole phase when it is shorter), and
/// the median over the windows is reported, so a host stall moves one
/// window, not the metric. m3d100k's ~211 requests leave ~21 samples
/// beyond p90; tiny_hot's windows would support p99, but its unwindowed p99
/// spread 54% over ten runs on a shared 4-CPU host (host stalls, not the
/// service).
inline constexpr double kTailPercentile = 90.0;
inline constexpr std::size_t kTailWindow = 1000;

/// Share of --seconds each timed phase gets.
inline constexpr double kDictShare = 0.04;
inline constexpr double kDatagenShare = 0.12;
inline constexpr double kBacklogShare = 0.25;
/// The backlog is served in this many bursts, each after one of as many
/// open-loop segments.
inline constexpr std::size_t kBacklogBursts = 4;

/// Seed of the log pool and of the open loop (which log rides on each
/// arrival, and the arrival gaps). Both are part of the workload (the chips
/// under diagnosis and the tester's pace), so every run offers the same
/// open-loop work; --seed varies the backlog's order and which responses
/// are re-diagnosed for the output check.
inline constexpr std::uint64_t kPoolSeed = 0x5eed2026ull;

/// `n` single-fault bypass samples of `design` from `seed`, generated
/// bit-parallel on the compute threads.
m3dfl::eval::Dataset generate_logs(const m3dfl::eval::Design& design,
                                   std::size_t n, std::uint64_t seed);

/// Flat result record a stage writes for run.py: metrics by name plus
/// per-phase operation accounting and free-form notes.
struct StageResult {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  struct Phase {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, Phase> phases;
  std::map<std::string, std::string> notes;  ///< String-valued facts.
  std::vector<std::string> mismatches;       ///< Output-check failures.

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void count(const std::string& phase, std::uint64_t attempted,
             std::uint64_t failed) {
    phases[phase].attempted += attempted;
    phases[phase].failed += failed;
  }
  std::string to_json() const;
};

/// Writes `text` to `path`; false on I/O failure.
bool write_file(const std::string& path, const std::string& text);

/// Parsed command line of a stage: --key value pairs.
struct Args {
  std::map<std::string, std::string> kv;
  std::string get(const std::string& k, const std::string& def = "") const;
  double num(const std::string& k, double def) const;
};
bool parse_args(int argc, char** argv, int first, Args& out);

/// Starts or stops span recording (library spans and this program's own).
void set_tracing(bool on);
/// Writes every span recorded so far as a Chrome trace to `path`.
bool write_trace(const std::string& path);

}  // namespace e2e
