// Fault-simulation engine throughput: the event-driven FaultSimulator vs
// the bit-parallel backend at batch sizes 1/64/256/512, on the dictionary-
// campaign shape (every (site, polarity) job in site-major order, so
// adjacent lanes share overlapping cones — the workload the backend was
// built for). Before timing, the bit-parallel detect sets are checked
// bit-identical to the event engine's, so the bench doubles as a coarse
// equivalence smoke. Emits BENCH_bitpar_throughput.json (google-benchmark
// JSON schema) for the CI regression gate (tools/bench_compare).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "netlist/generators.h"
#include "obs/build_info.h"
#include "obs/prof/counters.h"
#include "sim/bitpar/arena.h"
#include "sim/bitpar/bitpar_sim.h"
#include "sim/bitpar/dispatch.h"
#include "sim/fault_sim.h"

namespace {

using Clock = std::chrono::steady_clock;
using namespace m3dfl;
using sim::bitpar::BitParallelSimulator;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Run {
  std::string name;
  std::size_t items = 0;
  double wall_seconds = 0.0;
  /// Extra JSON fields (",\n      \"ipc\": ..."), empty without hardware
  /// counters — additive keys bench_compare notes but never gates on.
  std::string hw_extra;

  double per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(items) / wall_seconds
                              : 0.0;
  }
};

#if M3DFL_OBS_ENABLED
/// Snapshots the calling thread's counter group; diff() renders the IPC /
/// cache fields of the region since construction. The bench is single-
/// threaded, so thread-local counters cover every timed loop exactly.
class HwRegion {
 public:
  HwRegion() { valid_ = m3dfl::obs::prof::read_thread_counters(&start_); }

  std::string diff() const {
    m3dfl::obs::prof::CounterValues end;
    if (!valid_ || !m3dfl::obs::prof::read_thread_counters(&end) ||
        !start_.hw_valid || !end.hw_valid ||
        end.instructions <= start_.instructions) {
      return {};
    }
    const double instr =
        static_cast<double>(end.instructions - start_.instructions);
    const double cycles = static_cast<double>(end.cycles - start_.cycles);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ",\n      \"ipc\": %.3f"
                  ",\n      \"llc_misses_per_kinstr\": %.3f"
                  ",\n      \"branch_misses_per_kinstr\": %.3f",
                  cycles > 0.0 ? instr / cycles : 0.0,
                  1e3 * static_cast<double>(end.llc_misses -
                                            start_.llc_misses) / instr,
                  1e3 * static_cast<double>(end.branch_misses -
                                            start_.branch_misses) / instr);
    return buf;
  }

 private:
  bool valid_ = false;
  m3dfl::obs::prof::CounterValues start_;
};
#else
struct HwRegion {
  std::string diff() const { return {}; }
};
#endif

/// Per-job digest: detection flag folded with an FNV-1a over the sorted
/// miscompare keys — equal digests mean equal detect sets.
std::uint64_t keys_digest(bool detected,
                          const std::vector<std::uint64_t>& keys) {
  std::uint64_t h = detected ? 0xcbf29ce484222325ULL : 0x84222325ULL;
  for (std::uint64_t k : keys) {
    h ^= k;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

int main() {
  std::puts("Fault-simulation throughput: event-driven vs bit-parallel");
  std::puts("(dictionary-campaign shape: every (site, polarity) job,");
  std::puts(" site-major; detect sets verified bit-identical first)\n");

  const bool fast = std::getenv("M3DFL_FAST") != nullptr;

  netlist::GeneratorParams p;
  p.num_logic_gates = fast ? 400 : 1500;
  p.num_scan_cells = 32;
  p.num_levels = fast ? 8 : 12;
  p.seed = 7;
  const netlist::Netlist nl = generate_netlist(p);
  const netlist::SiteTable sites(nl);
  const std::size_t patterns = fast ? 96 : 256;

  sim::FaultSimulator fsim(nl, sites);
  Rng rng(8);
  const sim::PatternSet v1 =
      sim::PatternSet::random(nl.num_inputs(), patterns, rng);
  const sim::PatternSet v2 =
      sim::PatternSet::random(nl.num_inputs(), patterns, rng);
  fsim.bind(v1, v2);

  const BitParallelSimulator bp(fsim.core());

  std::printf("design: %zu gates, %zu sites, %zu patterns\n",
              nl.num_gates(), sites.size(), patterns);
  std::printf("simd tier: %s (cpu: sse2=%d avx2=%d)\n\n",
              sim::bitpar::tier_name(bp.tier()),
              sim::bitpar::cpu_features().sse2 ? 1 : 0,
              sim::bitpar::cpu_features().avx2 ? 1 : 0);

  // The campaign job list: both transition polarities per site.
  std::vector<sim::InjectedFault> jobs;
  jobs.reserve(sites.size() * 2);
  for (netlist::SiteId s = 0; s < sites.size(); ++s) {
    jobs.push_back({s, sim::FaultPolarity::kSlowToRise});
    jobs.push_back({s, sim::FaultPolarity::kSlowToFall});
  }

  std::vector<Run> runs;

  // Event-driven reference sweep (also records the golden digests).
  std::vector<std::uint64_t> event_digests(jobs.size());
  {
    std::vector<sim::Word> diff;
    std::vector<std::uint32_t> touched;
    std::vector<std::uint64_t> keys;
    const std::size_t W = fsim.num_words();
    const HwRegion hw;
    const auto t0 = Clock::now();
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const bool detected = fsim.observed_diff(jobs[j], diff, &touched);
      keys.clear();
      for (std::uint32_t o : touched) {
        for (std::size_t w = 0; w < W; ++w) {
          for (sim::Word m = diff[o * W + w]; m; m &= m - 1) {
            const std::size_t pat =
                w * sim::kWordBits +
                static_cast<std::size_t>(__builtin_ctzll(m));
            if (pat < patterns) {
              keys.push_back((static_cast<std::uint64_t>(o) << 32) | pat);
            }
          }
        }
      }
      std::sort(keys.begin(), keys.end());
      event_digests[j] = keys_digest(detected, keys);
    }
    runs.push_back(
        {"faultsim/event", jobs.size(), seconds_since(t0), hw.diff()});
  }

  // Untimed equivalence pass: every job's detect set must match the event
  // engine bit for bit before any bit-parallel number is reported.
  BitParallelSimulator::Workspace ws;
  BitParallelSimulator::BatchResult res;
  std::vector<std::uint64_t> keys;
  for (std::size_t base = 0; base < jobs.size(); base += 512) {
    const std::size_t count = std::min<std::size_t>(512, jobs.size() - base);
    bp.run(std::span<const sim::InjectedFault>(jobs).subspan(base, count), ws,
           res);
    for (std::size_t j = 0; j < count; ++j) {
      res.keys_of(j, keys);
      if (keys_digest(res.detected_lane(j), keys) != event_digests[base + j]) {
        std::printf("FATAL: bitpar diverged from event at job %zu\n",
                    base + j);
        return 1;
      }
    }
  }
  std::puts("equivalence: all detect sets bit-identical to the event engine");

  // Timed bit-parallel sweeps at each batch size.
  ws.stats = sim::bitpar::BitParStats{};
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{64}, std::size_t{256}, std::size_t{512}}) {
    const HwRegion hw;
    const auto t0 = Clock::now();
    for (std::size_t base = 0; base < jobs.size(); base += batch) {
      const std::size_t count = std::min(batch, jobs.size() - base);
      bp.run(std::span<const sim::InjectedFault>(jobs).subspan(base, count),
             ws, res);
    }
    runs.push_back({"faultsim/bitpar_batch" + std::to_string(batch),
                    jobs.size(), seconds_since(t0), hw.diff()});
    std::printf("  batch %3zu: %.1fM row words, %.2fM gate evals\n", batch,
                ws.stats.lane_words_evaluated / 1e6, ws.stats.gate_evals / 1e6);
    ws.stats = sim::bitpar::BitParStats{};
  }

  std::puts("Engine                          Jobs      Wall (s)     Jobs/s");
  for (const Run& r : runs) {
    std::printf("%-28s %8zu %12.4f %12.1f\n", r.name.c_str(), r.items,
                r.wall_seconds, r.per_second());
  }
  const double vs_event = runs.back().wall_seconds > 0.0
                              ? runs[0].wall_seconds / runs.back().wall_seconds
                              : 0.0;
  const double vs_batch1 = runs.back().wall_seconds > 0.0
                               ? runs[1].wall_seconds / runs.back().wall_seconds
                               : 0.0;
  std::printf(
      "\nSpeedup at batch 512: %.1fx vs event engine, %.1fx vs batch 1\n",
      vs_event, vs_batch1);

  std::ofstream os("BENCH_bitpar_throughput.json");
  os << "{\n  \"context\": {\n"
     << "    \"executable\": \"bench_bitpar_throughput\",\n"
     << "    \"build\": " << obs::build_info_json() << ",\n"
     << "    \"num_gates\": " << nl.num_gates() << ",\n"
     << "    \"num_sites\": " << sites.size() << ",\n"
     << "    \"num_patterns\": " << patterns << ",\n"
     << "    \"simd_tier\": \"" << sim::bitpar::tier_name(bp.tier())
     << "\"\n  },\n"
     << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    os << "    {\n"
       << "      \"name\": \"" << r.name << "\",\n"
       << "      \"run_type\": \"iteration\",\n"
       << "      \"iterations\": " << r.items << ",\n"
       << "      \"real_time\": " << r.wall_seconds * 1e3 << ",\n"
       << "      \"time_unit\": \"ms\",\n"
       << "      \"items_per_second\": " << r.per_second() << r.hw_extra
       << "\n    }" << (i + 1 == runs.size() ? "\n" : ",\n");
  }
  os << "  ]";
#if M3DFL_OBS_ENABLED
  {
    // Counter availability as context, so a scrape of the JSON says whether
    // missing ipc fields mean "no hardware counters" or "regression".
    const m3dfl::obs::prof::CounterAvailability& av =
        m3dfl::obs::prof::counter_availability();
    os << ",\n  \"hw_counters\": {\"mode\": \""
       << m3dfl::obs::prof::counter_mode_name(av.mode) << "\"}";
  }
#endif
  os << "\n}\n";
  std::puts("wrote BENCH_bitpar_throughput.json");
  return 0;
}
