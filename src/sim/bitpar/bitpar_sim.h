#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/bitpar/arena.h"
#include "sim/bitpar/dispatch.h"
#include "sim/bitpar/kernels.h"
#include "sim/bitpar/sweep.h"
#include "sim/failure_log.h"
#include "sim/fault_sim.h"

namespace m3dfl::sim::bitpar {

/// Bit-parallel fault simulator: up to kMaxLanes (512) fault machines per
/// pass, one machine per bit lane. Where the event-driven FaultSimulator
/// walks one fault's cone per call, this engine packs 64 faults per word
/// (a *block*), clusters cone-similar machines into the same block, and
/// compiles each block's union forward cone into a flat, branch-light
/// schedule. Delta rows hold one word per pattern, so the SIMD kernels
/// (see dispatch.h) stream across pattern words — the batch amortizes the
/// schedule while keeping the event engine's pattern parallelism.
///
/// Equivalence contract: for every lane, the miscompare set (output,
/// pattern) is bit-identical to FaultSimulator::observed_diff on the same
/// fault machine — all five polarities, stem and branch sites, multi-fault
/// machines, partial tail words. The golden tests in tests/bitpar_test.cpp
/// enforce this against every available SIMD tier.
///
/// Threading: the simulator reads the design's immutable SimCore (the
/// arena and the arena-major good-machine rows the event engine also
/// reads) and holds no rows of its own; all per-batch scratch lives in a
/// caller-owned Workspace, so there is no clone()/pool dance — N shards =
/// N workspaces, one simulator.
class BitParallelSimulator {
 public:
  /// `core` must outlive the simulator.
  explicit BitParallelSimulator(const SimCore& core,
                                SimdTier tier = resolve_tier());

  SimdTier tier() const { return tier_; }
  std::size_t num_patterns() const { return core_->num_patterns(); }
  std::size_t num_words() const { return core_->num_words(); }
  const NetlistArena& arena() const { return core_->arena(); }

  /// Result of one batch. Fail records are sparse (only miscompares are
  /// stored); the per-lane extraction helpers reproduce the event engine's
  /// outputs exactly.
  struct BatchResult {
    std::size_t num_machines = 0;
    std::size_t num_outputs = 0;
    std::size_t num_words = 0;
    std::size_t num_patterns = 0;
    std::vector<FailRecord> fails;
    Word detected[kLaneWords] = {};
    /// Internal lane of caller machine j (machines are permuted to
    /// cluster cone-similar faults into the same 64-lane block).
    std::vector<std::uint32_t> lane_of;

    /// True iff machine j fails at least one (output, pattern).
    bool detected_lane(std::size_t j) const {
      const std::uint32_t l = lane_of[j];
      return (detected[l >> 6] >> (l & 63)) & 1;
    }
    /// Sorted (output << 32 | pattern) keys of machine j — the dictionary
    /// signature format (identical to keys_from_diff on the event diff).
    void keys_of(std::size_t j, std::vector<std::uint64_t>& keys) const;
    /// Dense diff buffer of machine j, identical to observed_diff's
    /// output (num_outputs * num_words, tail-masked). Returns detected.
    bool diff_of(std::size_t j, std::vector<Word>& diff) const;
    /// Uncompacted failure log of machine j, identical to
    /// failure_log_from_diff over the dense diff.
    FailureLog failure_log_of(std::size_t j) const;
  };

  /// Reusable per-shard scratch: batch schedules, delta rows, activation
  /// rows and workload counters. Shards flush `stats` into the
  /// sim.bitpar.* metrics (plain struct — read and reset at will).
  struct Workspace {
    BitParStats stats;

   private:
    friend class BitParallelSimulator;
    struct Pending {
      std::uint32_t gate;
      std::int16_t pin;
      std::uint16_t lane;
      std::uint16_t act_row;
    };
    struct Group {
      std::uint32_t gate;
      std::int16_t pin;
      std::uint16_t point;
    };
    std::vector<Word> act;
    std::vector<Word> union_act;
    std::vector<std::uint32_t> order;
    std::vector<Pending> pending;
    std::vector<Group> groups;
    std::vector<InjectPoint> points;
    std::vector<LaneInject> lane_injects;
    std::vector<Word> point_masks;
    std::vector<std::uint8_t> marked;
    std::vector<std::uint32_t> bfs;
    std::vector<std::uint32_t> sched_ids;
    std::vector<std::uint32_t> slot_of;
    std::vector<CompiledGate> sched;
    std::vector<OutputTap> taps;
    std::vector<Word> delta;
    std::vector<Word> eff;
    std::vector<std::span<const InjectedFault>> single_spans;
  };

  /// Simulates up to kMaxLanes single-fault machines: lane j carries
  /// faults[j] alone (the dictionary-campaign shape).
  void run(std::span<const InjectedFault> faults, Workspace& ws,
           BatchResult& out) const;

  /// Simulates up to kMaxLanes multi-fault machines: lane j carries every
  /// fault of machines[j] (the datagen shape). Empty machines are inert.
  void run_machines(std::span<const std::span<const InjectedFault>> machines,
                    Workspace& ws, BatchResult& out) const;

 private:
  void run_block(std::span<const std::span<const InjectedFault>> machines,
                 std::size_t lane_lo, std::size_t lane_hi, Workspace& ws,
                 BatchResult& out) const;

  const SimCore* core_;
  const NetlistArena* arena_;
  SimdTier tier_;
  SweepFn sweep_;
  std::size_t row_words_;  ///< num_patterns() padded to kRowStride.
};

/// Adds the counters to the sim.bitpar.* registry metrics and resets them
/// (take-semantics, mirroring FaultSimulator::take_stats) — the shard
/// flush used by the dictionary and datagen campaigns.
void flush_bitpar_metrics(BitParStats& stats);

}  // namespace m3dfl::sim::bitpar
