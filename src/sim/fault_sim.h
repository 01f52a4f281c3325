#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/sim_core.h"

namespace m3dfl::sim {

/// Event-driven bit-parallel TDF fault simulator.
///
/// Semantics (the standard LoC surrogate model): a TDF at site s is
/// *activated* by pattern p when the fault-free two-vector simulation
/// launches the matching transition through s; the faulty machine then sees
/// the V1 (late) value at s during capture, i.e. the site behaves as a
/// conditional stuck-at of its V1 value. Effects are propagated through the
/// V2 network event-driven (level-ordered), and the failing observation
/// points are reported.
///
/// A simulator is a per-thread workspace over a shared, immutable SimCore
/// (the design's arena plus the good machine of the bound pattern set):
/// the good-machine simulation runs once per pattern set, when the core is
/// built, and observed_diff() then costs only the faulty cone, which makes
/// per-candidate signature matching in the diagnosis engine cheap.
///
/// Engine internals (see DESIGN.md "Fault-simulation engine"):
///  * Arena-id propagation: events run in arena ids over the arena's CSR
///    fan-in/fan-out, observation-point lists and levels.
///  * Output-cone pruning: faults whose injection gate lies outside every
///    output cone (the arena's observability mask) return immediately, and
///    propagation never enqueues fanout gates outside the observable cone.
///  * Flagged touched tracking: each gate is recorded, restored and
///    reported at most once per call (touched_outputs is duplicate-free).
///  * Zero-allocation steady state: all propagation scratch (activation and
///    faulty-value rows, branch overrides, level buckets, touched list) is
///    persistent member storage sized at bind(), so observed_diff()/detects()
///    perform no heap allocation after bind() (caller-owned output vectors
///    reuse their own capacity across calls).
class FaultSimulator {
 public:
  /// Lifetime workload counters. Plain (non-atomic) members on purpose: a
  /// simulator is only ever driven by one thread at a time. clone() starts
  /// the copy's counters at zero, and take_stats() snapshots-and-resets, so
  /// shard flushes (datagen, dictionary campaigns) can add whole snapshots
  /// without double-counting work inherited from a pooled clone's source.
  struct SimStats {
    std::uint64_t observed_diff_calls = 0;  ///< Faulty-machine simulations
                                            ///< (observed_diff + detects).
    std::uint64_t detected = 0;             ///< Calls with any failing pattern.
    std::uint64_t events_processed = 0;     ///< Gate evaluations performed.
    std::uint64_t words_evaluated = 0;      ///< 64-pattern words evaluated.
    std::uint64_t cone_skips = 0;  ///< Seeds/enqueues suppressed because the
                                   ///< gate reaches no observed output.
    std::uint64_t early_exits = 0;  ///< detects() calls that stopped at the
                                    ///< first failing observation point.
  };

  /// A workspace over a bound core.
  explicit FaultSimulator(std::shared_ptr<const SimCore> core);

  /// An unbound simulator of `nl`; builds the netlist's arena, which every
  /// bind() of a pattern set reuses.
  FaultSimulator(const netlist::Netlist& nl, const SiteTable& sites);

  FaultSimulator(const FaultSimulator&) = delete;
  FaultSimulator& operator=(const FaultSimulator&) = delete;

  /// Binds a V1 pattern set: runs good LoC simulation into a new core over
  /// this simulator's arena and sizes the workspace for it.
  void bind(const PatternSet& v1_inputs);

  /// Binds an enhanced-scan pattern pair (independently controllable V1 and
  /// V2 blocks of identical shape).
  void bind(const PatternSet& v1_inputs, const PatternSet& v2_inputs);

  /// Re-targets the workspace at another bound core.
  void bind(std::shared_ptr<const SimCore> core);

  const SimCore& core() const { return *core_; }
  const std::shared_ptr<const SimCore>& shared_core() const { return core_; }
  std::size_t num_words() const { return core_->num_words(); }
  std::size_t num_patterns() const { return core_->num_patterns(); }

  /// Simulates the faulty machine for the given (possibly multiple) faults.
  /// Fills `diff` (resized to num_outputs * num_words) with the packed
  /// pattern mask of miscompares per observation point, and returns true if
  /// any pattern fails. Invalid tail bits are already masked off.
  /// If `touched_outputs` is non-null it receives the indices of the
  /// observation points reached by the fault effect (a superset of the
  /// failing ones, duplicate-free); all other rows of `diff` are guaranteed
  /// zero, so signature matching needs to scan only these rows.
  bool observed_diff(std::span<const InjectedFault> faults,
                     std::vector<Word>& diff,
                     std::vector<std::uint32_t>* touched_outputs = nullptr);

  /// Convenience: single fault.
  bool observed_diff(const InjectedFault& fault, std::vector<Word>& diff,
                     std::vector<std::uint32_t>* touched_outputs = nullptr);

  /// Pattern-restricted, sparse variant for signature matching: the fault
  /// activates only on the patterns set in `patterns` (num_words() words),
  /// so every other pattern simulates fault-free. `touched_outputs`
  /// receives the observation points with a nonzero diff and `diff` their
  /// rows, packed in the same order (row i belongs to touched_outputs[i]).
  /// Nothing is zeroed per call, so the cost is the faulty cone's alone.
  bool observed_diff(const InjectedFault& fault, std::span<const Word> patterns,
                     std::vector<Word>& diff,
                     std::vector<std::uint32_t>& touched_outputs);

  /// Detect-only fast path: returns observed_diff(faults, ...)'s boolean
  /// without materializing the diff, stopping propagation as soon as any
  /// observed output differs on a valid pattern. The workspace is fully
  /// restored on return, so detects() and observed_diff() calls interleave
  /// freely on one simulator.
  bool detects(std::span<const InjectedFault> faults);

  /// Convenience: single fault.
  bool detects(const InjectedFault& fault);

  /// Activation mask of a fault under the bound patterns: bit p set iff
  /// pattern p launches the matching transition through the fault site.
  std::vector<Word> activation_mask(const InjectedFault& fault) const;

  /// Allocation-free form: writes the num_words() mask words into `act`.
  void activation_mask(const InjectedFault& fault, std::span<Word> act) const;

  /// True if the gate lies in the input cone of at least one observed
  /// output — i.e. a fault effect entering at this gate can be seen at all.
  bool gate_observable(netlist::GateId g) const {
    return arena_->observable(arena_->arena_of(g));
  }

  /// True if a fault at this site can reach any observed output (the
  /// cone-pruning predicate: stem faults enter at the site's gate, branch
  /// faults at the receiving gate).
  bool site_observable(SiteId s) const {
    return arena_->observable(arena_->site(s).gate);
  }

  /// A fresh workspace over this (bound) simulator's core: it shares the
  /// core and copies nothing fixed after bind, so cloning costs one
  /// faulty-value row set plus per-gate flags — the per-shard simulator of
  /// every parallel pipeline stage and serving worker. Clones behave
  /// identically to the original, zero-allocation steady state included.
  std::unique_ptr<FaultSimulator> clone() const;

  /// Workload counters since construction or the last take_stats() (clones
  /// start at zero).
  const SimStats& sim_stats() const { return stats_; }

  /// Snapshots the counters and resets them to zero — the shard-flush
  /// primitive: every flush site consumes exactly the work it observed,
  /// no matter how often the simulator is reused.
  SimStats take_stats() {
    SimStats s = stats_;
    stats_ = SimStats{};
    return s;
  }

 private:
  void ensure_bound() const;

  /// Shared engine behind observed_diff() and detects(). `patterns` (null =
  /// all) restricts activation; `diff` may be null (detect-only), and
  /// `sparse` selects the packed-row output of the pattern-restricted
  /// observed_diff(); `early_exit` stops propagation at the first observed
  /// miscompare. Always restores the workspace before returning.
  bool run_faulty(std::span<const InjectedFault> faults, const Word* patterns,
                  std::vector<Word>* diff,
                  std::vector<std::uint32_t>* touched_outputs, bool sparse,
                  bool early_exit);

  std::shared_ptr<const bitpar::NetlistArena> arena_;
  std::shared_ptr<const SimCore> core_;  ///< Null until bound.

  // Event-driven workspace, in arena ids (sized at bind(); no allocation
  // afterwards).
  std::vector<Word> faulty_;  ///< Faulty V2 rows; equal to the core's V2
                              ///< except inside a running call.
  /// Per-gate kQueued | kForced | kTouched flags, all zero between calls.
  std::vector<std::uint8_t> state_;
  std::vector<std::vector<std::uint32_t>> level_buckets_;
  std::vector<std::uint32_t> touched_;  ///< Duplicate-free, via kTouched.
  std::vector<Word> scratch_;  ///< One gate row of evaluation scratch.
  std::vector<Word> act_;      ///< One row of activation-mask scratch.
  std::vector<Word> fv_;       ///< One row of faulty-value scratch.

  /// Branch-fault overrides: (gate, pin) -> row slot in override_rows_.
  /// Small, so a flat list with linear scan is fastest.
  struct BranchOverride {
    std::uint32_t gate;
    std::int16_t pin;
    std::uint32_t row;
  };
  std::vector<BranchOverride> overrides_;
  std::vector<Word> override_rows_;  ///< overrides_[i] owns row i.

  SimStats stats_;
};

}  // namespace m3dfl::sim
