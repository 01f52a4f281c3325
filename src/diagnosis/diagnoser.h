#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atpg/scan_config.h"
#include "diagnosis/report.h"
#include "netlist/fault_site.h"
#include "sim/failure_log.h"
#include "sim/fault_sim.h"

namespace m3dfl::diag {

using atpg::ScanConfig;
using netlist::Netlist;
using netlist::SiteTable;
using sim::FailureLog;
using sim::FaultSimulator;
using sim::Word;

/// Tuning of the effect-cause diagnosis engine.
struct DiagnoserOptions {
  /// Candidates scoring below keep_score_ratio * best are dropped.
  double keep_score_ratio = 0.70;
  /// Absolute floor: candidates below this Jaccard score are never kept.
  double min_score = 0.30;
  /// Report size cap. Ground truth beyond the cap is lost — the realistic
  /// accuracy-loss mechanism of commercial tools on large designs.
  std::size_t max_candidates = 48;
  /// Cap on suspect sites that are fault-simulated per log.
  std::size_t max_suspects = 3000;
  /// Single-fault suspect gathering keeps gates explaining at least this
  /// fraction of the failing responses (1.0 = strict intersection).
  /// Commercial tools keep near-miss candidates because real defects only
  /// approximate the fault model; this produces the partial-match report
  /// entries the 2D baseline [11] exists to prune.
  double single_fault_relax = 0.85;
  /// Multi-fault mode: union-based suspect collection + greedy cover.
  bool multifault = false;
};

/// Effect-cause TDF diagnosis with per-candidate fault-signature matching —
/// the library's stand-in for the paper's commercial ATPG diagnosis flow.
///
/// Pipeline per failure log:
///  1. structural back-trace: suspect gates = transitioning gates inside the
///     fan-in cones of the failing observation points (intersected across
///     distinct failing responses for a single defect, united for
///     multi-fault; a repeated log entry counts once). The
///     cones are walked per request over the netlist's fan-in lists, once
///     per distinct failing observation-point set, so the engine keeps no
///     per-design cone index — only O(gates) scratch;
///  2. candidate enumeration: stem and branch fault sites over the suspects;
///  3. per-candidate TDF fault simulation and signature matching against
///     the observed failure log — at the observation-point level in bypass
///     mode, at the (channel, cycle) level with compaction. One kSlow
///     machine scores both TDF polarities; it runs on the failing patterns
///     first and on the passing ones only for sites that matched;
///  4. ranking by match score and report assembly.
class Diagnoser {
 public:
  Diagnoser(const Netlist& nl, const SiteTable& sites, const ScanConfig& scan,
            DiagnoserOptions opts = {});

  /// Attaches the fault simulator (already bound to the pattern set).
  void bind(FaultSimulator& fsim);

  /// Diagnoses one failure log (compacted or not). Thread-compatible per
  /// instance (not thread-safe across concurrent calls). Throws
  /// std::invalid_argument, before touching any state, when an entry names
  /// a pattern, observation point, channel or cycle the design lacks.
  DiagnosisReport diagnose(const FailureLog& log);

  /// Step 1 alone: the suspect gates diagnose() scores for `log`, in
  /// scoring order. Validates `log` the same way.
  std::vector<netlist::GateId> suspect_gates(const FailureLog& log);

  const DiagnoserOptions& options() const { return opts_; }

 private:
  // Per-candidate predicted signatures (multi-fault greedy cover).
  struct Signature {
    std::vector<std::uint64_t> keys;  ///< Sorted (cell, pattern) keys.
  };
  // Scratch for signature matching.
  struct ScoreScratch {
    std::vector<Word> pred_diff;  ///< Packed rows, one per pred_touched.
    std::vector<std::uint32_t> pred_touched;
    std::vector<Word> pol_masks;  ///< Activation mask per scored polarity.
    std::vector<Word> cell_scratch;
    std::vector<std::size_t> touched_cells;
  };

  void check_log(const FailureLog& log) const;
  std::vector<Candidate> score_candidates(
      const FailureLog& log, const std::vector<netlist::GateId>& suspects);
  /// Scores one candidate site (both TDF polarities) against obs_mask_ in
  /// two exact phases on the bound simulator: its kSlow machine is
  /// simulated on the failing patterns, and on the passing patterns only
  /// if a polarity matched. Returns false when no polarity produced a
  /// match.
  bool score_site(bool compacted, std::size_t num_rows, netlist::SiteId site,
                  Candidate& best, Signature& best_sig);
  DiagnosisReport assemble_single(std::vector<Candidate> scored);
  DiagnosisReport assemble_multifault(std::vector<Candidate> scored);

  const Netlist* nl_;
  const SiteTable* sites_;
  ScanConfig scan_;
  DiagnoserOptions opts_;
  FaultSimulator* fsim_ = nullptr;

  // Back-trace scratch, sized on the first diagnose(). mark_[g] == epoch_
  // iff the current cone walk reached g; count_ is all-zero between
  // requests (only the gates in touched_ are ever nonzero).
  std::vector<std::uint32_t> mark_;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> count_;
  std::vector<netlist::GateId> touched_;
  std::vector<netlist::GateId> walk_;

  // Scratch for signature matching.
  std::vector<Word> obs_mask_;       ///< Observed diff masks (per obs/cell).
  std::size_t obs_total_fails_ = 0;  ///< Popcount of obs_mask_.
  std::vector<Word> fail_patterns_;  ///< Patterns with an observed fail.
  std::vector<Word> pass_patterns_;  ///< ~fail_patterns_.
  ScoreScratch scratch_;

  std::vector<Signature> signatures_;
};

}  // namespace m3dfl::diag
