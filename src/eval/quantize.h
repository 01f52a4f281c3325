#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "eval/experiments.h"

namespace m3dfl::eval {

struct QuantizeOptions {
  /// Threads for the calibration sweep, 0 = hardware concurrency (scales
  /// are bit-identical at every value; see gnn::QuantCalibrationOptions).
  std::size_t num_threads = 1;
  /// Precision target for re-deriving T_p on the quantized confidence
  /// distribution (matches RunScale::tp_precision_target).
  double tp_precision_target = 0.99;
};

/// Side-by-side quality accounting of the fp32 and int8 paths on the same
/// evaluation samples — the `m3dfl quantize` / `m3dfl eval` report.
struct QuantReport {
  std::size_t calib_graphs = 0;
  std::uint64_t fingerprint = 0;  ///< Combined scale fingerprint.
  bool has_int8 = false;  ///< int8 columns below are meaningful.

  // Tier-predictor correctness-PR curve (the Table-IV construction).
  double fp32_auprc = 0.0;
  double int8_auprc = 0.0;
  double fp32_t_p = 0.0;          ///< Threshold at the precision target.
  double int8_t_p = 0.0;          ///< Re-selected on quantized scores.
  double fp32_recall_at_tp = 0.0;
  double int8_recall_at_tp = 0.0;

  // MIV-pinpointer recall@3 over graphs with a labeled faulty MIV.
  double fp32_miv_recall3 = -1.0;  ///< -1 when no labeled graphs given.
  double int8_miv_recall3 = -1.0;

  /// Largest |fp32 - int8| over every tier probability and MIV score
  /// evaluated — the end-to-end quantization error bound the tests gate.
  double max_abs_score_delta = 0.0;

  double auprc_delta() const { return int8_auprc - fp32_auprc; }
};

/// Calibrates and attaches an int8 twin to `fw` (fw.quant) and returns the
/// fp32-vs-int8 comparison. `calib` feeds activation-scale collection;
/// `tier_eval` drives the PR curves and the re-selection of T_p on
/// quantized confidences; `miv_eval` (graphs with miv_label filled, may be
/// empty) drives recall@3. The twin's policy inherits fw.policy except for
/// the re-derived T_p.
QuantReport quantize_framework(TrainedFramework& fw,
                               std::span<const graphx::SubGraph* const> calib,
                               std::span<const gnn::LabeledGraph> tier_eval,
                               std::span<const graphx::SubGraph* const>
                                   miv_eval,
                               const QuantizeOptions& opts = {});

/// Evaluation without (re-)calibration — the `m3dfl eval` driver. Always
/// fills the fp32 columns; with mode == kInt8 it additionally evaluates
/// the framework's existing quantized twin side by side (the caller must
/// check fw.quant first — a missing twin yields an fp32-only report).
QuantReport evaluate_framework(const TrainedFramework& fw,
                               InferenceMode mode,
                               std::span<const gnn::LabeledGraph> tier_eval,
                               std::span<const graphx::SubGraph* const>
                                   miv_eval,
                               double tp_precision_target = 0.99);

/// Formats a QuantReport as the aligned key/value block the CLI prints.
std::string format_quant_report(const QuantReport& report);

}  // namespace m3dfl::eval
