#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gnn/model.h"
#include "gnn/qkernels.h"

namespace m3dfl::gnn {

/// Dense row-major int8 matrix with rows padded to kQGemmPad bytes. Pad
/// bytes are always zero, so the padded row can be fed to the int8 GEMM
/// kernels whole (zero products change nothing) and no kernel needs a
/// tail loop.
class QMatrix {
 public:
  QMatrix() = default;
  QMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows),
        cols_(cols),
        stride_((cols + kQGemmPad - 1) / kQGemmPad * kQGemmPad),
        data_(rows * stride_, 0) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t stride() const { return stride_; }

  std::int8_t& at(std::size_t r, std::size_t c) {
    return data_[r * stride_ + c];
  }
  std::int8_t at(std::size_t r, std::size_t c) const {
    return data_[r * stride_ + c];
  }

  std::int8_t* row(std::size_t r) { return data_.data() + r * stride_; }
  const std::int8_t* row(std::size_t r) const {
    return data_.data() + r * stride_;
  }

  const std::int8_t* data() const { return data_.data(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t stride_ = 0;
  std::vector<std::int8_t> data_;
};

/// Symmetric int8 quantization of one value: round-to-nearest, clamped to
/// [-127, 127] (the saturation point of the whole pipeline — accumulation
/// itself is exact, see qkernels.h).
std::int8_t quantize_value(float v, float scale);

/// Calibration provenance carried with every quantized model: how many
/// sub-graphs fed the activation-scale collection and a fingerprint over
/// all chosen scales (FNV-1a of their bytes) — enough for /statusz to
/// prove which calibration a serving process runs.
struct QuantProvenance {
  std::size_t calib_graphs = 0;
  std::uint64_t scale_fingerprint = 0;
};

/// One quantized affine layer: y = dequant(q_x . q_w) + b, with the weight
/// matrix stored pre-transposed (out_dim rows of in_dim int8 values) so
/// the GEMM inner loop walks two contiguous rows.
///
/// Scales are symmetric per-layer for weights (absmax(W)/127) and
/// per-tensor for activations (absmax over the calibration set / 127);
/// the dequantization factor is their product.
struct QuantizedLinear {
  QMatrix wt;               ///< out_dim x in_dim (transposed weights).
  std::vector<float> bias;  ///< out_dim.
  float w_scale = 1.0f;     ///< w  ~= q_w * w_scale.
  float in_scale = 1.0f;    ///< x  ~= q_x * in_scale (calibrated).

  std::size_t in_dim() const { return wt.cols(); }
  std::size_t out_dim() const { return wt.rows(); }

  /// Quantizes `in` (rows x in_dim) with in_scale, runs the dispatched
  /// int8 GEMM, and dequantizes + adds bias into the returned float
  /// matrix (rows x out_dim). Thread-safe: scratch is thread-local.
  Matrix forward(const Matrix& in) const;

  /// forward() into a caller-owned matrix (reshaped to fit) — the serve
  /// hot loop's form; at sub-graph sizes the per-layer malloc/free pair
  /// costs as much as the GEMM. `result` must not alias `in`.
  void forward_into(const Matrix& in, Matrix& result) const;
};

/// Builds a QuantizedLinear from float weights W (in_dim x out_dim, the
/// library's forward layout) and bias, with the given calibrated
/// activation absmax.
QuantizedLinear quantize_linear(const Matrix& w, std::span<const float> bias,
                                float in_absmax);

/// Quantized GCN layer: float mean-aggregation (shared scalar code with
/// the fp32 path), int8 GEMM, scalar dequant + bias + ReLU. Only the pure
/// integer GEMM is SIMD-dispatched, so cross-tier bit-identity of the
/// whole forward is structural.
struct QuantizedGcnLayer {
  QuantizedLinear lin;
  Matrix forward(const SubGraph& g, const Matrix& h_in) const;
};

struct QuantizedGcnStack {
  std::vector<QuantizedGcnLayer> layers;
  std::size_t out_dim() const {
    return layers.empty() ? 0 : layers.back().lin.out_dim();
  }
  /// Forward through all layers; feeds the
  /// gnn.inference.layer_forward_seconds histogram (1-in-16 sampled — see
  /// obs::hot_path_sample).
  Matrix forward(const SubGraph& g, const Matrix& x) const;

  /// forward() into a caller-owned matrix (reshaped to fit). Intermediate
  /// layers run through thread-local scratch, so the whole stack performs
  /// zero steady-state allocations. `out` must not alias `x`.
  void forward_into(const SubGraph& g, const Matrix& x, Matrix& out) const;
};

struct QuantCalibrationOptions {
  /// Worker threads for the calibration sweep (0 = hardware concurrency,
  /// as resolve_num_threads() reads every stage's knob). The collected
  /// statistic is a per-tensor absmax — order-independent — so scales are
  /// bit-identical at every thread count.
  std::size_t num_threads = 1;
};

/// int8 twin of GraphClassifier: quantized GCN stack + mean-pool readout +
/// quantized classification head(s) + float softmax.
class QuantizedGraphClassifier {
 public:
  std::size_t num_classes() const { return head_out.out_dim(); }

  /// Class probabilities (float path). Empty graphs yield uniform output,
  /// matching GraphClassifier::predict.
  std::vector<float> predict_probs(const SubGraph& g) const;

  /// Double-widening shim over predict_probs (float->double widening is
  /// exact, so threshold comparisons agree with the float path bit-wise).
  std::vector<double> predict(const SubGraph& g) const;

  QuantizedGcnStack stack;
  bool has_hidden_head = false;
  QuantizedLinear head_hidden;  ///< pooled -> hidden (ReLU).
  QuantizedLinear head_out;     ///< -> logits.
  QuantProvenance provenance;
};

/// int8 twin of NodeScorer: quantized GCN stack + the original float
/// scoring head (a single dot product per MIV node — negligible work, and
/// scalar either way so it cannot break cross-tier bit-identity).
class QuantizedNodeScorer {
 public:
  /// Sigmoid scores for the sub-graph's MIV nodes (parallel to
  /// g.miv_local), like NodeScorer::predict_miv.
  std::vector<double> predict_miv(const SubGraph& g) const;

  QuantizedGcnStack stack;
  Matrix Wo;               ///< stack.out_dim() x 1 (float head).
  std::vector<float> bo;   ///< Single bias.
  QuantProvenance provenance;
};

/// Post-training calibration + weight quantization. The calibration set
/// supplies per-tensor activation absmax for every quantized GEMM input
/// (per-layer aggregated features; pooled readout; hidden activation).
QuantizedGraphClassifier quantize_graph_classifier(
    const GraphClassifier& model, std::span<const SubGraph* const> calib,
    const QuantCalibrationOptions& opts = {});

QuantizedNodeScorer quantize_node_scorer(
    const NodeScorer& model, std::span<const SubGraph* const> calib,
    const QuantCalibrationOptions& opts = {});

}  // namespace m3dfl::gnn
