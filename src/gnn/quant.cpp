#include "gnn/quant.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/executor.h"
#include "obs/metrics.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace m3dfl::gnn {

namespace {

/// Quantizes one row of floats into int8 with round-to-nearest-even — the
/// activation-side hot loop of every quantized GEMM. The SSE2 body is not
/// part of the dispatched kernel family: it is baseline x86-64 and runs
/// identically under every forced GEMM tier, and cvtps2dq rounds exactly
/// like lrintf in the default rounding mode, so the scalar fallback (and
/// quantize_value itself) produce the same bytes.
void quantize_row(const float* src, std::int8_t* dst, std::size_t n,
                  float inv) {
  std::size_t c = 0;
#if defined(__SSE2__)
  const __m128 vinv = _mm_set1_ps(inv);
  const __m128i lo = _mm_set1_epi16(-127);
  const __m128i hi = _mm_set1_epi16(127);
  for (; c + 8 <= n; c += 8) {
    const __m128i a =
        _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(src + c), vinv));
    const __m128i b =
        _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(src + c + 4), vinv));
    __m128i w = _mm_packs_epi32(a, b);  // Saturate to int16 lanes.
    w = _mm_min_epi16(_mm_max_epi16(w, lo), hi);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + c),
                     _mm_packs_epi16(w, w));
  }
#endif
  for (; c < n; ++c) {
    const long q = std::lrintf(src[c] * inv);
    dst[c] = static_cast<std::int8_t>(std::clamp<long>(q, -127, 127));
  }
}

/// FNV-1a over raw bytes, for the calibration fingerprint. (serve/ has its
/// own copy for cache keys; gnn cannot depend on serve, and 8 lines beat a
/// new shared header.)
std::uint64_t fnv1a64(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

std::uint64_t hash_scales(std::uint64_t h, const QuantizedLinear& lin) {
  h = fnv1a64(&lin.in_scale, sizeof(lin.in_scale), h);
  h = fnv1a64(&lin.w_scale, sizeof(lin.w_scale), h);
  return h;
}

float absmax_of(const Matrix& m) {
  float mx = 0.0f;
  const float* p = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) mx = std::max(mx, std::abs(p[i]));
  return mx;
}

/// absmax / 127 with the degenerate all-zero tensor mapped to scale 1.0
/// (every quantized value is then exactly 0; no division by zero anywhere).
float scale_from_absmax(float absmax) {
  return absmax > 0.0f ? absmax / 127.0f : 1.0f;
}

void record_layer_latency(std::chrono::steady_clock::time_point t0) {
  static obs::LatencyHistogram& hist = obs::MetricsRegistry::instance()
      .histogram("gnn.inference.layer_forward_seconds");
  hist.record(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count());
}

/// Per-tensor absmax statistics of a GraphClassifier forward pass — the
/// inputs of every GEMM the quantized twin will run in int8.
struct ClassifierAbsmax {
  std::vector<float> layer_in;  ///< Aggregated features entering layer l.
  float pooled = 0.0f;          ///< Mean-pool readout.
  float hidden = 0.0f;          ///< Hidden-head activation (if any).

  void merge(const ClassifierAbsmax& o) {
    if (layer_in.size() < o.layer_in.size()) layer_in.resize(o.layer_in.size());
    for (std::size_t i = 0; i < o.layer_in.size(); ++i) {
      layer_in[i] = std::max(layer_in[i], o.layer_in[i]);
    }
    pooled = std::max(pooled, o.pooled);
    hidden = std::max(hidden, o.hidden);
  }
};

/// Runs the fp32 forward on one calibration graph, recording the absmax of
/// every quantized-GEMM input.
void observe_classifier(const GraphClassifier& m, const SubGraph& g,
                        ClassifierAbsmax& st) {
  if (g.num_nodes() == 0) return;
  st.layer_in.resize(m.stack.layers.size(), 0.0f);
  Matrix h = features_matrix(g);
  for (std::size_t l = 0; l < m.stack.layers.size(); ++l) {
    const GcnLayer& layer = m.stack.layers[l];
    Matrix agg = GcnLayer::aggregate(g, h);
    st.layer_in[l] = std::max(st.layer_in[l], absmax_of(agg));
    Matrix z = matmul(agg, layer.W);
    add_bias_rows(z, layer.b);
    relu_inplace(z);
    h = std::move(z);
  }
  Matrix pooled = row_mean(h);
  st.pooled = std::max(st.pooled, absmax_of(pooled));
  if (m.has_hidden_head) {
    Matrix hid = matmul(pooled, m.Wh);
    add_bias_rows(hid, m.bh);
    relu_inplace(hid);
    st.hidden = std::max(st.hidden, absmax_of(hid));
  }
}

/// Same sweep for a NodeScorer — only the stack runs in int8 there.
void observe_scorer(const NodeScorer& m, const SubGraph& g,
                    ClassifierAbsmax& st) {
  if (g.num_nodes() == 0) return;
  st.layer_in.resize(m.stack.layers.size(), 0.0f);
  Matrix h = features_matrix(g);
  for (std::size_t l = 0; l < m.stack.layers.size(); ++l) {
    const GcnLayer& layer = m.stack.layers[l];
    Matrix agg = GcnLayer::aggregate(g, h);
    st.layer_in[l] = std::max(st.layer_in[l], absmax_of(agg));
    Matrix z = matmul(agg, layer.W);
    add_bias_rows(z, layer.b);
    relu_inplace(z);
    h = std::move(z);
  }
}

/// Largest run of calibration graphs a shard claims at once.
constexpr std::size_t kMaxCalibChunk = 16;

/// Sweeps the calibration set with for_each_chunk, one statistic per shard,
/// and max-merges them. absmax is order-independent under max, so the
/// merged scales are bit-identical at every thread count and chunking.
template <typename Observe>
ClassifierAbsmax sweep_calibration(std::span<const SubGraph* const> calib,
                                   std::size_t num_threads, Observe observe) {
  const std::size_t shards = std::min(resolve_num_threads(num_threads),
                                      std::max<std::size_t>(calib.size(), 1));
  std::vector<ClassifierAbsmax> partial(shards);
  for_each_chunk(shards, calib.size(), kMaxCalibChunk, "quant_calib",
                 [&](std::size_t shard, std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i) {
                     observe(*calib[i], partial[shard]);
                   }
                 });
  ClassifierAbsmax total;
  for (const ClassifierAbsmax& p : partial) total.merge(p);
  return total;
}

QuantizedGcnStack quantize_stack(const GcnStack& stack,
                                 std::span<const float> layer_absmax) {
  QuantizedGcnStack q;
  q.layers.reserve(stack.layers.size());
  for (std::size_t l = 0; l < stack.layers.size(); ++l) {
    const float in_absmax = l < layer_absmax.size() ? layer_absmax[l] : 0.0f;
    q.layers.push_back(
        {quantize_linear(stack.layers[l].W, stack.layers[l].b, in_absmax)});
  }
  return q;
}

}  // namespace

std::int8_t quantize_value(float v, float scale) {
  // Reciprocal multiply, not division: this runs per element on the
  // inference hot path, and the rounding choice must match the hoisted
  // loop in QuantizedLinear::forward bit for bit.
  const long q = std::lrintf(v * (1.0f / scale));
  return static_cast<std::int8_t>(std::clamp<long>(q, -127, 127));
}

QuantizedLinear quantize_linear(const Matrix& w, std::span<const float> bias,
                                float in_absmax) {
  QuantizedLinear lin;
  lin.w_scale = scale_from_absmax(absmax_of(w));
  lin.in_scale = scale_from_absmax(in_absmax);
  lin.wt = QMatrix(w.cols(), w.rows());  // Transposed: out_dim x in_dim.
  for (std::size_t i = 0; i < w.rows(); ++i) {
    for (std::size_t o = 0; o < w.cols(); ++o) {
      lin.wt.at(o, i) = quantize_value(w.at(i, o), lin.w_scale);
    }
  }
  lin.bias.assign(bias.begin(), bias.end());
  return lin;
}

Matrix QuantizedLinear::forward(const Matrix& in) const {
  Matrix result;
  forward_into(in, result);
  return result;
}

void QuantizedLinear::forward_into(const Matrix& in, Matrix& result) const {
  assert(in.cols() == in_dim());
  const std::size_t rows = in.rows();
  const std::size_t out = out_dim();
  result.resize(rows, out);
  if (rows == 0 || out == 0) return;

  // Thread-local scratch for the quantized activations and the int32
  // accumulators: at sub-graph sizes (tens of rows) the malloc/free pair
  // per layer costs as much as the GEMM itself. assign() re-zeroes the
  // activation buffer, so row padding past in_dim stays zero (the kernel
  // contract); the accumulator is fully overwritten and only resized.
  static thread_local std::vector<std::int8_t> qa;
  static thread_local std::vector<std::int32_t> acc;
  const std::size_t stride = wt.stride();
  qa.assign(rows * stride, 0);
  if (acc.size() < rows * out) acc.resize(rows * out);

  const float inv = 1.0f / in_scale;  // One division per call, not per value.
  for (std::size_t r = 0; r < rows; ++r) {
    quantize_row(in.row(r), qa.data() + r * stride, in_dim(), inv);
  }

  active_qgemm()(qa.data(), wt.data(), acc.data(), rows, out, stride);

  const float dq = in_scale * w_scale;
  for (std::size_t r = 0; r < rows; ++r) {
    float* dst = result.row(r);
    const std::int32_t* arow = acc.data() + r * out;
    for (std::size_t o = 0; o < out; ++o) {
      dst[o] = static_cast<float>(arow[o]) * dq + bias[o];
    }
  }
}

Matrix QuantizedGcnLayer::forward(const SubGraph& g, const Matrix& h_in) const {
  Matrix agg = GcnLayer::aggregate(g, h_in);
  Matrix out = lin.forward(agg);
  relu_inplace(out);
  return out;
}

Matrix QuantizedGcnStack::forward(const SubGraph& g, const Matrix& x) const {
  Matrix out;
  forward_into(g, x, out);
  return out;
}

void QuantizedGcnStack::forward_into(const SubGraph& g, const Matrix& x,
                                     Matrix& out) const {
  if (layers.empty()) {
    out = x;
    return;
  }
  // One aggregation buffer and one hidden buffer cover the whole stack:
  // each step reads the previous activation into `agg` first, after which
  // the previous buffer is dead and can absorb the layer output (the
  // linear only forbids aliasing its own input, which is `agg`). The last
  // layer writes straight into `out`. Zero steady-state allocations; the
  // math and its order are identical to the layer-at-a-time form.
  static thread_local Matrix agg, hidden;
  const Matrix* h = &x;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    Matrix& dst = l + 1 == layers.size() ? out : hidden;
    if (obs::hot_path_sample()) {
      const auto t0 = std::chrono::steady_clock::now();
      GcnLayer::aggregate_into(g, *h, agg);
      layers[l].lin.forward_into(agg, dst);
      relu_inplace(dst);
      record_layer_latency(t0);
    } else {
      GcnLayer::aggregate_into(g, *h, agg);
      layers[l].lin.forward_into(agg, dst);
      relu_inplace(dst);
    }
    h = &dst;
  }
}

std::vector<float> QuantizedGraphClassifier::predict_probs(
    const SubGraph& g) const {
  static obs::Counter& forwards =
      obs::MetricsRegistry::instance().counter("gnn.inference.int8_forwards");
  forwards.add();
  const std::size_t c = num_classes();
  if (g.num_nodes() == 0) {
    return std::vector<float>(c, 1.0f / static_cast<float>(c));
  }
  // Thread-local scratch end to end: at serve sub-graph sizes (tens of
  // nodes) the fp32 path's per-forward allocations cost as much as its
  // GEMMs, and the int8 path must not inherit that floor.
  static thread_local Matrix feats, h, pooled, hid, logits;
  features_matrix_into(g, feats);
  stack.forward_into(g, feats, h);
  row_mean_into(h, pooled);
  const Matrix* readout = &pooled;
  if (has_hidden_head) {
    head_hidden.forward_into(pooled, hid);
    relu_inplace(hid);
    readout = &hid;
  }
  head_out.forward_into(*readout, logits);
  return softmax_float({logits.data(), logits.size()});
}

std::vector<double> QuantizedGraphClassifier::predict(const SubGraph& g) const {
  const std::vector<float> p = predict_probs(g);
  return std::vector<double>(p.begin(), p.end());
}

std::vector<double> QuantizedNodeScorer::predict_miv(const SubGraph& g) const {
  static obs::Counter& forwards =
      obs::MetricsRegistry::instance().counter("gnn.inference.int8_forwards");
  forwards.add();
  std::vector<double> scores(g.miv_local.size(), 0.0);
  if (g.num_nodes() == 0 || g.miv_local.empty()) return scores;
  static thread_local Matrix feats, h;
  features_matrix_into(g, feats);
  stack.forward_into(g, feats, h);
  const std::size_t d = stack.out_dim();
  for (std::size_t k = 0; k < g.miv_local.size(); ++k) {
    const float* row = h.row(g.miv_local[k]);
    double z = bo[0];
    for (std::size_t j = 0; j < d; ++j) {
      z += static_cast<double>(row[j]) * Wo.at(j, 0);
    }
    scores[k] = 1.0 / (1.0 + std::exp(-z));
  }
  return scores;
}

QuantizedGraphClassifier quantize_graph_classifier(
    const GraphClassifier& model, std::span<const SubGraph* const> calib,
    const QuantCalibrationOptions& opts) {
  const ClassifierAbsmax st = sweep_calibration(
      calib, opts.num_threads, [&](const SubGraph& g, ClassifierAbsmax& s) {
        observe_classifier(model, g, s);
      });

  QuantizedGraphClassifier q;
  q.stack = quantize_stack(model.stack, st.layer_in);
  q.has_hidden_head = model.has_hidden_head;
  if (model.has_hidden_head) {
    q.head_hidden = quantize_linear(model.Wh, model.bh, st.pooled);
    q.head_out = quantize_linear(model.Wo, model.bo, st.hidden);
  } else {
    q.head_out = quantize_linear(model.Wo, model.bo, st.pooled);
  }

  q.provenance.calib_graphs = calib.size();
  std::uint64_t h = kFnvBasis;
  for (const QuantizedGcnLayer& l : q.stack.layers) h = hash_scales(h, l.lin);
  if (q.has_hidden_head) h = hash_scales(h, q.head_hidden);
  h = hash_scales(h, q.head_out);
  q.provenance.scale_fingerprint = h;
  return q;
}

QuantizedNodeScorer quantize_node_scorer(const NodeScorer& model,
                                         std::span<const SubGraph* const> calib,
                                         const QuantCalibrationOptions& opts) {
  const ClassifierAbsmax st = sweep_calibration(
      calib, opts.num_threads, [&](const SubGraph& g, ClassifierAbsmax& s) {
        observe_scorer(model, g, s);
      });

  QuantizedNodeScorer q;
  q.stack = quantize_stack(model.stack, st.layer_in);
  q.Wo = model.Wo;
  q.bo = model.bo;
  q.provenance.calib_graphs = calib.size();
  std::uint64_t h = kFnvBasis;
  for (const QuantizedGcnLayer& l : q.stack.layers) h = hash_scales(h, l.lin);
  q.provenance.scale_fingerprint = h;
  return q;
}

}  // namespace m3dfl::gnn
