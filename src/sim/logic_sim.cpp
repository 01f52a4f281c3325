#include "sim/logic_sim.h"

#include <cassert>

namespace m3dfl::sim {

using netlist::Gate;
using netlist::GateType;

PatternSet::PatternSet(std::size_t num_inputs, std::size_t num_patterns)
    : num_inputs_(num_inputs),
      num_patterns_(num_patterns),
      num_words_(words_for(num_patterns)),
      bits_(num_inputs * num_words_, 0) {}

PatternSet PatternSet::random(std::size_t num_inputs,
                              std::size_t num_patterns, Rng& rng) {
  PatternSet ps(num_inputs, num_patterns);
  for (auto& w : ps.bits_) w = rng.next();
  // Zero the invalid tail bits so dumps and hashes are canonical.
  if (ps.num_words_ > 0) {
    const Word mask = ps.valid_mask(ps.num_words_ - 1);
    for (std::size_t i = 0; i < num_inputs; ++i) {
      ps.word(i, ps.num_words_ - 1) &= mask;
    }
  }
  return ps;
}

bool PatternSet::bit(std::size_t input, std::size_t pattern) const {
  return (word(input, pattern / kWordBits) >> (pattern % kWordBits)) & 1u;
}

void PatternSet::set_bit(std::size_t input, std::size_t pattern, bool value) {
  Word& w = word(input, pattern / kWordBits);
  const Word m = Word{1} << (pattern % kWordBits);
  if (value) {
    w |= m;
  } else {
    w &= ~m;
  }
}

Word PatternSet::valid_mask(std::size_t w) const {
  if (w + 1 < num_words_) return ~Word{0};
  const std::size_t rem = num_patterns_ % kWordBits;
  if (rem == 0) return ~Word{0};
  return (Word{1} << rem) - 1;
}

void eval_gate_words(GateType type, std::size_t num_fanin,
                     const Word* const* fanin, Word* out, std::size_t W) {
  switch (type) {
    case GateType::kInput:
      return;
    case GateType::kBuf:
    case GateType::kMiv:
    case GateType::kObs:
      for (std::size_t w = 0; w < W; ++w) out[w] = fanin[0][w];
      return;
    case GateType::kInv:
      for (std::size_t w = 0; w < W; ++w) out[w] = ~fanin[0][w];
      return;
    case GateType::kXor:
      for (std::size_t w = 0; w < W; ++w) out[w] = fanin[0][w] ^ fanin[1][w];
      return;
    case GateType::kXnor:
      for (std::size_t w = 0; w < W; ++w) {
        out[w] = ~(fanin[0][w] ^ fanin[1][w]);
      }
      return;
    case GateType::kAnd:
    case GateType::kNand:
      for (std::size_t w = 0; w < W; ++w) out[w] = fanin[0][w];
      for (std::size_t k = 1; k < num_fanin; ++k) {
        for (std::size_t w = 0; w < W; ++w) out[w] &= fanin[k][w];
      }
      if (type == GateType::kNand) {
        for (std::size_t w = 0; w < W; ++w) out[w] = ~out[w];
      }
      return;
    case GateType::kOr:
    case GateType::kNor:
      for (std::size_t w = 0; w < W; ++w) out[w] = fanin[0][w];
      for (std::size_t k = 1; k < num_fanin; ++k) {
        for (std::size_t w = 0; w < W; ++w) out[w] |= fanin[k][w];
      }
      if (type == GateType::kNor) {
        for (std::size_t w = 0; w < W; ++w) out[w] = ~out[w];
      }
      return;
  }
}

std::vector<Word> LogicSimulator::run(const PatternSet& inputs) const {
  std::vector<Word> vals(nl_->num_gates() * inputs.num_words(), 0);
  run_into(inputs, vals);
  return vals;
}

void LogicSimulator::run_into(const PatternSet& inputs,
                              std::span<Word> out) const {
  const std::size_t W = inputs.num_words();
  assert(inputs.num_inputs() == nl_->num_inputs());
  assert(out.size() == nl_->num_gates() * W);

  const auto ins = nl_->inputs();
  for (std::size_t i = 0; i < ins.size(); ++i) {
    const auto base = static_cast<std::size_t>(ins[i]) * W;
    for (std::size_t w = 0; w < W; ++w) out[base + w] = inputs.word(i, w);
  }

  const Word* fanin_ptrs[8];
  for (GateId g : nl_->topo_order()) {
    const Gate& gate = nl_->gate(g);
    if (gate.type == GateType::kInput) continue;
    assert(gate.fanin.size() <= 8);
    for (std::size_t k = 0; k < gate.fanin.size(); ++k) {
      fanin_ptrs[k] =
          out.data() + static_cast<std::size_t>(gate.fanin[k]) * W;
    }
    eval_gate_words(gate.type, gate.fanin.size(), fanin_ptrs,
                    out.data() + static_cast<std::size_t>(g) * W, W);
  }
}

PatternSet derive_v2_inputs(const Netlist& nl, const PatternSet& v1_inputs,
                            std::span<const Word> v1_values) {
  const std::size_t W = v1_inputs.num_words();
  PatternSet v2(v1_inputs.num_inputs(), v1_inputs.num_patterns());
  const auto outs = nl.outputs();
  for (std::size_t i = 0; i < v1_inputs.num_inputs(); ++i) {
    if (i < nl.num_scan_cells()) {
      // Functional capture: scan cell i's Q in V2 is output i's V1 value.
      const GateId d = outs[i];
      for (std::size_t w = 0; w < W; ++w) {
        v2.word(i, w) = v1_values[static_cast<std::size_t>(d) * W + w] &
                        v1_inputs.valid_mask(w);
      }
    } else {
      // Primary inputs are held across launch/capture (at-speed LoC).
      for (std::size_t w = 0; w < W; ++w) v2.word(i, w) = v1_inputs.word(i, w);
    }
  }
  return v2;
}

TwoVectorResult simulate_launch_off_capture(const Netlist& nl,
                                            const PatternSet& v1_inputs) {
  LogicSimulator simulator(nl);
  TwoVectorResult r;
  r.num_patterns = v1_inputs.num_patterns();
  r.num_words = v1_inputs.num_words();
  r.v1 = simulator.run(v1_inputs);
  const PatternSet v2_inputs = derive_v2_inputs(nl, v1_inputs, r.v1);
  r.v2 = simulator.run(v2_inputs);
  r.transition.resize(r.v1.size());
  for (std::size_t i = 0; i < r.v1.size(); ++i) {
    r.transition[i] = r.v1[i] ^ r.v2[i];
  }
  return r;
}

TwoVectorResult simulate_two_vector(const Netlist& nl,
                                    const PatternSet& v1_inputs,
                                    const PatternSet& v2_inputs) {
  assert(v1_inputs.num_inputs() == v2_inputs.num_inputs());
  assert(v1_inputs.num_patterns() == v2_inputs.num_patterns());
  LogicSimulator simulator(nl);
  TwoVectorResult r;
  r.num_patterns = v1_inputs.num_patterns();
  r.num_words = v1_inputs.num_words();
  r.v1 = simulator.run(v1_inputs);
  r.v2 = simulator.run(v2_inputs);
  r.transition.resize(r.v1.size());
  for (std::size_t i = 0; i < r.v1.size(); ++i) {
    r.transition[i] = r.v1[i] ^ r.v2[i];
  }
  return r;
}

}  // namespace m3dfl::sim
