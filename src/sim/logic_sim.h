#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "netlist/netlist.h"

namespace m3dfl::sim {

using netlist::GateId;
using netlist::Netlist;

/// 64 patterns are simulated per machine word.
using Word = std::uint64_t;
inline constexpr std::size_t kWordBits = 64;

inline std::size_t words_for(std::size_t num_patterns) {
  return (num_patterns + kWordBits - 1) / kWordBits;
}

/// A block of test patterns, stored input-major and bit-packed: bit p of
/// word(i, p / 64) is the value applied to input index i by pattern p.
class PatternSet {
 public:
  PatternSet() = default;
  PatternSet(std::size_t num_inputs, std::size_t num_patterns);

  /// Uniform random patterns.
  static PatternSet random(std::size_t num_inputs, std::size_t num_patterns,
                           Rng& rng);

  std::size_t num_inputs() const { return num_inputs_; }
  std::size_t num_patterns() const { return num_patterns_; }
  std::size_t num_words() const { return num_words_; }

  Word word(std::size_t input, std::size_t w) const {
    return bits_[input * num_words_ + w];
  }
  Word& word(std::size_t input, std::size_t w) {
    return bits_[input * num_words_ + w];
  }
  std::span<const Word> row(std::size_t input) const {
    return {bits_.data() + input * num_words_, num_words_};
  }

  bool bit(std::size_t input, std::size_t pattern) const;
  void set_bit(std::size_t input, std::size_t pattern, bool value);

  /// Mask of valid pattern bits in word w (all-ones except possibly the
  /// final word). Complement-producing gates set garbage in tail bits, so
  /// anything that counts or reports per-pattern data must apply this.
  Word valid_mask(std::size_t w) const;

 private:
  std::size_t num_inputs_ = 0;
  std::size_t num_patterns_ = 0;
  std::size_t num_words_ = 0;
  std::vector<Word> bits_;
};

/// Evaluates one gate of `type` across W words given pointers to its
/// `num_fanin` fanin word rows. Shared by the good-machine simulator and
/// the event-driven fault simulator. `out` must not alias any fanin row.
void eval_gate_words(netlist::GateType type, std::size_t num_fanin,
                     const Word* const* fanin, Word* out, std::size_t W);

/// Bit-parallel good-machine simulator for the combinational frame.
class LogicSimulator {
 public:
  explicit LogicSimulator(const Netlist& nl) : nl_(&nl) {}

  /// Simulates all patterns; returns gate-major values:
  /// result[g * W + w] is the packed value of gate g for word w.
  std::vector<Word> run(const PatternSet& inputs) const;

  /// Same, writing into a caller-provided buffer of size num_gates * W.
  void run_into(const PatternSet& inputs, std::span<Word> out) const;

 private:
  const Netlist* nl_;
};

/// Good-machine result of launch-off-capture (LoC) two-vector transition
/// testing: V1 is scanned in; the capture of V1 becomes V2's scan state
/// (primary inputs held); the V2 response is observed.
struct TwoVectorResult {
  std::size_t num_patterns = 0;
  std::size_t num_words = 0;
  std::vector<Word> v1;          ///< Gate-major values under V1.
  std::vector<Word> v2;          ///< Gate-major values under V2.
  std::vector<Word> transition;  ///< v1 ^ v2 — the "transitions memorized
                                 ///< with TDF patterns" of paper Sec. III-A.

  Word v1_word(GateId g, std::size_t w) const { return v1[g * num_words + w]; }
  Word v2_word(GateId g, std::size_t w) const { return v2[g * num_words + w]; }
  Word tr_word(GateId g, std::size_t w) const {
    return transition[g * num_words + w];
  }
};

/// Runs the LoC two-vector simulation for a V1 pattern set.
TwoVectorResult simulate_launch_off_capture(const Netlist& nl,
                                            const PatternSet& v1_inputs);

/// Runs a two-vector simulation with an explicitly supplied V2 input block
/// (enhanced-scan test application: both vectors fully controllable, the
/// scheme commercial TDF ATPG approximates with its deterministic
/// launch/capture search). V1 and V2 must have identical shapes.
TwoVectorResult simulate_two_vector(const Netlist& nl,
                                    const PatternSet& v1_inputs,
                                    const PatternSet& v2_inputs);

/// Derives the V2 input block from a V1 result: scan cell i's input takes
/// the value captured at output i under V1; non-scan inputs are held.
PatternSet derive_v2_inputs(const Netlist& nl, const PatternSet& v1_inputs,
                            std::span<const Word> v1_values);

}  // namespace m3dfl::sim
