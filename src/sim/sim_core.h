#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netlist/fault_site.h"
#include "sim/bitpar/arena.h"
#include "sim/logic_sim.h"

namespace m3dfl::sim {

using netlist::SiteId;
using netlist::SiteTable;

/// Fault-model variants supported by the simulator. The paper's framework
/// targets transition delay faults; the classic stuck-at models are also
/// simulated (ATPG fault lists, coverage and PODEM use them).
enum class FaultPolarity : std::uint8_t {
  kSlowToRise,  ///< TDF: late 0->1 transition.
  kSlowToFall,  ///< TDF: late 1->0 transition.
  kSlow,        ///< TDF: gross delay, both transitions late.
  kStuckAt0,    ///< Permanent 0 at the site.
  kStuckAt1,    ///< Permanent 1 at the site.
};

const char* polarity_name(FaultPolarity p);

/// All five polarities, in enum order (bench/test sweeps).
inline constexpr FaultPolarity kAllPolarities[] = {
    FaultPolarity::kSlowToRise, FaultPolarity::kSlowToFall,
    FaultPolarity::kSlow, FaultPolarity::kStuckAt0, FaultPolarity::kStuckAt1};

/// True for the stuck-at variants.
inline bool is_stuck_at(FaultPolarity p) {
  return p == FaultPolarity::kStuckAt0 || p == FaultPolarity::kStuckAt1;
}

/// One injected fault at a fault site.
struct InjectedFault {
  SiteId site = netlist::kNoSite;
  FaultPolarity polarity = FaultPolarity::kSlow;

  bool operator==(const InjectedFault&) const = default;
};

/// The read-only half of fault simulation: one design's flat arena (CSR
/// fan-in/fan-out, levels, observation points, observability mask, sites)
/// plus the good machine of one bound pattern set, with its V1, V2 and
/// transition rows laid out in arena order (row u holds num_words() words
/// of arena gate u). Tail bits of the final word are cleared once here, so
/// no row carries the garbage inverting gates leave in unused patterns.
///
/// Built once per (design, pattern set) and shared through shared_ptr by
/// every simulator that runs on it: each FaultSimulator is a per-thread
/// workspace over a core, and a BitParallelSimulator reads the same rows.
/// Nothing changes after construction, so concurrent readers need no lock.
class SimCore {
 public:
  /// Re-lays a netlist-major good-machine result (as simulate_two_vector()
  /// or simulate_launch_off_capture() return it) into arena order.
  SimCore(std::shared_ptr<const bitpar::NetlistArena> arena,
          const TwoVectorResult& good);

  const bitpar::NetlistArena& arena() const { return *arena_; }
  const std::shared_ptr<const bitpar::NetlistArena>& shared_arena() const {
    return arena_;
  }
  std::size_t num_patterns() const { return num_patterns_; }
  std::size_t num_words() const { return W_; }
  /// Valid-bit mask of the final pattern word.
  Word tail() const { return tail_; }

  /// Good-machine rows of arena gate u (num_words() words each).
  const Word* v1(std::uint32_t u) const { return v1_.data() + u * W_; }
  const Word* v2(std::uint32_t u) const { return v2_.data() + u * W_; }
  const Word* tr(std::uint32_t u) const { return tr_.data() + u * W_; }

  /// Transition row of netlist gate g: the accessor for readers that walk
  /// Netlist gate ids (the diagnosis and graph back-traces).
  std::span<const Word> transition(netlist::GateId g) const {
    return {tr(arena_->arena_of(g)), W_};
  }

  /// Writes the activation mask of `fault` into act[0..num_words()): bit p
  /// is set iff pattern p launches the fault's transition through its site
  /// (stuck-at: iff the good value differs from the stuck value).
  void activation(const InjectedFault& fault, Word* act) const;

  /// Heap bytes of the good-machine rows, plus the object itself. The
  /// arena is shared between cores and counted by arena().bytes().
  std::size_t bytes() const;

 private:
  std::shared_ptr<const bitpar::NetlistArena> arena_;
  std::size_t num_patterns_ = 0;
  std::size_t W_ = 0;
  Word tail_ = 0;
  std::vector<Word> v1_, v2_, tr_;
};

}  // namespace m3dfl::sim
