#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/fault_site.h"
#include "netlist/netlist.h"

namespace m3dfl::sim::bitpar {

/// Delta-space operation class of a gate, precomputed per arena gate so the
/// pattern-sweep kernels stay branch-light. With d = faulty XOR good per
/// fanin and G the broadcast good value of a fanin at one pattern:
///  * kInput — no fanin; the delta is whatever the injection pins.
///  * kPass  — BUF/INV/MIV/OBS: d_out = d_in (inversions cancel in deltas).
///  * kXor2  — XOR/XNOR: d_out = d_a ^ d_b.
///  * kAnd   — AND/NAND: d_out = (AND_k (d_k ^ G_k)) ^ (AND_k g_k); the
///             NAND complement cancels, so both types share the formula.
///  * kOr    — OR/NOR, dually.
enum class OpKind : std::uint8_t { kInput = 0, kPass, kXor2, kAnd, kOr };

/// Flat CSR/SoA mirror of a netlist::Netlist, built once per design and
/// shared read-only (through a SimCore) by every simulator of the design.
/// The netlist must outlive the arena.
///
/// Arena gate ids renumber the netlist in (topological level, gate id)
/// order, so ascending arena id is a valid evaluation order and each
/// level occupies one contiguous range (level_begin/level_end). Fanin and
/// fanout lists are flattened into CSR arrays; output indices, the
/// reverse-reachability observability mask both engines prune with,
/// and the fault-site table are re-based onto arena ids so the simulators
/// never touch the pointer-heavy Netlist on the hot path. CSR offsets are
/// 32-bit; the constructor throws std::length_error for a netlist whose
/// pin or observation-point count does not fit.
class NetlistArena {
 public:
  NetlistArena(const netlist::Netlist& nl, const netlist::SiteTable& sites);

  const netlist::Netlist& netlist() const { return *nl_; }
  std::size_t num_gates() const { return orig_of_.size(); }
  std::size_t num_outputs() const { return num_outputs_; }
  std::uint32_t num_levels() const { return num_levels_; }

  std::uint32_t arena_of(netlist::GateId g) const { return arena_of_[g]; }
  netlist::GateId orig_of(std::uint32_t u) const { return orig_of_[u]; }

  OpKind op(std::uint32_t u) const { return op_[u]; }
  netlist::GateType type(std::uint32_t u) const { return type_[u]; }
  std::uint32_t level(std::uint32_t u) const { return level_[u]; }
  bool observable(std::uint32_t u) const { return observable_[u] != 0; }

  /// Fanin arena ids of gate u, pin order preserved.
  std::span<const std::uint32_t> fanin(std::uint32_t u) const {
    return {fanin_.data() + fanin_off_[u], fanin_off_[u + 1] - fanin_off_[u]};
  }
  /// Fanout arena ids of gate u, ascending.
  std::span<const std::uint32_t> fanout(std::uint32_t u) const {
    return {fanout_.data() + fanout_off_[u],
            fanout_off_[u + 1] - fanout_off_[u]};
  }
  /// Observation-point indices reading gate u.
  std::span<const std::uint32_t> outputs_of(std::uint32_t u) const {
    return {obs_.data() + obs_off_[u], obs_off_[u + 1] - obs_off_[u]};
  }

  /// Arena gate range [level_begin(l), level_end(l)) of topological level l.
  std::uint32_t level_begin(std::uint32_t l) const { return level_off_[l]; }
  std::uint32_t level_end(std::uint32_t l) const { return level_off_[l + 1]; }

  /// Fault-site table re-based onto arena ids.
  struct SiteRef {
    std::uint32_t gate;    ///< Arena id of the owning gate.
    std::uint32_t driver;  ///< Arena id of the signal seen at the site.
    std::int16_t pin;      ///< -1: stem; >= 0: input pin of `gate`.
    bool is_stem() const { return pin < 0; }
  };
  const SiteRef& site(netlist::SiteId s) const { return sites_[s]; }
  std::size_t num_sites() const { return sites_.size(); }

  /// Heap bytes the arena holds, plus the object itself (the netlist it
  /// mirrors is not counted).
  std::size_t bytes() const;

 private:
  const netlist::Netlist* nl_;
  std::size_t num_outputs_ = 0;
  std::uint32_t num_levels_ = 0;
  std::vector<netlist::GateId> orig_of_;
  std::vector<std::uint32_t> arena_of_;
  std::vector<OpKind> op_;
  std::vector<netlist::GateType> type_;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint8_t> observable_;
  std::vector<std::uint32_t> fanin_off_, fanout_off_, obs_off_;
  std::vector<std::uint32_t> fanin_, fanout_, obs_;
  std::vector<std::uint32_t> level_off_;
  std::vector<SiteRef> sites_;
};

}  // namespace m3dfl::sim::bitpar
