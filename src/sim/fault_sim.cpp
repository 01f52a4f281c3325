#include "sim/fault_sim.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"

namespace m3dfl::sim {

using netlist::FaultSite;
using netlist::Gate;
using netlist::GateId;
using netlist::GateType;

namespace {

/// Branch-override row slots pre-reserved at bind(); simultaneous branch
/// faults beyond this grow the pool (a one-off allocation that then sticks).
constexpr std::size_t kReservedOverrideSlots = 4;

constexpr std::uint32_t kNoLevel = 0xffffffffu;

}  // namespace

const char* polarity_name(FaultPolarity p) {
  switch (p) {
    case FaultPolarity::kSlowToRise: return "slow-to-rise";
    case FaultPolarity::kSlowToFall: return "slow-to-fall";
    case FaultPolarity::kSlow: return "slow";
    case FaultPolarity::kStuckAt0: return "stuck-at-0";
    case FaultPolarity::kStuckAt1: return "stuck-at-1";
  }
  return "?";
}

FaultSimulator::FaultSimulator(const netlist::Netlist& nl,
                               const SiteTable& sites)
    : nl_(&nl), sites_(&sites) {
  obs_of_gate_.resize(nl.num_gates());
  const auto outs = nl.outputs();
  for (std::uint32_t o = 0; o < outs.size(); ++o) {
    obs_of_gate_[outs[o]].push_back(o);
  }
  // Reverse reachability to the observation points: a fault effect entering
  // at an unobservable gate can never change any output, so both seeding and
  // propagation prune against this mask. Fixed per netlist, shared by every
  // bind().
  observable_.assign(nl.num_gates(), 0);
  const auto& topo = nl.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId g = *it;
    std::uint8_t obs = obs_of_gate_[g].empty() ? 0 : 1;
    if (!obs) {
      for (GateId fo : nl.gate(g).fanout) obs |= observable_[fo];
    }
    observable_[g] = obs;
  }
}

void FaultSimulator::bind(const PatternSet& v1_inputs) {
  M3DFL_OBS_SPAN(span, "sim.bind");
  good_ = simulate_launch_off_capture(*nl_, v1_inputs);
  finish_bind(v1_inputs);
}

void FaultSimulator::bind(const PatternSet& v1_inputs,
                          const PatternSet& v2_inputs) {
  M3DFL_OBS_SPAN(span, "sim.bind");
  good_ = simulate_two_vector(*nl_, v1_inputs, v2_inputs);
  finish_bind(v1_inputs);
}

void FaultSimulator::finish_bind(const PatternSet& v1_inputs) {
  const std::size_t num_gates = nl_->num_gates();
  const std::size_t W = good_.num_words;
  faulty_ = good_.v2;
  in_queue_.assign(num_gates, 0);
  forced_.assign(num_gates, 0);
  touched_.clear();
  touch_stamp_.assign(num_gates, 0);
  epoch_ = 0;
  scratch_.assign(W, 0);
  act_.assign(W, 0);
  fv_.assign(W, 0);
  overrides_.clear();
  override_rows_.assign(kReservedOverrideSlots * W, 0);
  level_buckets_.assign(nl_->depth() + 1, {});
  reserve_workspace();

  // Keep only the valid pattern bits of the good transition masks: the
  // inverting gates fill tail bits with garbage that must never activate a
  // fault or count as a transition.
  tail_ = 0;
  if (W > 0) {
    tail_ = v1_inputs.valid_mask(W - 1);
    for (std::size_t g = 0; g < num_gates; ++g) {
      good_.transition[g * W + (W - 1)] &= tail_;
    }
  }
}

void FaultSimulator::reserve_workspace() {
  touched_.reserve(nl_->num_gates());
  overrides_.reserve(kReservedOverrideSlots);
  // Level buckets sized for the worst event front per level: only observable
  // gates are ever enqueued, so reserving their per-level counts makes the
  // steady state allocation-free.
  const auto& levels = nl_->levels();
  std::vector<std::size_t> per_level(level_buckets_.size(), 0);
  for (std::size_t g = 0; g < nl_->num_gates(); ++g) {
    if (observable_[g] && levels[g] < per_level.size()) ++per_level[levels[g]];
  }
  for (std::size_t l = 0; l < level_buckets_.size(); ++l) {
    level_buckets_[l].reserve(per_level[l]);
  }
}

std::unique_ptr<FaultSimulator> FaultSimulator::clone() const {
  auto copy = std::unique_ptr<FaultSimulator>(new FaultSimulator(*this));
  // A clone's counters start at zero: pooled shards flush whole snapshots
  // via take_stats(), which must never re-count the source's history.
  copy->stats_ = SimStats{};
  // Vector copies keep sizes but drop spare capacity; re-reserve so clones
  // inherit the allocation-free steady state (they power every parallel
  // shard, where per-call allocation would hurt most).
  if (!faulty_.empty()) copy->reserve_workspace();
  return copy;
}

void FaultSimulator::ensure_bound() const {
  assert(!faulty_.empty() && "bind() must be called before simulation");
}

void FaultSimulator::next_epoch() {
  if (++epoch_ == 0) {  // Wrapped: invalidate all stale stamps once.
    std::fill(touch_stamp_.begin(), touch_stamp_.end(), 0);
    epoch_ = 1;
  }
}

void FaultSimulator::compute_activation(const InjectedFault& fault,
                                        Word* act) const {
  const std::size_t W = good_.num_words;
  const GateId driver = sites_->site(fault.site).driver;
  for (std::size_t w = 0; w < W; ++w) {
    const Word v1 = good_.v1_word(driver, w);
    const Word v2 = good_.v2_word(driver, w);
    switch (fault.polarity) {
      case FaultPolarity::kSlowToRise:
        act[w] = ~v1 & v2 & good_.tr_word(driver, w);
        break;
      case FaultPolarity::kSlowToFall:
        act[w] = v1 & ~v2 & good_.tr_word(driver, w);
        break;
      case FaultPolarity::kSlow:
        act[w] = (v1 ^ v2) & good_.tr_word(driver, w);
        break;
      case FaultPolarity::kStuckAt0:
        // Excited on every pattern whose good value is 1.
        act[w] = v2;
        break;
      case FaultPolarity::kStuckAt1:
        act[w] = ~v2;
        break;
    }
    if (w + 1 == W) act[w] &= tail_;
  }
}

std::vector<Word> FaultSimulator::activation_mask(
    const InjectedFault& fault) const {
  ensure_bound();
  std::vector<Word> act(good_.num_words);
  compute_activation(fault, act.data());
  return act;
}

void FaultSimulator::activation_mask(const InjectedFault& fault,
                                     std::span<Word> act) const {
  ensure_bound();
  assert(act.size() == good_.num_words);
  compute_activation(fault, act.data());
}

bool FaultSimulator::observed_diff(const InjectedFault& fault,
                                   std::vector<Word>& diff,
                                   std::vector<std::uint32_t>* touched_outputs) {
  return observed_diff(std::span<const InjectedFault>(&fault, 1), diff,
                       touched_outputs);
}

bool FaultSimulator::observed_diff(std::span<const InjectedFault> faults,
                                   std::vector<Word>& diff,
                                   std::vector<std::uint32_t>* touched_outputs) {
  return run_faulty(faults, nullptr, &diff, touched_outputs, /*sparse=*/false,
                    /*early_exit=*/false);
}

bool FaultSimulator::observed_diff(
    const InjectedFault& fault, std::span<const Word> patterns,
    std::vector<Word>& diff, std::vector<std::uint32_t>& touched_outputs) {
  assert(patterns.size() == good_.num_words);
  return run_faulty(std::span<const InjectedFault>(&fault, 1), patterns.data(),
                    &diff, &touched_outputs, /*sparse=*/true,
                    /*early_exit=*/false);
}

bool FaultSimulator::detects(const InjectedFault& fault) {
  return detects(std::span<const InjectedFault>(&fault, 1));
}

bool FaultSimulator::detects(std::span<const InjectedFault> faults) {
  return run_faulty(faults, nullptr, nullptr, nullptr, /*sparse=*/false,
                    /*early_exit=*/true);
}

bool FaultSimulator::run_faulty(std::span<const InjectedFault> faults,
                                const Word* patterns, std::vector<Word>* diff,
                                std::vector<std::uint32_t>* touched_outputs,
                                bool sparse, bool early_exit) {
  ensure_bound();
  ++stats_.observed_diff_calls;
  const std::size_t W = good_.num_words;
  if (diff && sparse) {
    diff->clear();
  } else if (diff) {
    diff->assign(nl_->num_outputs() * W, 0);
  }
  touched_.clear();
  next_epoch();
  if (touched_outputs) touched_outputs->clear();
  overrides_.clear();

  const auto& levels = nl_->levels();
  std::uint32_t min_level = kNoLevel;
  std::uint32_t max_level = 0;

  auto faulty_row = [this, W](GateId g) {
    return faulty_.data() + static_cast<std::size_t>(g) * W;
  };
  auto good_row = [this, W](GateId g) {
    return good_.v2.data() + static_cast<std::size_t>(g) * W;
  };
  auto touch = [this](GateId g) {
    if (touch_stamp_[g] != epoch_) {
      touch_stamp_[g] = epoch_;
      touched_.push_back(g);
    }
  };
  auto enqueue = [&](GateId g) {
    if (!observable_[g]) {
      ++stats_.cone_skips;  // Outside every output cone: effect is invisible.
      return;
    }
    if (in_queue_[g]) return;
    in_queue_[g] = 1;
    level_buckets_[levels[g]].push_back(g);
    min_level = std::min(min_level, levels[g]);
    max_level = std::max(max_level, levels[g]);
  };
  // Early-exit detection check on a gate whose faulty row just changed: any
  // valid-pattern miscompare at an observation point ends the simulation.
  auto output_differs = [&](GateId g) {
    if (obs_of_gate_[g].empty()) return false;
    const Word* frow = faulty_row(g);
    const Word* grow = good_row(g);
    Word any = 0;
    for (std::size_t w = 0; w < W; ++w) {
      Word d = frow[w] ^ grow[w];
      if (w + 1 == W) d &= tail_;
      any |= d;
    }
    return any != 0;
  };

  bool detected_early = false;

  // Seed events from each fault.
  for (const InjectedFault& f : faults) {
    const FaultSite& fs = sites_->site(f.site);
    if (!observable_[fs.gate]) {
      ++stats_.cone_skips;  // The whole fault is outside every output cone.
      continue;
    }
    compute_activation(f, act_.data());
    Word any = 0;
    for (std::size_t w = 0; w < W; ++w) {
      // Masked-off patterns never activate, so they simulate fault-free.
      if (patterns) act_[w] &= patterns[w];
      any |= act_[w];
    }
    if (any == 0) continue;

    // Faulty value of the signal at the site. TDF: the late V1 value where
    // activated; stuck-at: the forced constant.
    for (std::size_t w = 0; w < W; ++w) {
      const Word v2 = good_.v2_word(fs.driver, w);
      Word forced;
      switch (f.polarity) {
        case FaultPolarity::kStuckAt0: forced = 0; break;
        case FaultPolarity::kStuckAt1: forced = ~Word{0}; break;
        default: forced = good_.v1_word(fs.driver, w); break;
      }
      fv_[w] = (v2 & ~act_[w]) | (forced & act_[w]);
    }

    if (fs.is_stem()) {
      Word changed = 0;
      Word* row = faulty_row(fs.gate);
      for (std::size_t w = 0; w < W; ++w) changed |= row[w] ^ fv_[w];
      if (changed == 0) continue;
      std::copy(fv_.begin(), fv_.end(), row);
      forced_[fs.gate] = 1;
      touch(fs.gate);
      if (early_exit && output_differs(fs.gate)) {
        detected_early = true;
        break;
      }
      for (GateId fo : nl_->gate(fs.gate).fanout) enqueue(fo);
    } else {
      const auto slot = static_cast<std::uint32_t>(overrides_.size());
      if ((slot + 1) * W > override_rows_.size()) {
        override_rows_.resize((slot + 1) * W);  // Beyond the bind() reserve.
      }
      std::copy(fv_.begin(), fv_.end(),
                override_rows_.begin() + static_cast<std::size_t>(slot) * W);
      overrides_.push_back(BranchOverride{fs.gate, fs.pin, slot});
      enqueue(fs.gate);
    }
  }

  // Propagate level by level. Fanout levels strictly exceed a gate's level,
  // so one ascending sweep settles everything.
  const Word* fanin_ptrs[8];
  if (!detected_early && min_level != kNoLevel) {
    for (std::uint32_t lvl = min_level; lvl <= max_level && !detected_early;
         ++lvl) {
      auto& bucket = level_buckets_[lvl];
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        const GateId g = bucket[i];
        in_queue_[g] = 0;
        if (forced_[g]) continue;  // Stem fault pins this gate's value.
        ++stats_.events_processed;
        stats_.words_evaluated += W;
        const Gate& gate = nl_->gate(g);
        assert(gate.fanin.size() <= 8);
        for (std::size_t k = 0; k < gate.fanin.size(); ++k) {
          fanin_ptrs[k] = faulty_row(gate.fanin[k]);
        }
        for (const BranchOverride& ov : overrides_) {
          if (ov.gate == g) {
            fanin_ptrs[ov.pin] =
                override_rows_.data() + static_cast<std::size_t>(ov.row) * W;
          }
        }
        eval_gate_words(gate, fanin_ptrs, scratch_.data(), W);
        Word changed = 0;
        Word* row = faulty_row(g);
        for (std::size_t w = 0; w < W; ++w) changed |= row[w] ^ scratch_[w];
        if (changed == 0) continue;
        std::copy(scratch_.begin(), scratch_.end(), row);
        touch(g);
        if (early_exit && output_differs(g)) {
          detected_early = true;
          break;
        }
        for (GateId fo : gate.fanout) {
          max_level = std::max(max_level, levels[fo]);
          enqueue(fo);
        }
      }
      // On early exit the bucket still holds unprocessed gates whose
      // in_queue_ flags must survive until the drain below resets them.
      if (detected_early) break;
      bucket.clear();
    }
  }
  if (detected_early && min_level != kNoLevel) {
    // Early exit left events pending: drop them and their dedup flags.
    for (std::uint32_t lvl = min_level; lvl <= max_level; ++lvl) {
      for (GateId g : level_buckets_[lvl]) in_queue_[g] = 0;
      level_buckets_[lvl].clear();
    }
  }

  // Collect observation diffs and restore the workspace. touched_ is
  // duplicate-free (epoch stamps), so each gate is restored exactly once and
  // touched_outputs never repeats an observation index. Sparse output
  // appends each row and drops it again when it is all zero.
  bool any_fail = detected_early;
  for (GateId g : touched_) {
    if (diff) {
      for (std::uint32_t o : obs_of_gate_[g]) {
        if (sparse) diff->resize(diff->size() + W);
        Word* drow = sparse ? diff->data() + diff->size() - W
                            : diff->data() + static_cast<std::size_t>(o) * W;
        const Word* frow = faulty_row(g);
        const Word* grow = good_row(g);
        Word row_any = 0;
        for (std::size_t w = 0; w < W; ++w) {
          Word d = frow[w] ^ grow[w];
          if (w + 1 == W) d &= tail_;
          drow[w] = d;
          row_any |= d;
        }
        any_fail |= row_any != 0;
        if (sparse && row_any == 0) {
          diff->resize(diff->size() - W);
        } else if (touched_outputs) {
          touched_outputs->push_back(o);
        }
      }
    }
    std::copy(good_row(g), good_row(g) + W, faulty_row(g));
    forced_[g] = 0;
  }
  if (any_fail) ++stats_.detected;
  if (detected_early) ++stats_.early_exits;
  return any_fail;
}

}  // namespace m3dfl::sim
