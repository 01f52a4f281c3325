#include "sim/fault_sim.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"

namespace m3dfl::sim {

namespace {

/// Branch-override row slots pre-reserved at bind(); simultaneous branch
/// faults beyond this grow the pool (a one-off allocation that then sticks).
constexpr std::size_t kReservedOverrideSlots = 4;

constexpr std::uint32_t kNoLevel = 0xffffffffu;

// state_ flags.
constexpr std::uint8_t kQueued = 1;   ///< In a level bucket.
constexpr std::uint8_t kForced = 2;   ///< Pinned by a stem fault.
constexpr std::uint8_t kTouched = 4;  ///< Faulty row differs; in touched_.

}  // namespace

FaultSimulator::FaultSimulator(std::shared_ptr<const SimCore> core) {
  bind(std::move(core));
}

FaultSimulator::FaultSimulator(const netlist::Netlist& nl,
                               const SiteTable& sites)
    : arena_(std::make_shared<const bitpar::NetlistArena>(nl, sites)) {}

void FaultSimulator::bind(const PatternSet& v1_inputs) {
  M3DFL_OBS_SPAN(span, "sim.bind");
  bind(std::make_shared<const SimCore>(
      arena_, simulate_launch_off_capture(arena_->netlist(), v1_inputs)));
}

void FaultSimulator::bind(const PatternSet& v1_inputs,
                          const PatternSet& v2_inputs) {
  M3DFL_OBS_SPAN(span, "sim.bind");
  bind(std::make_shared<const SimCore>(
      arena_,
      simulate_two_vector(arena_->netlist(), v1_inputs, v2_inputs)));
}

void FaultSimulator::bind(std::shared_ptr<const SimCore> core) {
  core_ = std::move(core);
  arena_ = core_->shared_arena();
  const bitpar::NetlistArena& a = *arena_;
  const std::size_t G = a.num_gates();
  const std::size_t W = core_->num_words();
  faulty_.assign(core_->v2(0), core_->v2(0) + G * W);
  state_.assign(G, 0);
  scratch_.assign(W, 0);
  act_.assign(W, 0);
  fv_.assign(W, 0);
  overrides_.clear();
  overrides_.reserve(kReservedOverrideSlots);
  override_rows_.assign(kReservedOverrideSlots * W, 0);
  // Level buckets sized for the worst event front per level: only
  // observable gates are ever enqueued or touched, so reserving their
  // counts makes the steady state allocation-free.
  level_buckets_.resize(a.num_levels());
  std::size_t observable = 0;
  for (std::uint32_t l = 0; l < a.num_levels(); ++l) {
    std::size_t n = 0;
    for (std::uint32_t u = a.level_begin(l); u < a.level_end(l); ++u) {
      n += a.observable(u);
    }
    level_buckets_[l].clear();
    level_buckets_[l].reserve(n);
    observable += n;
  }
  touched_.clear();
  touched_.reserve(observable);
}

std::unique_ptr<FaultSimulator> FaultSimulator::clone() const {
  ensure_bound();
  return std::make_unique<FaultSimulator>(core_);
}

void FaultSimulator::ensure_bound() const {
  assert(core_ && "bind() must be called before simulation");
}

std::vector<Word> FaultSimulator::activation_mask(
    const InjectedFault& fault) const {
  ensure_bound();
  std::vector<Word> act(core_->num_words());
  core_->activation(fault, act.data());
  return act;
}

void FaultSimulator::activation_mask(const InjectedFault& fault,
                                     std::span<Word> act) const {
  ensure_bound();
  assert(act.size() == core_->num_words());
  core_->activation(fault, act.data());
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
  assert(patterns.size() == core_->num_words());
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
  const SimCore& core = *core_;
  const bitpar::NetlistArena& a = *arena_;
  const std::size_t W = core.num_words();
  if (diff && sparse) {
    diff->clear();
  } else if (diff) {
    diff->assign(a.num_outputs() * W, 0);
  }
  touched_.clear();
  if (touched_outputs) touched_outputs->clear();
  overrides_.clear();

  std::uint32_t min_level = kNoLevel;
  std::uint32_t max_level = 0;

  // Every faulty row is kept tail-clean like the core's rows (seeds are
  // built from tail-masked activations, evaluations are masked), so rows
  // compare and diff without masking.
  auto faulty_row = [this, W](std::uint32_t u) {
    return faulty_.data() + static_cast<std::size_t>(u) * W;
  };
  auto touch = [this](std::uint32_t u) {
    if (!(state_[u] & kTouched)) {
      state_[u] |= kTouched;
      touched_.push_back(u);
    }
  };
  auto enqueue = [&](std::uint32_t u) {
    if (!a.observable(u)) {
      ++stats_.cone_skips;  // Outside every output cone: effect is invisible.
      return;
    }
    if (state_[u] & kQueued) return;
    state_[u] |= kQueued;
    const std::uint32_t lvl = a.level(u);
    level_buckets_[lvl].push_back(u);
    min_level = std::min(min_level, lvl);
    max_level = std::max(max_level, lvl);
  };
  // Early-exit detection check on a gate whose faulty row just changed: any
  // miscompare at an observation point ends the simulation.
  auto output_differs = [&](std::uint32_t u) {
    if (a.outputs_of(u).empty()) return false;
    const Word* frow = faulty_row(u);
    const Word* grow = core.v2(u);
    Word any = 0;
    for (std::size_t w = 0; w < W; ++w) any |= frow[w] ^ grow[w];
    return any != 0;
  };

  bool detected_early = false;

  // Seed events from each fault.
  for (const InjectedFault& f : faults) {
    const bitpar::NetlistArena::SiteRef& fs = a.site(f.site);
    if (!a.observable(fs.gate)) {
      ++stats_.cone_skips;  // The whole fault is outside every output cone.
      continue;
    }
    core.activation(f, act_.data());
    Word any = 0;
    for (std::size_t w = 0; w < W; ++w) {
      // Masked-off patterns never activate, so they simulate fault-free.
      if (patterns) act_[w] &= patterns[w];
      any |= act_[w];
    }
    if (any == 0) continue;

    // Faulty value of the signal at the site. TDF: the late V1 value where
    // activated; stuck-at: the forced constant.
    const Word* v1 = core.v1(fs.driver);
    const Word* v2 = core.v2(fs.driver);
    for (std::size_t w = 0; w < W; ++w) {
      Word forced;
      switch (f.polarity) {
        case FaultPolarity::kStuckAt0: forced = 0; break;
        case FaultPolarity::kStuckAt1: forced = ~Word{0}; break;
        default: forced = v1[w]; break;
      }
      fv_[w] = (v2[w] & ~act_[w]) | (forced & act_[w]);
    }

    if (fs.is_stem()) {
      Word changed = 0;
      Word* row = faulty_row(fs.gate);
      for (std::size_t w = 0; w < W; ++w) changed |= row[w] ^ fv_[w];
      if (changed == 0) continue;
      std::copy(fv_.begin(), fv_.end(), row);
      state_[fs.gate] |= kForced;
      touch(fs.gate);
      if (early_exit && output_differs(fs.gate)) {
        detected_early = true;
        break;
      }
      for (std::uint32_t fo : a.fanout(fs.gate)) enqueue(fo);
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
  const Word tail = core.tail();
  if (!detected_early && min_level != kNoLevel) {
    for (std::uint32_t lvl = min_level; lvl <= max_level && !detected_early;
         ++lvl) {
      auto& bucket = level_buckets_[lvl];
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        const std::uint32_t u = bucket[i];
        state_[u] &= static_cast<std::uint8_t>(~kQueued);
        if (state_[u] & kForced) continue;  // Stem fault pins this gate.
        ++stats_.events_processed;
        stats_.words_evaluated += W;
        const auto fanin = a.fanin(u);
        assert(fanin.size() <= 8);
        for (std::size_t k = 0; k < fanin.size(); ++k) {
          fanin_ptrs[k] = faulty_row(fanin[k]);
        }
        for (const BranchOverride& ov : overrides_) {
          if (ov.gate == u) {
            fanin_ptrs[ov.pin] =
                override_rows_.data() + static_cast<std::size_t>(ov.row) * W;
          }
        }
        eval_gate_words(a.type(u), fanin.size(), fanin_ptrs, scratch_.data(),
                        W);
        scratch_[W - 1] &= tail;  // Inverting gates fill the tail bits.
        Word changed = 0;
        Word* row = faulty_row(u);
        for (std::size_t w = 0; w < W; ++w) changed |= row[w] ^ scratch_[w];
        if (changed == 0) continue;
        std::copy(scratch_.begin(), scratch_.end(), row);
        touch(u);
        if (early_exit && output_differs(u)) {
          detected_early = true;
          break;
        }
        for (std::uint32_t fo : a.fanout(u)) enqueue(fo);
      }
      // On early exit the bucket still holds unprocessed gates whose
      // kQueued flags must survive until the drain below resets them.
      if (detected_early) break;
      bucket.clear();
    }
  }
  if (detected_early && min_level != kNoLevel) {
    // Early exit left events pending: drop them and their dedup flags.
    for (std::uint32_t lvl = min_level; lvl <= max_level; ++lvl) {
      for (std::uint32_t u : level_buckets_[lvl]) {
        state_[u] &= static_cast<std::uint8_t>(~kQueued);
      }
      level_buckets_[lvl].clear();
    }
  }

  // Collect observation diffs and restore the workspace. touched_ is
  // duplicate-free, so each gate is restored exactly once and
  // touched_outputs never repeats an observation index. Sparse output
  // appends each row and drops it again when it is all zero.
  bool any_fail = detected_early;
  for (std::uint32_t u : touched_) {
    Word* frow = faulty_row(u);
    const Word* grow = core.v2(u);
    if (diff) {
      for (std::uint32_t o : a.outputs_of(u)) {
        if (sparse) diff->resize(diff->size() + W);
        Word* drow = sparse ? diff->data() + diff->size() - W
                            : diff->data() + static_cast<std::size_t>(o) * W;
        Word row_any = 0;
        for (std::size_t w = 0; w < W; ++w) {
          drow[w] = frow[w] ^ grow[w];
          row_any |= drow[w];
        }
        any_fail |= row_any != 0;
        if (sparse && row_any == 0) {
          diff->resize(diff->size() - W);
        } else if (touched_outputs) {
          touched_outputs->push_back(o);
        }
      }
    }
    std::copy(grow, grow + W, frow);
    state_[u] = 0;
  }
  if (any_fail) ++stats_.detected;
  if (detected_early) ++stats_.early_exits;
  return any_fail;
}

}  // namespace m3dfl::sim
