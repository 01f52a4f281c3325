#include "sim/bitpar/bitpar_sim.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "obs/metrics.h"
#include "obs/prof/counters.h"

namespace m3dfl::sim::bitpar {

BitParallelSimulator::BitParallelSimulator(const SimCore& core,
                                           SimdTier tier)
    : core_(&core),
      arena_(&core.arena()),
      tier_(tier),
      row_words_((core.num_patterns() + kRowStride - 1) / kRowStride *
                 kRowStride) {
  if (!tier_available(tier_)) tier_ = best_tier();
  switch (tier_) {
    case SimdTier::kScalar: sweep_ = scalar_sweep(); break;
    case SimdTier::kSse2: sweep_ = sse2_sweep(); break;
    case SimdTier::kAvx2: sweep_ = avx2_sweep(); break;
  }
  assert(sweep_ != nullptr);
}

void BitParallelSimulator::run(std::span<const InjectedFault> faults,
                               Workspace& ws, BatchResult& out) const {
  // IPC / cache-miss evidence for the SIMD-payoff question PR 6 left open:
  // one counter pass per batch sweep, attributed to the bitpar kernel.
  M3DFL_OBS_COUNTERS(ctrs, "sim.bitpar.run");
  ws.single_spans.clear();
  ws.single_spans.reserve(faults.size());
  for (std::size_t j = 0; j < faults.size(); ++j) {
    ws.single_spans.push_back({faults.data() + j, 1});
  }
  run_machines(ws.single_spans, ws, out);
}

void BitParallelSimulator::run_machines(
    std::span<const std::span<const InjectedFault>> machines, Workspace& ws,
    BatchResult& out) const {
  assert(machines.size() <= kMaxLanes);
  const std::size_t n = machines.size();
  const std::size_t num_patterns = core_->num_patterns();

  ++ws.stats.batches;
  ws.stats.machines += n;
  out.num_machines = n;
  out.num_outputs = arena_->num_outputs();
  out.num_words = core_->num_words();
  out.num_patterns = num_patterns;
  out.fails.clear();
  std::fill(std::begin(out.detected), std::end(out.detected), Word{0});
  out.lane_of.resize(n);
  if (n == 0 || num_patterns == 0) return;

  // Cluster cone-similar machines into the same 64-lane block: ascending
  // arena id of the first fault's site gate is topological order, so
  // neighbours share most of their forward cones and each block's union
  // schedule stays close to a single cone. Empty machines sort last.
  ws.order.resize(n);
  std::iota(ws.order.begin(), ws.order.end(), 0u);
  if (n > kBlockLanes) {
    std::stable_sort(ws.order.begin(), ws.order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       const auto key = [&](std::uint32_t j) {
                         return machines[j].empty()
                                    ? ~std::uint32_t{0}
                                    : arena_->site(machines[j][0].site).gate;
                       };
                       return key(a) < key(b);
                     });
  }
  for (std::size_t l = 0; l < n; ++l) {
    out.lane_of[ws.order[l]] = static_cast<std::uint32_t>(l);
  }

  for (std::size_t lo = 0; lo < n; lo += kBlockLanes) {
    run_block(machines, lo, std::min(n, lo + kBlockLanes), ws, out);
  }
}

void BitParallelSimulator::run_block(
    std::span<const std::span<const InjectedFault>> machines,
    std::size_t lane_lo, std::size_t lane_hi, Workspace& ws,
    BatchResult& out) const {
  const std::size_t W = core_->num_words();
  const std::size_t RW = row_words_;
  const std::size_t G = arena_->num_gates();

  // Activation rows + pending injections. The delta a fault contributes at
  // its injection point is exactly its activation mask, for every
  // polarity: the forced value differs from the good V2 precisely on the
  // activated patterns.
  ws.pending.clear();
  ws.act.clear();
  ws.union_act.assign(W, 0);
  std::size_t rows = 0;
  for (std::size_t l = lane_lo; l < lane_hi; ++l) {
    for (const InjectedFault& f : machines[ws.order[l]]) {
      ++ws.stats.faults;
      const NetlistArena::SiteRef& sr = arena_->site(f.site);
      if (!arena_->observable(sr.gate)) {
        ++ws.stats.cone_skips;  // Outside every output cone: invisible.
        continue;
      }
      ws.act.resize((rows + 1) * W);
      Word* act = ws.act.data() + rows * W;
      core_->activation(f, act);
      Word any = 0;
      for (std::size_t w = 0; w < W; ++w) any |= act[w];
      if (any == 0) {
        ++ws.stats.inactive_faults;
        ws.act.resize(rows * W);
        continue;
      }
      for (std::size_t w = 0; w < W; ++w) ws.union_act[w] |= act[w];
      assert(rows < 0xffff && "too many active faults in one block");
      ws.pending.push_back({sr.gate, sr.pin,
                            static_cast<std::uint16_t>(l - lane_lo),
                            static_cast<std::uint16_t>(rows)});
      ++rows;
      ++ws.stats.faults_injected;
    }
  }
  if (ws.pending.empty()) return;  // Nothing observable fires: all pass.
  std::size_t live = 0;
  for (std::size_t w = 0; w < W; ++w) {
    live += static_cast<std::size_t>(__builtin_popcountll(ws.union_act[w]));
  }
  ws.stats.patterns_skipped += core_->num_patterns() - live;

  // Group injections by (gate, pin) into points; each point gets a
  // constant lane mask and a per-pattern injection row.
  std::sort(ws.pending.begin(), ws.pending.end(),
            [](const Workspace::Pending& a, const Workspace::Pending& b) {
              if (a.gate != b.gate) return a.gate < b.gate;
              if (a.pin != b.pin) return a.pin < b.pin;
              return a.lane < b.lane;
            });
  ws.groups.clear();
  ws.points.clear();
  ws.lane_injects.clear();
  for (std::size_t i = 0; i < ws.pending.size();) {
    std::size_t e = i;
    while (e < ws.pending.size() && ws.pending[e].gate == ws.pending[i].gate &&
           ws.pending[e].pin == ws.pending[i].pin) {
      ++e;
    }
    const auto point = static_cast<std::uint16_t>(ws.points.size());
    assert(ws.points.size() < kNoPoint);
    ws.groups.push_back({ws.pending[i].gate, ws.pending[i].pin, point});
    ws.points.push_back({static_cast<std::uint32_t>(ws.lane_injects.size()),
                         static_cast<std::uint32_t>(e - i)});
    for (; i < e; ++i) {
      ws.lane_injects.push_back({ws.pending[i].lane, ws.pending[i].act_row});
    }
  }
  ws.point_masks.assign(ws.points.size(), 0);
  for (std::size_t i = 0; i < ws.points.size(); ++i) {
    const InjectPoint& pt = ws.points[i];
    for (std::uint32_t li = pt.begin; li < pt.begin + pt.count; ++li) {
      ws.point_masks[i] |= Word{1} << (ws.lane_injects[li].lane & 63);
    }
  }

  // Union forward cone of every injection gate, restricted to observable
  // gates. Ascending arena id is topological, so the sorted mark set is
  // the evaluation schedule.
  ws.marked.assign(G, 0);
  ws.bfs.clear();
  for (const Workspace::Group& g : ws.groups) {
    if (!ws.marked[g.gate]) {
      ws.marked[g.gate] = 1;
      ws.bfs.push_back(g.gate);
    }
  }
  for (std::size_t head = 0; head < ws.bfs.size(); ++head) {
    for (std::uint32_t fo : arena_->fanout(ws.bfs[head])) {
      if (!ws.marked[fo] && arena_->observable(fo)) {
        ws.marked[fo] = 1;
        ws.bfs.push_back(fo);
      }
    }
  }
  ws.sched_ids = ws.bfs;
  std::sort(ws.sched_ids.begin(), ws.sched_ids.end());

  // Compile the schedule. Groups are gate-ascending (pending was sorted)
  // and every group's gate is a seed, hence scheduled — one merge walk
  // attaches pin/override points. Pass gates (BUF/INV/MIV/OBS) with no
  // injection point alias their fanin's delta slot instead of being
  // evaluated: repeater and MIV chains cost nothing.
  ws.slot_of.assign(G, 0);
  ws.sched.clear();
  ws.taps.clear();
  std::size_t gi = 0;
  for (std::uint32_t i = 0; i < ws.sched_ids.size(); ++i) {
    const std::uint32_t u = ws.sched_ids[i];
    const bool pointed = gi < ws.groups.size() && ws.groups[gi].gate == u;
    const auto fan = arena_->fanin(u);
    if (!pointed && arena_->op(u) == OpKind::kPass) {
      ws.slot_of[u] = fan.empty() ? 0 : ws.slot_of[fan[0]];
    } else {
      CompiledGate cg;
      cg.op = arena_->op(u);
      assert(fan.size() <= 4);
      cg.nfanin = static_cast<std::uint8_t>(fan.size());
      for (std::size_t k = 0; k < fan.size(); ++k) {
        cg.fanin_slot[k] = ws.slot_of[fan[k]];
        cg.fanin_gate[k] = fan[k];
      }
      for (; gi < ws.groups.size() && ws.groups[gi].gate == u; ++gi) {
        if (ws.groups[gi].pin < 0) {
          cg.pin_point = ws.groups[gi].point;
        } else {
          assert(ws.groups[gi].pin < cg.nfanin);
          cg.ov_point[ws.groups[gi].pin] = ws.groups[gi].point;
        }
      }
      ws.sched.push_back(cg);
      ws.slot_of[u] = static_cast<std::uint32_t>(ws.sched.size());
    }
    for (std::uint32_t o : arena_->outputs_of(u)) {
      ws.taps.push_back({ws.slot_of[u], o});
    }
  }
  assert(gi == ws.groups.size());

  // Delta slots are fully overwritten by the kernel; only the shared zero
  // row (slot 0) must actually be zero, and resize() value-initializes any
  // growth, so no bulk clearing between blocks.
  const std::size_t need = (ws.sched.size() + 1) * RW;
  if (ws.delta.size() < need) ws.delta.resize(need, 0);
  std::fill_n(ws.delta.begin(), RW, Word{0});
  if (ws.eff.size() < 4 * RW) ws.eff.resize(4 * RW);

  SweepContext c;
  c.num_patterns = static_cast<std::uint32_t>(core_->num_patterns());
  c.row_words = static_cast<std::uint32_t>(RW);
  c.W = static_cast<std::uint32_t>(W);
  c.block = static_cast<std::uint32_t>(lane_lo / kBlockLanes);
  c.sched = ws.sched.data();
  c.sched_size = static_cast<std::uint32_t>(ws.sched.size());
  c.delta = ws.delta.data();
  c.eff = ws.eff.data();
  c.v2 = core_->v2(0);
  c.point_masks = ws.point_masks.data();
  c.points = ws.points.data();
  c.lane_injects = ws.lane_injects.data();
  c.act_rows = ws.act.data();
  c.taps = ws.taps.data();
  c.num_taps = static_cast<std::uint32_t>(ws.taps.size());
  c.fails = &out.fails;
  c.detected = &out.detected[c.block];
  c.stats = &ws.stats;
  sweep_(c);
}

void BitParallelSimulator::BatchResult::keys_of(
    std::size_t j, std::vector<std::uint64_t>& keys) const {
  keys.clear();
  const std::uint32_t l = lane_of[j];
  const std::uint32_t wj = l >> 6;
  const Word bj = Word{1} << (l & 63);
  for (const FailRecord& f : fails) {
    if (f.word == wj && (f.lanes & bj)) {
      keys.push_back((static_cast<std::uint64_t>(f.output) << 32) | f.pattern);
    }
  }
  std::sort(keys.begin(), keys.end());
}

bool BitParallelSimulator::BatchResult::diff_of(std::size_t j,
                                                std::vector<Word>& diff) const {
  diff.assign(num_outputs * num_words, 0);
  const std::uint32_t l = lane_of[j];
  const std::uint32_t wj = l >> 6;
  const Word bj = Word{1} << (l & 63);
  bool any = false;
  for (const FailRecord& f : fails) {
    if (f.word == wj && (f.lanes & bj)) {
      diff[static_cast<std::size_t>(f.output) * num_words + (f.pattern >> 6)] |=
          Word{1} << (f.pattern & 63);
      any = true;
    }
  }
  return any;
}

FailureLog BitParallelSimulator::BatchResult::failure_log_of(
    std::size_t j) const {
  FailureLog log;
  log.compacted = false;
  std::vector<std::uint64_t> keys;
  keys_of(j, keys);
  log.fails.reserve(keys.size());
  for (std::uint64_t k : keys) {
    log.fails.push_back({static_cast<std::uint32_t>(k & 0xffffffffu),
                         static_cast<std::uint32_t>(k >> 32)});
  }
  // failure_log_from_diff orders pattern-major; keys are output-major.
  std::sort(log.fails.begin(), log.fails.end(),
            [](const FailureLog::Obs& a, const FailureLog::Obs& b) {
              return a.pattern != b.pattern ? a.pattern < b.pattern
                                            : a.output < b.output;
            });
  return log;
}

void flush_bitpar_metrics(BitParStats& stats) {
  auto& reg = obs::MetricsRegistry::instance();
  // Registry entries are process-lifetime stable; cache the references.
  static obs::Counter& batches = reg.counter("sim.bitpar.batches");
  static obs::Counter& machines = reg.counter("sim.bitpar.machines");
  static obs::Counter& faults = reg.counter("sim.bitpar.faults");
  static obs::Counter& injected = reg.counter("sim.bitpar.faults_injected");
  static obs::Counter& cone = reg.counter("sim.bitpar.cone_skips");
  static obs::Counter& inactive = reg.counter("sim.bitpar.inactive_faults");
  static obs::Counter& swept = reg.counter("sim.bitpar.patterns_swept");
  static obs::Counter& skipped = reg.counter("sim.bitpar.patterns_skipped");
  static obs::Counter& evals = reg.counter("sim.bitpar.gate_evals");
  static obs::Counter& lane_words =
      reg.counter("sim.bitpar.lane_words_evaluated");
  static obs::Counter& fail_records = reg.counter("sim.bitpar.fail_records");
  batches.add(stats.batches);
  machines.add(stats.machines);
  faults.add(stats.faults);
  injected.add(stats.faults_injected);
  cone.add(stats.cone_skips);
  inactive.add(stats.inactive_faults);
  swept.add(stats.patterns_swept);
  skipped.add(stats.patterns_skipped);
  evals.add(stats.gate_evals);
  lane_words.add(stats.lane_words_evaluated);
  fail_records.add(stats.fail_records);
  stats = BitParStats{};
}

}  // namespace m3dfl::sim::bitpar
