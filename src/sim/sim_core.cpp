#include "sim/sim_core.h"

#include <cassert>

#include "common/heap_bytes.h"

namespace m3dfl::sim {

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

SimCore::SimCore(std::shared_ptr<const bitpar::NetlistArena> arena,
                 const TwoVectorResult& good)
    : arena_(std::move(arena)),
      num_patterns_(good.num_patterns),
      W_(good.num_words) {
  const std::size_t G = arena_->num_gates();
  assert(good.v2.size() == G * W_);
  if (W_ > 0) {
    const std::size_t rem = num_patterns_ % kWordBits;
    tail_ = rem == 0 ? ~Word{0} : (~Word{0} >> (kWordBits - rem));
  }
  v1_.resize(G * W_);
  v2_.resize(G * W_);
  tr_.resize(G * W_);
  for (std::uint32_t u = 0; u < G; ++u) {
    const netlist::GateId g = arena_->orig_of(u);
    for (std::size_t w = 0; w < W_; ++w) {
      const Word valid = w + 1 == W_ ? tail_ : ~Word{0};
      v1_[u * W_ + w] = good.v1_word(g, w) & valid;
      v2_[u * W_ + w] = good.v2_word(g, w) & valid;
      tr_[u * W_ + w] = good.tr_word(g, w) & valid;
    }
  }
}

void SimCore::activation(const InjectedFault& fault, Word* act) const {
  const std::uint32_t d = arena_->site(fault.site).driver;
  const Word* a = v1(d);
  const Word* b = v2(d);
  const Word* t = tr(d);
  // Rows are tail-clean, so only the stuck-at-1 complement needs the mask.
  for (std::size_t w = 0; w < W_; ++w) {
    switch (fault.polarity) {
      case FaultPolarity::kSlowToRise: act[w] = ~a[w] & b[w] & t[w]; break;
      case FaultPolarity::kSlowToFall: act[w] = a[w] & ~b[w] & t[w]; break;
      case FaultPolarity::kSlow: act[w] = (a[w] ^ b[w]) & t[w]; break;
      case FaultPolarity::kStuckAt0: act[w] = b[w]; break;
      case FaultPolarity::kStuckAt1:
        act[w] = ~b[w] & (w + 1 == W_ ? tail_ : ~Word{0});
        break;
    }
  }
}

std::size_t SimCore::bytes() const {
  return sizeof(*this) + heap_bytes(v1_, v2_, tr_);
}

}  // namespace m3dfl::sim
