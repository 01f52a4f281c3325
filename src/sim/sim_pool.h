#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "sim/fault_sim.h"

namespace m3dfl::sim {

/// Pool of FaultSimulator clones of one bound prototype — the offline
/// mirror of the serving subsystem's per-design worker-context pool.
/// observed_diff() mutates the simulator's faulty-machine workspace, so
/// concurrent pipeline shards (dataset generation, dictionary campaigns)
/// each check a private simulator out instead of sharing the design's.
///
/// acquire() pops an idle clone or makes a new workspace over the
/// prototype's shared core (no copy of the good machine, no
/// re-simulation); release() returns it for reuse. With K concurrent
/// shards at most K clones ever exist. The prototype is only read, never
/// mutated, so any number of threads may acquire concurrently.
class SimulatorPool {
 public:
  explicit SimulatorPool(const FaultSimulator& prototype)
      : prototype_(&prototype) {}

  SimulatorPool(const SimulatorPool&) = delete;
  SimulatorPool& operator=(const SimulatorPool&) = delete;

  std::unique_ptr<FaultSimulator> acquire() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!idle_.empty()) {
        auto sim = std::move(idle_.back());
        idle_.pop_back();
        return sim;
      }
      ++created_;
    }
    // Clone outside the lock: sizing the workspace is the expensive part.
    return prototype_->clone();
  }

  void release(std::unique_ptr<FaultSimulator> sim) {
    std::lock_guard<std::mutex> lock(mu_);
    idle_.push_back(std::move(sim));
  }

  /// RAII checkout: returns the simulator to the pool on scope exit.
  class Lease {
   public:
    explicit Lease(SimulatorPool& pool)
        : pool_(&pool), sim_(pool.acquire()) {}
    ~Lease() {
      if (sim_) pool_->release(std::move(sim_));
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    FaultSimulator& operator*() { return *sim_; }
    FaultSimulator* operator->() { return sim_.get(); }

   private:
    SimulatorPool* pool_;
    std::unique_ptr<FaultSimulator> sim_;
  };

  Lease lease() { return Lease(*this); }

  /// Clones materialized so far (never exceeds the peak concurrency).
  std::size_t created() const {
    std::lock_guard<std::mutex> lock(mu_);
    return created_;
  }

 private:
  const FaultSimulator* prototype_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<FaultSimulator>> idle_;
  std::size_t created_ = 0;
};

}  // namespace m3dfl::sim
