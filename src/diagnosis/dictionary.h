#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "compress/sigstore.h"
#include "diagnosis/report.h"
#include "partition/hier.h"
#include "sim/backend.h"
#include "sim/failure_log.h"
#include "sim/fault_sim.h"

namespace m3dfl::diag {

/// Fault-dictionary diagnosis — the classic precompute-everything
/// alternative to the effect-cause Diagnoser. Every fault's full failure
/// signature is simulated once and indexed; diagnosing a failure log is
/// then a hash lookup (exact matches) plus a similarity scan (nearest
/// signatures), with no simulation on the tester-floor critical path.
///
/// Trade-off (the textbook one): the dictionary costs
/// O(faults x signature) memory and a full fault-simulation campaign up
/// front, but diagnosis drops from tens of milliseconds (effect-cause with
/// per-candidate simulation) to microseconds. The paper's framework makes
/// the same style of trade when it amortizes graph construction; this
/// class completes the library's coverage of classic diagnosis techniques.
struct FaultDictionaryOptions {
  /// Only faults whose signature is non-empty are stored.
  sim::FaultPolarity polarities[2] = {sim::FaultPolarity::kSlowToRise,
                                      sim::FaultPolarity::kSlowToFall};
  /// Report size cap for nearest-signature fallback.
  std::size_t max_candidates = 32;
  /// Worker threads for the signature campaign (0 = hardware concurrency).
  /// Contiguous site ranges (or regions) are swept by for_each_chunk, each
  /// shard on its own simulator workspace, and merged in site order, so
  /// the dictionary is bit-identical at every thread count.
  std::size_t num_threads = 0;
  /// Simulation engine for the campaign. kBitParallel batches up to 512
  /// (site, polarity) jobs per sweep; both backends yield bit-identical
  /// dictionaries (same fingerprint()) at every thread count.
  sim::SimBackend backend = sim::SimBackend::kEvent;
  /// When > 0, the campaign shards over cone-closed hierarchical regions of
  /// at most this many gates (partition/hier.h) instead of contiguous site
  /// ranges. Regions complete independently (across both backends and any
  /// thread count) and the merged entries are restored to canonical
  /// (site, polarity) order, so fingerprint() stays bit-identical to an
  /// unpartitioned build.
  std::size_t partition_max_gates = 0;
  /// When non-empty, signatures spill to this file as the campaign runs
  /// (delta + varint encoded, see compress/sigstore.h) and lookups read
  /// them back through an mmap; entries keep only a small (offset, bytes,
  /// count) ref, so peak memory no longer scales with the full dictionary.
  std::string spill_path;
};

class FaultDictionary {
 public:
  /// Builds the dictionary by simulating every TDF once. `fsim` must be
  /// bound to the production pattern set.
  FaultDictionary(const netlist::Netlist& nl,
                  const netlist::SiteTable& sites,
                  sim::FaultSimulator& fsim,
                  FaultDictionaryOptions options = {});

  std::size_t num_entries() const { return entries_.size(); }

  /// Resident (heap) footprint of the stored signatures, in bytes. In the
  /// default in-memory mode this is the paper-style dictionary cost figure;
  /// in spill mode it is ~0 because the signatures live on disk.
  std::size_t signature_bytes() const;

  /// Where the signature bytes actually are.
  struct SignatureFootprint {
    std::size_t resident_bytes = 0;  ///< Decoded keys held in memory.
    std::size_t disk_bytes = 0;      ///< Encoded bytes in the spill file.
    std::size_t logical_bytes = 0;   ///< 8 bytes x total keys — what a
                                     ///< fully-resident build would hold.
  };
  SignatureFootprint footprint() const;

  /// Order-sensitive hash of every stored entry (site, polarity, keys) —
  /// the whole dictionary in one comparable value. Used by the parallel-
  /// determinism tests to assert sharded builds match sequential ones.
  std::uint64_t fingerprint() const;

  /// Diagnoses an uncompacted failure log. Exact signature matches rank
  /// first (score 1); otherwise the highest-Jaccard signatures are
  /// returned.
  DiagnosisReport diagnose(const sim::FailureLog& log) const;

 private:
  struct Entry {
    netlist::SiteId site;
    sim::FaultPolarity polarity;
    std::vector<std::uint64_t> keys;  ///< Sorted (output << 32 | pattern);
                                      ///< empty in spill mode.
    std::uint64_t hash;
    std::uint32_t count = 0;          ///< Number of keys.
    compress::SigRef ref;             ///< Spill-mode locator.
  };

  static std::uint64_t hash_keys(const std::vector<std::uint64_t>& keys);

  /// The entry's keys: the resident vector, or (spill mode) a decode into
  /// `scratch`.
  const std::vector<std::uint64_t>& keys_of(const Entry& e,
                                            std::vector<std::uint64_t>&
                                                scratch) const;

  const netlist::Netlist* nl_;
  const netlist::SiteTable* sites_;
  FaultDictionaryOptions options_;
  std::vector<Entry> entries_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_hash_;
  std::unique_ptr<compress::SignatureStore> store_;  ///< Spill mode only.
};

}  // namespace m3dfl::diag
