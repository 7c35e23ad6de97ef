//===- core/Dedup.h - Subtree dedup & session-symmetry reduction ----------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Session-symmetry subtree deduplication: a canonical fingerprint of a
/// WorkItem (history structure + cursor snapshot + base levels), memoized
/// in a sharded table so renaming-isomorphic subtrees are expanded once.
/// Modeled on POR-SE's event-structure unfolding (canonical configuration
/// fingerprints in a shared table); adapted here to the transactional
/// exploration tree, where the symmetry worth exploiting is *session
/// renaming* in programs with structurally identical sessions.
///
/// explore-ce is strongly optimal: it never reaches the same item twice,
/// so an order-preserving fingerprint could never hit. Session ids are
/// therefore renamed to a canonical permutation first. Sessions are
/// partitioned once per table into *structural classes* (same transaction
/// bodies, same count, same base level); within each class a canonical
/// order is chosen per item by a two-round color refinement over
/// per-session event-sequence digests. Renaming is sound because a
/// structural-class permutation π maps the program to itself: π applied
/// to a reachable item yields a reachable item whose subtree is the
/// π-image of the original's, and per-session level verdicts are
/// invariant under within-class renaming. A wrong (but deterministic)
/// canonical choice can only cost effectiveness, never soundness of the
/// fingerprint itself — the fingerprint hashes the *renamed* item exactly.
/// When every class is a singleton the renaming is the identity and no
/// probe can hit, so the engine builds no table at all (symmetric()).
///
/// The table is internally synchronized (sharded mutexes) and its probe
/// entry points are const, so the one engine instance shared by the
/// sequential and parallel drivers covers all of them.
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_CORE_DEDUP_H
#define TXDPOR_CORE_DEDUP_H

#include "consistency/IsolationLevel.h"
#include "history/History.h"
#include "program/Program.h"
#include "semantics/Executor.h"

#include <array>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace txdpor {

/// A 128-bit fingerprint: two independently-seeded 64-bit avalanche chains
/// over the same element stream, so accidental collisions need both chains
/// to collide at once.
struct Fingerprint {
  uint64_t Lo = 0;
  uint64_t Hi = 0;

  bool operator==(const Fingerprint &O) const {
    return Lo == O.Lo && Hi == O.Hi;
  }
  bool operator!=(const Fingerprint &O) const { return !(*this == O); }
};

struct FingerprintHash {
  size_t operator()(const Fingerprint &F) const {
    return static_cast<size_t>(F.Lo ^ (F.Hi * 0x9e3779b97f4a7c15ULL));
  }
};

/// The memoized explored-fingerprint table of one exploration run.
/// Built by the ExplorationEngine when ExplorerConfig::Dedup is set and
/// the program is symmetric(); shared by every driver that run uses.
class DedupTable {
public:
  /// \p Levels must be the engine's *resolved* per-session assignment —
  /// it both salts the fingerprint (so tables are never reused across
  /// semantics) and separates structural session classes.
  /// \p MaxEntries bounds the memo table: 0 (the default) keeps every
  /// fingerprint forever; a positive value caps the table at roughly that
  /// many entries with per-shard CLOCK eviction (an evicted subtree is
  /// merely re-explored — never wrongly skipped).
  DedupTable(const Program &Prog, const LevelAssignment &Levels,
             uint64_t MaxEntries = 0);

  /// True iff some structural class holds two or more sessions. Otherwise
  /// every renaming is the identity and, explore-ce being strongly
  /// optimal, no probe of this table can ever hit.
  bool symmetric() const { return NumClasses < NumSessions; }

  /// The canonical fingerprint of one WorkItem (history + cursor
  /// snapshot; Depth is exploration bookkeeping and CState is derived
  /// from the history, so neither participates), computed from scratch
  /// in O(item) with no heap allocation for programs of ≤ 64 sessions.
  Fingerprint itemFingerprint(const History &H,
                              const CursorMap &Cursors) const;

  /// Inserts \p F; returns true iff it was not already present (i.e. the
  /// subtree rooted at the fingerprinted item is new). In bounded mode a
  /// full shard evicts its CLOCK victim to make room. Thread-safe.
  bool insertIfNew(const Fingerprint &F) const;

  /// CLOCK victims evicted so far (0 in unbounded mode).
  uint64_t evictions() const;

private:
  uint32_t classOf(uint32_t Session) const {
    return Session == TxnUid::InitSession ? InitClass : ClassOf[Session];
  }

  static constexpr uint32_t InitClass = 0xffffffffu;
  static constexpr unsigned NumShards = 16;

  /// One lock-striped sixteenth of the memo table. Unbounded mode uses
  /// Set alone; bounded mode uses the Map + Slots/Ref CLOCK ring (a probe
  /// hit re-arms the entry's reference bit; a full shard sweeps the hand,
  /// clearing bits, until it finds an unreferenced victim).
  struct Shard {
    mutable std::mutex M;
    mutable std::unordered_set<Fingerprint, FingerprintHash> Set;
    mutable std::unordered_map<Fingerprint, uint32_t, FingerprintHash> Map;
    mutable std::vector<Fingerprint> Slots;
    mutable std::vector<uint8_t> Ref;
    mutable uint32_t Hand = 0;
    mutable uint64_t Evictions = 0;
  };

  unsigned NumSessions;
  unsigned NumClasses = 0;
  uint64_t MaxPerShard = 0; ///< 0 = unbounded.
  /// Session → structural class id.
  std::vector<uint32_t> ClassOf;
  /// Fold of the program text + resolved levels: items from different
  /// semantics can never alias.
  uint64_t Salt0 = 0;
  uint64_t Salt1 = 0;
  std::array<Shard, NumShards> Shards;
};

} // namespace txdpor

#endif // TXDPOR_CORE_DEDUP_H
