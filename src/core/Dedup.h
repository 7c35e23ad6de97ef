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
#include <utility>
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

/// Incrementally carried fingerprint state of one WorkItem, updated O(Δ)
/// as the engine extends the item and consumed by
/// DedupTable::itemFingerprint. The final fingerprint is a commutative
/// sum of *finalized per-block digests* (each binding its block index),
/// so appending an event dirties exactly one block instead of
/// invalidating an order-sensitive chain over the whole item.
///
/// The engine maintains per item: a new block on begin (noteNewBlock),
/// a dirty bit per mutated block (markDirty), and the (reader, writer)
/// session pair of every non-init external read (noteReadPair — the
/// color-refinement edges). Swap children start from a
/// default-constructed (invalid) value: the next probe falls back to the
/// full from-scratch walk, which is also the always-correct reference the
/// engine cross-asserts against in debug builds.
struct DedupFp {
  /// One renamed-session occurrence inside a block's digest: the block
  /// content chain folds everything π-invariant (event payloads, uid
  /// *indices*, init uids) and leaves a position-bound hole per session
  /// name; a mention records which session fills which hole. A π move
  /// then refolds O(mentions) instead of re-walking the transaction log.
  struct Mention {
    uint32_t Slot;    ///< Event position; OwnerSlot = the block's own uid.
    uint32_t Session; ///< Non-init session renamed into the hole.
  };
  static constexpr uint32_t OwnerSlot = 0xfffffu;
  static constexpr unsigned MaxMentions = 8;

  struct BlockEntry {
    uint64_t InvDig = 0; ///< π-invariant digest (feeds the D0 colors).
    uint64_t CntA = 0;   ///< Finalized π-invariant content chain, chain A.
    uint64_t CntB = 0;   ///< Finalized π-invariant content chain, chain B.
    uint64_t PiA = 0;    ///< CntA + mention sum under the current π.
    uint64_t PiB = 0;    ///< CntB + mention sum under the current π.
    /// Sessions whose renaming this block's PiA/PiB depend on (owner +
    /// non-init writer sessions); a probe recomputes the π digests only
    /// for blocks whose mask intersects the sessions π moved.
    uint64_t Mask = 0;
    uint32_t Session = 0; ///< Owning session (TxnUid::InitSession for init).
    bool Dirty = true;    ///< Content changed since the last probe.
    /// 0xff = more than MaxMentions renamed occurrences: the (rare)
    /// refold of such a block re-walks the log instead.
    uint8_t NumMentions = 0;
    Mention Mentions[MaxMentions];
  };

  /// Carried π-invariant digest of one cursor, keyed and sorted exactly
  /// like the CursorMap (uid-packed ascending); the probe composes it
  /// with the renamed uid, so neither content hashing nor renaming needs
  /// the TxnCursor itself.
  struct CursorEntry {
    uint64_t Packed = 0; ///< TxnUid::packed() of the cursor's transaction.
    uint64_t InvA = 0;   ///< Content digest (index, pc, locals), chain A.
    uint64_t InvB = 0;   ///< Content digest, chain B.
  };

  /// False until the first probe (and always for swap children): the next
  /// probe rebuilds every entry from the history.
  bool Valid = false;
  std::vector<BlockEntry> Blocks;
  /// Cursor digests mirroring the item's CursorMap (same sort order; the
  /// map only ever grows). Entries are refreshed when the engine noted
  /// the cursor dirty or when the map grew.
  std::vector<CursorEntry> CursorEnts;
  /// Packed uids whose cursor mutated since the last probe (the engine
  /// notes exactly one per extension child).
  std::vector<uint64_t> DirtyCursors;
  /// Session permutation chosen by the last probe (empty before it);
  /// diffed against the new permutation to find moved sessions.
  std::vector<uint32_t> Pi;
  /// (reader session, writer session) of every non-init external read, in
  /// append order (consumed commutatively).
  std::vector<std::pair<uint32_t, uint32_t>> ReadPairs;

  /// Marks block \p Idx as changed (event appended, writer assigned).
  /// No-op while invalid — the next probe rebuilds everything anyway.
  void markDirty(unsigned Idx) {
    if (Valid && Idx < Blocks.size())
      Blocks[Idx].Dirty = true;
  }

  /// Registers the begin of a transaction of \p Session as a new (dirty)
  /// trailing block.
  void noteNewBlock(uint32_t Session) {
    if (!Valid)
      return;
    Blocks.emplace_back();
    Blocks.back().Session = Session;
  }

  /// Records the refinement edge of a non-init external read.
  void noteReadPair(uint32_t ReaderSession, uint32_t WriterSession) {
    if (Valid)
      ReadPairs.emplace_back(ReaderSession, WriterSession);
  }

  /// Marks the cursor of \p Packed as changed (stepped, finished, or
  /// freshly created). No-op while invalid.
  void noteCursorDirty(uint64_t Packed) {
    if (Valid)
      DirtyCursors.push_back(Packed);
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
  /// from the history, so neither participates). When \p Carried is
  /// non-null its maintained per-block and per-cursor digests make the
  /// probe O(dirty blocks + dirty cursors + sessions + moved-session
  /// mentions) instead of O(item); it is refreshed and left clean for the
  /// item's children. A null (or invalid) carried
  /// state takes the full from-scratch walk — both paths produce the
  /// identical fingerprint (cross-asserted by the engine in debug builds
  /// and by the DifferentialOracle's DiffDedup leg in release).
  Fingerprint itemFingerprint(const History &H, const CursorMap &Cursors,
                              DedupFp *Carried = nullptr) const;

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

  /// Recomputes \p Fp.Blocks[I]'s π-invariant layer from \p H: the D0
  /// digest, the content chains, the mention list and the involvement
  /// mask.
  void refreshBlock(DedupFp &Fp, const History &H, unsigned I) const;

  /// Recomputes \p Fp.Blocks[I]'s PiA/PiB under \p Fp.Pi: an O(mentions)
  /// refold of the cached content chains, falling back to a full log walk
  /// for blocks whose mention list overflowed.
  void refoldPiDigest(DedupFp &Fp, const History &H, unsigned I) const;

  /// Brings \p Fp.CursorEnts back in sync with \p Cursors: inserts
  /// entries for cursors the map gained and refreshes the ones the engine
  /// noted dirty.
  void syncCursors(DedupFp &Fp, const CursorMap &Cursors) const;

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
