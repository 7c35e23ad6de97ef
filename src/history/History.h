//===- history/History.h - Histories and ordered histories ----------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A history (paper Def. 2.1) is a set of transaction logs with a session
/// order so and a write-read relation wr. This class also plays the role of
/// the paper's *ordered* history (h, <): the explorer maintains the
/// invariant that transactions execute one at a time, so the total order <
/// over events always keeps each transaction's events contiguous. We
/// therefore represent < by the order of the log vector itself (the "block
/// order") plus program order inside each log.
///
/// Identity for the read-from equivalence (§1, "Execution Equivalence")
/// deliberately ignores the block order: two histories are equal when they
/// have the same logs (same uids, events and po) and the same so and wr
/// relations. so is implied by the uids ((session, index) pairs), so
/// structural equality of the log sets is exactly history equality.
///
/// **Copy-on-write representation.** The block order is a vector of
/// *shared, logically immutable* transaction logs: copying a History copies
/// only the spine (one refcount bump per log), never the event storage.
/// Mutators clone a log lazily, at the moment it is first mutated through a
/// history that shares it ("mutation-after-share"), so the explorer's
/// read-branch and swap-child fan-out duplicates exactly the one log tail
/// it extends while every other log stays physically shared with the
/// parent, its siblings, and items queued in the parallel driver's deques
/// (see docs/ARCHITECTURE.md, "Copy-on-write histories").
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_HISTORY_HISTORY_H
#define TXDPOR_HISTORY_HISTORY_H

#include "history/TransactionLog.h"
#include "support/Relation.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace txdpor {

/// A history of database accesses, with its event order represented as a
/// sequence of transaction blocks.
///
/// Copying a History is O(numTxns()) pointer copies: all event storage is
/// shared between the copies until one of them mutates a log (copy-on-
/// write). Sharing is thread-safe under single-owner mutation: a History
/// value may be moved freely between threads (the parallel driver's
/// work-stealing deques do exactly that), and any number of threads may
/// concurrently read or mutate *distinct* History values that share logs —
/// each mutator clones shared logs before writing. Concurrent access to
/// one History value still requires external synchronization, as for any
/// standard container.
class History {
public:
  History() = default;

  /// Creates a history containing only the distinguished initial
  /// transaction, which writes value 0 to the \p NumVars variables and
  /// commits (paper Def. 2.1: it precedes all other transactions in so).
  static History makeInitial(unsigned NumVars);

  //===--------------------------------------------------------------------===
  // Transaction access
  //===--------------------------------------------------------------------===

  /// Number of transaction blocks, including the initial transaction.
  unsigned numTxns() const { return static_cast<unsigned>(Logs.size()); }
  /// The log at block-order position \p Idx. The reference is valid until
  /// this history is next mutated or destroyed (copy-on-write may replace
  /// the backing storage on mutation).
  const TransactionLog &txn(unsigned Idx) const {
    assert(Idx < Logs.size() && "transaction index out of range");
    return *Logs[Idx];
  }
  /// Identity of the backing storage of the log at \p Idx. Two histories
  /// physically share a log (copy-on-write aliasing) iff the pointers are
  /// equal. The pointer is stable until the log is next mutated through
  /// this history; use it only to *observe* sharing (tests, diagnostics),
  /// never to mutate.
  const TransactionLog *logIdentity(unsigned Idx) const {
    assert(Idx < Logs.size() && "transaction index out of range");
    return Logs[Idx].get();
  }
  /// Index of the transaction with identifier \p Uid, if present.
  std::optional<unsigned> indexOf(TxnUid Uid) const;
  /// True if a transaction with identifier \p Uid is part of the history.
  bool contains(TxnUid Uid) const { return indexOf(Uid).has_value(); }

  /// Index of the unique pending transaction, if any. Asserts that at most
  /// one transaction is pending (the explorer invariant, §5).
  std::optional<unsigned> pendingTxn() const;

  /// Total number of events across all logs.
  size_t numEvents() const;

  //===--------------------------------------------------------------------===
  // Mutation (used by the operational semantics and the explorer)
  //
  // Every mutator is copy-on-write: if the affected log is shared with
  // another History, it is cloned first and only this history sees the
  // change. Logs this history does not touch are never duplicated.
  //===--------------------------------------------------------------------===

  /// Starts a new transaction log containing a single begin event and
  /// appends it to the block order. Returns its index.
  unsigned beginTxn(TxnUid Uid);

  /// Appends \p E to the log at \p Idx. For the explorer this is only legal
  /// on the last block (keeps < consistent); the semantics enforces that.
  /// Copy-on-write: a log shared with other histories is cloned first.
  void appendEvent(unsigned Idx, const Event &E);

  /// Sets the wr dependency of the read at (\p Idx, \p Pos) to the
  /// transaction \p Writer, which must exist, be distinct from the reader,
  /// and visibly write the read's variable.
  /// Copy-on-write: a log shared with other histories is cloned first.
  void setWriter(unsigned Idx, uint32_t Pos, TxnUid Writer);

  /// Appends an already-built log as the last block. Used when
  /// reconstructing histories in Swap and when deserializing. Returns its
  /// index.
  unsigned appendLog(TransactionLog Log);

  /// Appends the log at \p Idx of \p Other as the last block, *sharing* its
  /// storage (O(1), no event copy). The shared log is cloned lazily if
  /// either history later mutates it. This is how Swap keeps an O(1) view
  /// of the unchanged causal past (§5.2).
  unsigned appendLogShared(const History &Other, unsigned Idx);

  /// Drops every block whose index is not in \p Keep (strictly ascending,
  /// must retain index 0 — the initial transaction) and renumbers the
  /// remainder, preserving relative block order. This is the windowed
  /// eviction hook of the streaming checker: retained logs move down the
  /// spine in place and the uid index is renumbered in place, so no event
  /// is copied and nothing is allocated. Every wr writer of a retained
  /// read must itself be retained (asserted via checkWellFormed in debug
  /// builds) — the streaming GC first drops retained readers' reads of
  /// evicted writers with forgetReads.
  void retainBlocks(const std::vector<unsigned> &Keep);

  /// Removes the reads of block \p Idx whose writer satisfies \p Drop and
  /// returns how many went; the log is edited in place when this history
  /// solely owns it (copy-on-write otherwise). The streaming GC uses this
  /// to forget a retained reader's reads of evicted writers before
  /// retainBlocks (the constraints those reads induced are frozen in the
  /// checker's closure; the events themselves would otherwise dangle).
  template <typename PredT> unsigned forgetReads(unsigned Idx, PredT Drop) {
    assert(Idx < Logs.size() && "transaction index out of range");
    return mutableLog(Idx).eraseReadsFrom(Drop);
  }

  //===--------------------------------------------------------------------===
  // Relations (over transaction indices in the current block order)
  //===--------------------------------------------------------------------===

  /// True if (A, B) is in the session order: A is the initial transaction,
  /// or both are in the same session with A's index smaller.
  bool soLess(unsigned A, unsigned B) const;

  /// The session order as a relation over transaction indices (bucketed
  /// by session, O(N + pairs) instead of the old all-pairs double loop).
  Relation soRelation() const;

  /// The transaction-level write-read relation.
  Relation wrRelation() const;

  /// (so ∪ wr) as a relation. Memoized on this value: the relation is
  /// computed on first use and shared by subsequent calls (and by copies
  /// of this history, which alias the same immutable cache) until the
  /// next mutation invalidates it. The reference is valid until this
  /// history is next mutated or destroyed; callers that outlive that
  /// point must copy. Filling the cache writes a mutable member, so —
  /// exactly like the standard-container contract above — concurrent
  /// access to one History value requires external synchronization even
  /// if all accesses are const.
  const Relation &soWrRelation() const;

  /// The causal relation (so ∪ wr)+ (irreflexive transitive closure).
  /// Memoized like soWrRelation(), with the same lifetime and threading
  /// caveats. The scratch source of the swap layer's CausalOrder view
  /// (core/Swap.h) for history-only callers; the engine's fan-out reads
  /// the closure its ConstraintState carries instead.
  const Relation &causalRelation() const;

  //===--------------------------------------------------------------------===
  // Value resolution
  //===--------------------------------------------------------------------===

  /// The value returned by the read at (\p Idx, \p Pos): the last po-write
  /// to the same variable before it if one exists (read-local), otherwise
  /// the last write of its wr writer. The read must have a writer assigned
  /// in the external case.
  Value readValue(unsigned Idx, uint32_t Pos) const;

  /// Indices of committed transactions that visibly write \p Var, in block
  /// order (the initial transaction qualifies).
  std::vector<unsigned> committedWriters(VarId Var) const;

  //===--------------------------------------------------------------------===
  // Identity, debugging
  //===--------------------------------------------------------------------===

  /// Read-from equivalence: same set of logs (block order ignored).
  bool sameHistory(const History &Other) const;

  /// Order-insensitive hash, compatible with sameHistory.
  uint64_t hashIgnoringOrder() const;

  /// A canonical one-line key (logs sorted by uid), usable as a map key in
  /// tests that collect distinct histories.
  std::string canonicalKey() const;

  /// Multi-line human-readable rendering in block order.
  std::string str(const VarNameFn *VarNames = nullptr) const;

  /// Asserts structural invariants: init first; begin/commit/abort
  /// placement; every assigned wr writer exists, differs from the reader
  /// and writes the variable; so ∪ wr acyclic. No-op in release builds.
  void checkWellFormed() const;

  /// Asserts in addition the ordered-history invariants of the explorer:
  /// block order extends so ∪ wr (readers after writers, sessions in
  /// order; paper footnote 7) and at most the last block is pending.
  void checkOrderConsistent() const;

private:
  /// Shared-storage handle to one block. Logically immutable while shared;
  /// mutableLog() restores unique ownership before any write.
  using LogPtr = std::shared_ptr<TransactionLog>;

  /// Returns the log at \p Idx with unique ownership, cloning it first if
  /// its storage is shared with another History (the copy-on-write step).
  /// Safe under the single-owner mutation discipline: use_count() == 1
  /// means no other History (hence no other thread) can reach the log.
  TransactionLog &mutableLog(unsigned Idx);

  /// Drops the memoized relations; every mutator calls this. (Copies keep
  /// sharing the parent's immutable cache until they mutate — the cache
  /// is keyed to the spine identity by construction, since any operation
  /// that changes the spine goes through a mutator.)
  void invalidateRelationCaches() const {
    CachedSoWr.reset();
    CachedCausal.reset();
  }

  std::vector<LogPtr> Logs; ///< In block (<) order; [0] is init.
  std::unordered_map<uint64_t, unsigned> IndexByUid;

  /// Lazily-computed so ∪ wr and (so ∪ wr)+ of the current spine. Shared,
  /// immutable once published; reset by every mutator.
  mutable std::shared_ptr<const Relation> CachedSoWr;
  mutable std::shared_ptr<const Relation> CachedCausal;
};

/// The per-log hash folded (after a splitmix64 avalanche) into
/// History::hashIgnoringOrder. Exposed so tests can construct histories
/// whose per-log hash *sums* collide — the regression shape for the old
/// commutative combine.
uint64_t hashTransactionLog(const TransactionLog &Log);

} // namespace txdpor

#endif // TXDPOR_HISTORY_HISTORY_H
