//===- consistency/IncrementalChecker.h - Incremental commit test ---------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental commit-test engine behind ValidWrites (§5.1).
///
/// The saturation equivalence (consistency/SaturationChecker.h) reduces
/// "h satisfies I" for the saturable levels (true/RC/RA/CC, uniform or per
/// session) to "so ∪ wr ∪ forced(I) is acyclic". The scratch checkers
/// rebuild that graph and re-test acyclicity from nothing on every call —
/// the innermost loop of the DPOR pays a full O(N³/64) closure per
/// candidate writer of every external read.
///
/// ConstraintState instead *carries* the saturation state along the
/// exploration tree, exploiting the explorer's ordered-history discipline
/// (events are only ever appended to the unique pending transaction, and
/// the block order extends so ∪ wr):
///
///  * the pending transaction is a so ∪ wr *sink*, so no edge ever leaves
///    it and no new edge can touch the graph anywhere else — appending a
///    begin, write, commit or abort can never close a cycle, and an edge
///    into the sink grows only the sink's ancestor set — one O(N/64) row
///    union, since the closures are stored transposed; a begin adds only
///    the edge from the session's latest transaction, since every earlier
///    one already reaches it;
///  * the causal past of a committed transaction is frozen (every later
///    edge points at the then-pending sink), so the axiom premises of
///    completed reads never grow again, and the premise of the pending
///    transaction's reads grows only through its own new wr edges;
///  * probing a candidate writer W for a new external read therefore
///    reduces to: "would the read's forced edges (all targeting committed
///    transactions) close a cycle through the maintained closure?" — a
///    handful of O(1) reachability bit-tests instead of a graph rebuild.
///    Forced edges the closure already implies can neither close a cycle
///    nor change the closure, so they are dropped at collection: only
///    non-implied edges reach the cycle search and the closure update.
///
/// One state instance decides *both* the uniform and the per-session mixed
/// commit test — it is parameterized by a LevelAssignment, and a uniform
/// assignment is simply the one-level special case — so the two semantics
/// share every line of the incremental core and cannot drift. The scratch
/// SaturationChecker / MixedSaturationChecker remain the independent
/// reference implementations: NaiveDfs, RandomWalk and the Valid filter
/// keep using them, the DifferentialOracle diffs the two continuously, and
/// tests/incremental_checker_test.cpp pins probe-by-probe equivalence.
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_CONSISTENCY_INCREMENTALCHECKER_H
#define TXDPOR_CONSISTENCY_INCREMENTALCHECKER_H

#include "consistency/IsolationLevel.h"
#include "history/History.h"
#include "support/Relation.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

namespace txdpor {

/// Saturation state of one ordered history, maintained under the
/// explorer's append-only extension steps and carried copy-on-write by
/// value alongside each WorkItem (exactly like the cursor snapshot):
/// copying the state is a few flat-buffer copies, extending it is
/// O(N/64)-per-row work, and probing a candidate writer is O(1)
/// reachability queries against the maintained closures.
///
/// Contract: the history this state tracks must satisfy the ordered-
/// history invariants the explorer maintains (§5) — every so ∪ wr edge
/// goes forward in block order and at most one transaction is pending.
/// (The pending block need not be last: the truncated reader of the
/// readLatest histories sits mid-order.) Like a History value, one state
/// is owned by a single thread at a time; distinct copies may be used
/// concurrently without synchronization since they share no storage.
class ConstraintState {
public:
  ConstraintState() = default;

  /// Bulk-builds the state of \p H by replaying its blocks through the
  /// same incremental appliers the explorer uses event by event — one
  /// code path, so bulk and carried states cannot diverge. Detects
  /// inconsistency on the way (the first forced edge that closes a cycle
  /// flips consistent() to false and stops the build).
  ///
  /// \p MaxTxns pre-sizes every matrix/bitset for the largest history
  /// this state will ever grow to (the program's transaction count plus
  /// the initial transaction); appending within that capacity never
  /// reallocates. 0 sizes for H itself (probe-only states).
  ConstraintState(const History &H, const LevelAssignment &Levels,
                  unsigned MaxTxns = 0);

  /// Like the bulk constructor, but stops after the first \p PrefixLen
  /// blocks of \p H: the result tracks exactly the prefix [0, PrefixLen).
  /// Capacity is still sized for all of H (or \p MaxTxns if larger), so
  /// the state can later be extended with replayBlocks without
  /// reallocating. Seeds the PrefixStateCache checkpoints.
  ConstraintState(const History &H, const LevelAssignment &Levels,
                  unsigned MaxTxns, unsigned PrefixLen);

  /// Replays blocks [\p From, \p To) of \p H through the extension
  /// appliers — the delta half of the bulk constructor, exposed so swap
  /// children and readLatest truncations can reuse a state of the shared
  /// prefix instead of rebuilding from block zero. Requires this state to
  /// track exactly the blocks [0, From) of \p H (asserted structurally in
  /// debug builds via the block-append discipline). A pending block may
  /// sit anywhere in [From, To): its probe context is stashed while later
  /// blocks replay, exactly as in the bulk constructor. Replay stops early
  /// if a forced edge closes a cycle (consistent() turns false).
  void replayBlocks(const History &H, unsigned From, unsigned To);

  /// Logical equivalence ignoring capacity: same tracked blocks, closures,
  /// writer index and open-transaction context below numTxns(). Two
  /// inconsistent states compare equal regardless of where the replay
  /// stopped — only the verdict is meaningful then. The cross-assert
  /// backing the incremental swap-child rebuild (debug builds and the
  /// DifferentialOracle compare every delta-rebuilt state against the
  /// bulk-constructed reference with this).
  bool equivalentTo(const ConstraintState &O) const;

  /// False once some read's forced edges closed a cycle: the tracked
  /// history violates the base assignment. Extension appliers must not be
  /// called on an inconsistent state.
  bool consistent() const { return !Inconsistent; }

  /// Transactions tracked so far (== the history's block count).
  unsigned numTxns() const { return NumTxns; }

  /// The per-session assignment every commit test is evaluated under.
  const LevelAssignment &levels() const { return Levels; }

  /// True if \p A causally precedes \p B: (A, B) is in the maintained
  /// closure (so ∪ wr)+ over block indices, the relation
  /// History::causalRelation() computes from scratch.
  bool causallyPrecedes(unsigned A, unsigned B) const {
    assert(A < NumTxns && B < NumTxns && "transaction index out of range");
    return CausalPreds.get(B, A);
  }

  /// True if committed transaction \p Txn visibly writes \p Var — the
  /// maintained index behind History::committedWriters' linear scan.
  bool writesVar(unsigned Txn, VarId Var) const {
    assert(Var < NumVars && "variable out of range");
    return (WriterBits[wordIndex(Var, Txn)] >> (Txn % 64)) & 1;
  }

  /// Calls \p Fn(W) for every committed writer of \p Var in ascending
  /// block order (the initial transaction first) — the candidate
  /// enumeration of ValidWrites, without materializing a vector.
  template <typename FnT> void forEachCommittedWriter(VarId Var, FnT Fn) const {
    assert(Var < NumVars && "variable out of range");
    const uint64_t *Row = &WriterBits[static_cast<size_t>(Var) * Words];
    for (unsigned W = 0; W != Words; ++W) {
      uint64_t Word = Row[W];
      while (Word) {
        Fn(W * 64 + static_cast<unsigned>(__builtin_ctzll(Word)));
        Word &= Word - 1;
      }
    }
  }

  /// True if \p A must commit before \p B under the maintained constraint
  /// graph — (so ∪ wr ∪ forced)+ for saturating assignments, (so ∪ wr)+
  /// when every session is at "true" (no forced edges exist).
  bool constrains(unsigned A, unsigned B) const {
    assert(A < NumTxns && B < NumTxns && "transaction index out of range");
    return TrivialOnly ? CausalPreds.get(B, A) : GPreds.get(B, A);
  }

  /// The latest committed writer of \p Var in block order — the initial
  /// transaction when no other has committed a write to it.
  unsigned lastCommittedWriter(VarId Var) const {
    assert(Var < NumVars && "variable out of range");
    const uint64_t *Row = &WriterBits[static_cast<size_t>(Var) * Words];
    for (unsigned W = Words; W-- > 0;)
      if (Row[W])
        return W * 64 + 63 - static_cast<unsigned>(__builtin_clzll(Row[W]));
    return 0;
  }

  /// True if some transaction in \p Among, a bitset over block indices
  /// (bit A of word A / 64; words past its end count as empty), is a
  /// committed writer of \p Var.
  bool committedWriterIn(VarId Var, const std::vector<uint64_t> &Among) const {
    assert(Var < NumVars && "variable out of range");
    return intersects(&WriterBits[static_cast<size_t>(Var) * Words], Among);
  }

  /// True if constrains(A, \p B) holds for some A in \p Among, a bitset as
  /// for committedWriterIn — one word-parallel row intersection. The
  /// streaming GC uses this to prove a window transaction unreachable from
  /// every retained one before evicting it.
  bool constrainedByAny(unsigned B, const std::vector<uint64_t> &Among) const {
    assert(B < NumTxns && "transaction index out of range");
    return intersects(TrivialOnly ? CausalPreds.rowWords(B)
                                  : GPreds.rowWords(B),
                      Among);
  }

  /// Compacts the state to the blocks that \p Runs retain (the runs of an
  /// ascending Keep list that includes index 0, Relation::runsOf),
  /// renumbering every matrix and bitset in place — the state-side half of
  /// History::retainBlocks. This is deliberately a *submatrix
  /// restriction*, not a rebuild from the compacted history: forced edges
  /// between retained transactions that were derived from evicted
  /// readers' axiom instances are genuine constraints of the full trace
  /// and must survive the eviction (a rebuild would silently drop them).
  /// The restriction of a transitive closure to a subset stays
  /// transitively closed, so every maintained invariant carries over. The
  /// state must be consistent with no open transaction; capacity is
  /// unchanged and nothing is allocated.
  void compact(const std::vector<Relation::Run> &Runs);

  /// Raises the capacity to \p MaxTxns >= the current one, keeping the
  /// tracked blocks.
  void grow(unsigned MaxTxns);

  /// Current capacity (the MaxTxns the state was sized or grown for).
  unsigned capacity() const { return MaxN; }

  /// True while a transaction is open (pending): the target of probes and
  /// read/commit/abort appliers.
  bool hasOpenTxn() const { return HasOpen; }
  /// Block index of the open transaction.
  unsigned openTxn() const {
    assert(HasOpen && "no open transaction");
    return OpenIdx;
  }

  /// The incremental commit test (§5.1): would appending an external read
  /// of \p Var to the open transaction, with its wr dependency on the
  /// committed writer \p W, keep so ∪ wr ∪ forced acyclic? Equivalent to
  /// the scratch checker's verdict on the extended history (asserted by
  /// the engine in debug builds), at the cost of O(premise) bit-tests.
  bool readAdmits(unsigned W, VarId Var) const;

  //===--------------------------------------------------------------------===
  // Extension appliers, mirroring the engine's Next steps. Writes and
  // internal reads change nothing (a write only matters once its
  // transaction commits; an internal read has no wr edge), so they have
  // no applier.
  //===--------------------------------------------------------------------===

  /// Registers the begin of \p Uid as a new open transaction: adds its
  /// session-order edges (which end in the new sink and can never cycle).
  void applyBegin(TxnUid Uid);

  /// Registers the wr choice \p W for the just-appended external read of
  /// \p Var: adds the wr edge, the read's forced edges, and the premise
  /// growth of the open transaction. A cycle here flips the state to
  /// inconsistent and leaves it unusable for further extension: callers
  /// that continue from the state (the explorer) probe readAdmits first,
  /// while the bulk constructor and the streaming checker apply unprobed
  /// and read the verdict off consistent().
  void applyExternalRead(unsigned W, VarId Var);

  /// Registers the commit of the open transaction, making its writes
  /// visible to committedWriters / premise tests. \p Log is its log.
  void applyCommit(const TransactionLog &Log);

  /// Registers the abort of the open transaction: its writes stay
  /// invisible; its so/wr edges and forced edges remain (the axioms keep
  /// constraining aborted readers, §2.2.1).
  void applyAbort();

private:
  /// One forced (or wr) edge candidate of a probe.
  struct Edge {
    unsigned From, To;
  };
  /// One recorded external read of the open transaction.
  struct ReadRec {
    VarId Var;
    unsigned Writer;
  };

  size_t wordIndex(VarId Var, unsigned Txn) const {
    return static_cast<size_t>(Var) * Words + Txn / 64;
  }

  /// True if the capacity-wide bit row \p Row meets the bitset \p Among.
  bool intersects(const uint64_t *Row, const std::vector<uint64_t> &Among) const {
    for (size_t W = 0, E = std::min<size_t>(Words, Among.size()); W != E; ++W)
      if (Row[W] & Among[W])
        return true;
    return false;
  }

  /// Adds edge (A, B) to the closure whose transposed form is \p Preds,
  /// keeping it transitively closed. Returns false (leaving it unchanged)
  /// if B already reaches A. An edge the closure already implies costs two
  /// bit-tests; any other costs one row union per descendant of B that A
  /// did not yet reach.
  bool insertClosureEdge(Relation &Preds, unsigned A, unsigned B);

  /// Adds edge (A, open) — a so or wr edge into the open sink — to the
  /// closure whose transposed form is \p Preds: one row union, since
  /// nothing leaves the sink and only its ancestor row grows.
  void insertSinkEdge(Relation &Preds, unsigned A);

  /// Collects the new forced edges of appending a read of \p Var with
  /// writer \p W to the open transaction: the read's own axiom instances
  /// plus the retroactive premise growth of the open transaction's
  /// earlier reads (§2.2.2 — a later wr edge enlarges φ(·, t) for every
  /// read of t).
  void collectReadEdges(unsigned W, VarId Var, std::vector<Edge> &Out) const;

  /// True if G ∪ \p Edges has a cycle, given GPreds (the transposed closure of
  /// the acyclic G): searches the tiny graph whose nodes are the new edges and
  /// whose arcs are old-closure reachability between their endpoints.
  bool createsCycle(const std::vector<Edge> &Edges) const;

  /// Begins tracking block \p Idx (bulk and incremental share this).
  void beginBlock(unsigned Idx, TxnUid Uid);

  /// Shared head of the bulk and prefix constructors: sizes every matrix
  /// for max(MaxTxns, H.numTxns()) and installs the initial transaction.
  void initFromHistory(const History &H, unsigned MaxTxns);

  LevelAssignment Levels;
  unsigned MaxN = 0;    ///< Capacity (every matrix row is sized for this).
  unsigned Words = 0;   ///< Bitset words per row of capacity MaxN.
  unsigned NumTxns = 0; ///< Logical size; indices match H's block order.
  unsigned NumVars = 0;
  bool Inconsistent = false;
  /// Every session at "true": no read ever forces an edge, so probes are
  /// constant-true and the forced closure and premise tracking are
  /// skipped entirely — explore-ce(true) keeps its old free commit test.
  bool TrivialOnly = false;

  // The relations are stored transposed: row B is the set of A with
  // (A, B) in the relation. Every extension step grows the open sink's
  // predecessors, which is then one row, and the open transaction's RA
  // and CC premises are its SoWrPreds and CausalPreds rows.
  Relation SoWrPreds;   ///< so ∪ wr edges (direct).
  Relation CausalPreds; ///< (so ∪ wr)+ — the CC premise.
  Relation GPreds;      ///< (so ∪ wr ∪ forced)+ — the cycle test.
  /// Committed-writer bitset per variable (NumVars x Words), ascending
  /// transaction bits == ascending block order.
  std::vector<uint64_t> WriterBits;
  /// Session of each transaction (TxnUid::InitSession for the initial
  /// one); applyBegin derives session-order predecessors from it.
  std::vector<uint32_t> SessionOfTxn;

  // Open-transaction context.
  bool HasOpen = false;
  unsigned OpenIdx = 0;
  IsolationLevel OpenLevel = IsolationLevel::Trivial;
  /// External reads of the open transaction, in po order — the RC premise
  /// and the retroactive-growth targets.
  std::vector<ReadRec> OpenReads;

  /// Probe scratch, reused across readAdmits calls (single-owner, like
  /// the rest of the state). Copying a state deliberately does NOT copy
  /// the scratch — every read branch clones the parent state, and the
  /// clone's first probe would overwrite it anyway.
  struct ScratchBuffer {
    std::vector<Edge> Edges;
    ScratchBuffer() = default;
    ScratchBuffer(const ScratchBuffer &) {}
    ScratchBuffer &operator=(const ScratchBuffer &) { return *this; }
    ScratchBuffer(ScratchBuffer &&) = default;
    ScratchBuffer &operator=(ScratchBuffer &&) = default;
  };
  mutable ScratchBuffer Scratch;
};

/// Memoized prefix states of one history: stateFor(L) returns the
/// ConstraintState tracking exactly blocks [0, L) of H, built by copying
/// the largest cached checkpoint below L and replaying only the gap.
///
/// The swap fan-out after a commit builds one cache per expanded node: the
/// reorderings share ever-longer prefixes of H (computeReorderings emits
/// ascending ReaderTxn), and every swapped history and readLatest
/// truncation is byte-identical to H below its reader block — so each
/// swap child costs a flat state copy plus a replay of the few blocks at
/// or after the reader instead of a bulk rebuild from block zero.
/// Requested lengths need not be monotone (a dropped transaction's
/// readLatest check can need a longer prefix than the next reordering's
/// reader), hence checkpoints per exact length rather than one rolling
/// state.
///
/// Single-owner, like the states it hands out; \p H and \p Levels must
/// outlive the cache and H must not change while it is in use.
class PrefixStateCache {
public:
  PrefixStateCache(const History &H, const LevelAssignment &Levels,
                   unsigned MaxTxns)
      : H(H), Levels(Levels), MaxTxns(MaxTxns) {}

  /// The state of prefix [0, \p PrefixLen), 1 <= PrefixLen <= H.numTxns().
  /// The returned reference stays valid until the cache is destroyed;
  /// callers copy it before extending.
  const ConstraintState &stateFor(unsigned PrefixLen);

private:
  const History &H;
  const LevelAssignment &Levels;
  unsigned MaxTxns;
  std::map<unsigned, ConstraintState> ByLen;
};

} // namespace txdpor

#endif // TXDPOR_CONSISTENCY_INCREMENTALCHECKER_H
