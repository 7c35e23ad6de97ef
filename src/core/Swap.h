//===- core/Swap.h - ComputeReorderings, Swap, Optimality (§5.2, §5.3) ----===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event re-ordering machinery of the swapping-based algorithms:
///
///  * computeReorderings(h)  — pairs (r, t) of a read event r and the last
///    (just committed) transaction t that are candidates for re-ordering
///    (§5.2): t writes var(r), tr(r) precedes t in <, and tr(r) and t are
///    causally unrelated.
///  * applySwap(h, r)        — the Swap function: keep all events before
///    r, keep t and its (so ∪ wr)* predecessors whole, drop everything
///    else, re-point r's wr dependency to t, and move tr(r) (truncated at
///    r) to the end of the order.
///  * isSwappedRead(h, r)    — the swapped(h<, r) predicate of §5.3.
///  * readsLatest(h, r', t)  — the readLatest_I(h<, r', t) predicate.
///  * optimalityHolds(...)   — the full Optimality condition gating Swap.
///
/// All functions exploit the explorer invariants: each transaction's
/// events are contiguous in <, so the order is the log order of History.
///
/// Every function that needs causality reads it through one argument, a
/// CausalOrder view of (so ∪ wr)+ over \p H's block indices. The view has
/// two sources: the engine passes the closure its ConstraintState already
/// carries, and history-only callers (the oracle, Invariants, tests) pass
/// History::causalRelation(). The code path is the same for both.
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_CORE_SWAP_H
#define TXDPOR_CORE_SWAP_H

#include "consistency/IncrementalChecker.h"
#include "consistency/IsolationLevel.h"
#include "history/History.h"

#include <unordered_map>
#include <vector>

namespace txdpor {

/// Read-only view of one history's causal order (so ∪ wr)+ over its block
/// indices. It borrows its source, which must outlive the view and stay
/// unchanged while the view is used.
class CausalOrder {
public:
  /// The scratch source: \p H.causalRelation(), memoized per history.
  explicit CausalOrder(const History &H) : Scratch(&H.causalRelation()) {}
  /// The carried source: the closure of a ConstraintState that tracks
  /// exactly the blocks of the history the view is used with.
  explicit CausalOrder(const ConstraintState &S) : Carried(&S) {}

  /// True if block \p A causally precedes block \p B.
  bool precedes(unsigned A, unsigned B) const {
    return Carried ? Carried->causallyPrecedes(A, B) : Scratch->get(A, B);
  }

private:
  const Relation *Scratch = nullptr;
  const ConstraintState *Carried = nullptr;
};

/// A re-ordering candidate: the external read at position \c ReadPos of
/// transaction \c ReaderTxn, to be re-ordered with the history's last
/// transaction (which computeReorderings guarantees is complete).
struct Reordering {
  unsigned ReaderTxn;
  uint32_t ReadPos;
};

/// The default oracle order over transaction identifiers (§5.1): the
/// initial transaction first, then lexicographic (session, index). Fixed
/// and consistent with session order.
bool oracleLess(TxnUid A, TxnUid B);

/// An oracle order (§5.1): an arbitrary-but-fixed total order on the
/// program's transactions, consistent with session order. The scheduler
/// Next and the swapped() predicate must agree on it, so the explorer
/// threads one instance through both.
class OracleOrder {
public:
  /// The default lexicographic order.
  OracleOrder() = default;

  /// Builds an order from an explicit sequence covering each transaction
  /// exactly once; asserts consistency with session order (a session's
  /// transactions must appear by ascending index).
  static OracleOrder fromSequence(const std::vector<TxnUid> &Sequence);

  /// Strict comparison; the initial transaction is least.
  bool less(TxnUid A, TxnUid B) const {
    if (Rank.empty())
      return oracleLess(A, B);
    if (A == B)
      return false;
    if (A.isInit())
      return true;
    if (B.isInit())
      return false;
    return Rank.at(A.packed()) < Rank.at(B.packed());
  }

private:
  std::unordered_map<uint64_t, unsigned> Rank; ///< Empty = default order.
};

/// Candidates (r, t) of §5.2; non-empty only when the last event of \p H
/// is a commit. t is implicitly H's last transaction. \p Causal is the
/// causal order of \p H (so for every function below).
std::vector<Reordering> computeReorderings(const History &H,
                                           const CausalOrder &Causal);

/// The Swap function of §5.2. Returns the re-ordered history; the caller
/// rebuilds execution cursors by replay. \p R must come from
/// computeReorderings(H).
///
/// The result shares the storage of every kept-whole block with \p H
/// (copy-on-write); only the truncated reader log is new. When
/// \p FirstChangedBlock is non-null it receives the index (in the result)
/// of that reader — the first block whose log or read values differ from
/// \p H — which is exactly the FirstDirtyTxn argument replayCursorsFrom()
/// needs to rebuild cursors incrementally instead of replaying the whole
/// program.
History applySwap(const History &H, const CausalOrder &Causal,
                  const Reordering &R, unsigned *FirstChangedBlock = nullptr);

/// The swapped(h<, r) predicate of §5.3: r reads from an oracle-order
/// successor that < orders before it (condition 1), no transaction before
/// r in both orders is a causal successor of the writer (condition 2), and
/// r is the po-first read of its transaction reading from that writer
/// (condition 3).
bool isSwappedRead(const History &H, const CausalOrder &Causal,
                   unsigned ReaderTxn, uint32_t ReadPos,
                   const OracleOrder &Order = OracleOrder());

/// The readLatest_I(h<, r', t) predicate of §5.3: in the history truncated
/// just before r' (keeping t and its causal predecessors whole), r''s
/// current writer must be the <-latest transaction in the causal past of
/// tr(r') from which r' could consistently read under the base assignment
/// \p Base (a uniform assignment for the classic algorithm). One
/// incremental ConstraintState is built for the truncation and every
/// candidate writer is a readAdmits probe against it — the previous
/// implementation copied and scratch-checked a whole history per
/// candidate. \p TargetTxn is the index of t in \p H.
///
/// When \p Cache (a PrefixStateCache over \p H with the same \p Base) is
/// provided, the truncation's state is rebuilt in O(Δ): the truncated
/// history is byte-identical to \p H below block \p ReaderTxn, so the
/// cached prefix state is copied and only blocks from \p ReaderTxn on are
/// replayed. Debug builds cross-assert against the bulk construction.
bool readsLatest(const History &H, const CausalOrder &Causal,
                 unsigned ReaderTxn, uint32_t ReadPos, unsigned TargetTxn,
                 const LevelAssignment &Base,
                 PrefixStateCache *Cache = nullptr);

/// The §5.3 redundancy restrictions of Optimality — swapped(r'') and
/// readLatest for every read in D ∪ {r} — *without* the consistency check
/// of the swapped history itself. The engine calls this after it has
/// already built (and kept, for the swap child) the swapped history's
/// ConstraintState; optimalityHolds() below is the self-contained
/// combination.
/// \p Cache, when provided, is forwarded to every readsLatest() call so
/// the whole fan-out shares one set of O(Δ)-rebuilt prefix states.
bool optimalityRestrictionsHold(const History &H, const CausalOrder &Causal,
                                const Reordering &R,
                                const LevelAssignment &Base,
                                bool CheckSwapped = true,
                                bool CheckReadLatest = true,
                                uint64_t *NumChecks = nullptr,
                                const OracleOrder &Order = OracleOrder(),
                                PrefixStateCache *Cache = nullptr);

/// The full Optimality(h<, r, t, locals) condition of §5.3: the swapped
/// history satisfies the base assignment, and the restrictions above
/// hold. The ablation flags disable the two redundancy restrictions
/// individually (soundness and completeness do not depend on them;
/// optimality does). \p NumChecks, when provided, accumulates
/// consistency-check counts. Self-contained: reads causality from
/// \p H.causalRelation().
bool optimalityHolds(const History &H, const Reordering &R,
                     const LevelAssignment &Base, bool CheckSwapped = true,
                     bool CheckReadLatest = true,
                     uint64_t *NumChecks = nullptr,
                     const OracleOrder &Order = OracleOrder());

} // namespace txdpor

#endif // TXDPOR_CORE_SWAP_H
