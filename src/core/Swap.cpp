//===- core/Swap.cpp - ComputeReorderings, Swap, Optimality ---------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "core/Swap.h"

#include "consistency/IncrementalChecker.h"
#include "trace/Counters.h"
#include "trace/Trace.h"

using namespace txdpor;

bool txdpor::oracleLess(TxnUid A, TxnUid B) {
  if (A == B)
    return false;
  if (A.isInit())
    return true;
  if (B.isInit())
    return false;
  return A.Session < B.Session ||
         (A.Session == B.Session && A.Index < B.Index);
}

OracleOrder OracleOrder::fromSequence(const std::vector<TxnUid> &Sequence) {
  OracleOrder Order;
  std::unordered_map<uint32_t, uint32_t> NextIndex;
  for (const TxnUid &Uid : Sequence) {
    assert(!Uid.isInit() && "the initial transaction is implicitly least");
    assert(NextIndex[Uid.Session] == Uid.Index &&
           "oracle order must be consistent with session order");
    ++NextIndex[Uid.Session];
    bool Inserted =
        Order.Rank.emplace(Uid.packed(),
                           static_cast<unsigned>(Order.Rank.size()))
            .second;
    assert(Inserted && "duplicate transaction in oracle order");
    (void)Inserted;
  }
  return Order;
}

std::vector<Reordering> txdpor::computeReorderings(const History &H,
                                                   const CausalOrder &Causal) {
  std::vector<Reordering> Result;
  if (H.numTxns() == 0)
    return Result;
  unsigned TIdx = H.numTxns() - 1;
  const TransactionLog &Target = H.txn(TIdx);
  // Non-empty only when the last added event is a commit (§5.2). Events
  // are only ever appended to the last block, so this is equivalent to the
  // last block being committed.
  if (!Target.isCommitted() || Target.isInit())
    return Result;

  for (unsigned I = 0; I != TIdx; ++I) {
    // (tr(r), t) must not be related by (so ∪ wr)*.
    if (Causal.precedes(I, TIdx))
      continue;
    const TransactionLog &Reader = H.txn(I);
    for (uint32_t P : Reader.externalReads()) {
      if (!Reader.writerOf(P))
        continue;
      if (!Target.writesVar(Reader.event(P).Var))
        continue;
      Result.push_back({I, P});
    }
  }
  return Result;
}

namespace {

/// Shared deletion shape of Swap and readLatest: keep everything before
/// the reader block whole, keep the reader's log truncated to \p KeepLen
/// events, and keep later blocks only when they are (so ∪ wr)*
/// predecessors of the target (which, being the last block, is kept).
/// The truncated reader stays at its original position.
History truncateKeepingCausalPast(const History &H, const CausalOrder &Causal,
                                  unsigned ReaderTxn, uint32_t KeepLen,
                                  unsigned TargetTxn) {
  History Result;
  for (unsigned I = 0, E = H.numTxns(); I != E; ++I) {
    if (I == ReaderTxn) {
      if (KeepLen > 0)
        Result.appendLog(H.txn(I).truncated(KeepLen));
      continue;
    }
    // Kept-whole blocks share storage with H (copy-on-write): the swap
    // fan-out only ever pays for the one truncated reader log.
    if (I < ReaderTxn || I == TargetTxn || Causal.precedes(I, TargetTxn))
      Result.appendLogShared(H, I);
  }
  return Result;
}

} // namespace

History txdpor::applySwap(const History &H, const CausalOrder &Causal,
                          const Reordering &R, unsigned *FirstChangedBlock) {
  unsigned TIdx = H.numTxns() - 1;
  assert(R.ReaderTxn < TIdx && "reader must precede the target in <");
  assert(H.txn(TIdx).isCommitted() && "swap target must be committed");
  assert(H.txn(R.ReaderTxn).isExternalRead(R.ReadPos) &&
         "swap re-orders external reads only");
  assert(H.txn(TIdx).writesVar(H.txn(R.ReaderTxn).event(R.ReadPos).Var) &&
         "swap target must write the read variable");

  assert(!Causal.precedes(R.ReaderTxn, TIdx) &&
         "reader and target must be causally unrelated");

  // Build the kept prefix (reader excluded), then append the truncated
  // reader as the new last block with its wr dependency re-pointed to t.
  History Result =
      truncateKeepingCausalPast(H, Causal, R.ReaderTxn, /*KeepLen=*/0, TIdx);
  unsigned NewIdx = Result.appendLog(H.txn(R.ReaderTxn).truncated(R.ReadPos + 1));
  Result.setWriter(NewIdx, R.ReadPos, H.txn(TIdx).uid());
  Result.checkWellFormed();
  // Everything before the re-appended reader is kept byte-identical (and
  // storage-shared) from H; the truncated reader is the only block whose
  // log or read values changed — the resume point for incremental replay.
  if (FirstChangedBlock)
    *FirstChangedBlock = NewIdx;
  return Result;
}

bool txdpor::isSwappedRead(const History &H, const CausalOrder &Causal,
                           unsigned ReaderTxn, uint32_t ReadPos,
                           const OracleOrder &Order) {
  const TransactionLog &Reader = H.txn(ReaderTxn);
  std::optional<TxnUid> Writer = Reader.writerOf(ReadPos);
  assert(Writer && "swapped-ness is defined for reads with a wr writer");
  TxnUid ReaderUid = Reader.uid();

  // (1) The writer was scheduled by Next after the read: it follows the
  // reader in oracle order (it always precedes the read in history order,
  // footnote 7).
  if (!Order.less(ReaderUid, *Writer))
    return false;

  unsigned WriterIdx = *H.indexOf(*Writer);
  assert(WriterIdx < ReaderTxn && "writer must precede its reader in <");

  // (2) No transaction before r in both orders is a causal successor of
  // the writer.
  for (unsigned I = 0, E = H.numTxns(); I != E; ++I) {
    if (I >= ReaderTxn) // r < t' (or t' is the reader itself).
      continue;
    if (!Order.less(H.txn(I).uid(), ReaderUid))
      continue;
    if (Causal.precedes(WriterIdx, I))
      return false;
  }

  // (3) r is the po-first read of its transaction reading from the writer.
  for (uint32_t P = 0; P != ReadPos; ++P)
    if (std::optional<TxnUid> PW = Reader.writerOf(P))
      if (*PW == *Writer)
        return false;
  return true;
}

bool txdpor::readsLatest(const History &H, const CausalOrder &Causal,
                         unsigned ReaderTxn, uint32_t ReadPos,
                         unsigned TargetTxn,
                         const LevelAssignment &Base,
                         PrefixStateCache *Cache) {
  TXDPOR_TRACE_SPAN(Check, ReadsLatest, ReaderTxn, ReadPos);
  trace::bump(trace::Counter::ReadsLatestChecks);
  const TransactionLog &Reader = H.txn(ReaderTxn);
  VarId X = Reader.event(ReadPos).Var;
  std::optional<TxnUid> CurrentWriter = Reader.writerOf(ReadPos);
  assert(CurrentWriter && "readLatest needs an assigned wr writer");

  // h' of the definition: delete r' itself and every later event whose
  // transaction is not a causal predecessor of t.
  History Trunc =
      truncateKeepingCausalPast(H, Causal, ReaderTxn, ReadPos, TargetTxn);
  std::optional<unsigned> NewReader = Trunc.indexOf(Reader.uid());
  assert(NewReader && "reader prefix (at least begin) must remain");

  // One incremental state for the truncation (its open transaction is the
  // truncated reader, pending mid-order); every candidate is then a pure
  // probe instead of a history copy plus a scratch consistency check.
  // With a prefix cache, even that one state is O(Δ): Trunc keeps
  // [0, ReaderTxn) byte-identical to H, so we copy the cached prefix
  // state and replay only the truncated reader and the kept causal past.
  ConstraintState State =
      Cache ? [&] {
        ConstraintState S = Cache->stateFor(ReaderTxn);
        S.replayBlocks(Trunc, ReaderTxn, Trunc.numTxns());
#ifndef NDEBUG
        assert(S.equivalentTo(ConstraintState(Trunc, Base)) &&
               "incremental truncation rebuild diverged from the bulk state");
#endif
        return S;
      }()
            : ConstraintState(Trunc, Base);
  assert(State.consistent() &&
         "truncations of a consistent history stay consistent (Thm. 3.2)");
  assert(State.hasOpenTxn() && State.openTxn() == *NewReader &&
         "the truncated reader must be the unique pending transaction");

  // Scan candidates from the <-latest downwards; the first consistent
  // causal-past writer is the maximum of the candidate set.
  for (unsigned U = Trunc.numTxns(); U-- > 0;) {
    if (U == *NewReader || !Trunc.txn(U).writesVar(X))
      continue;
    if (!State.causallyPrecedes(U, *NewReader))
      continue;
    if (!State.readAdmits(U, X))
      continue;
    return Trunc.txn(U).uid() == *CurrentWriter;
  }
  // No consistent causal-past writer at all: r' cannot read latest.
  return false;
}

bool txdpor::optimalityRestrictionsHold(const History &H,
                                        const CausalOrder &Causal,
                                        const Reordering &R,
                                        const LevelAssignment &Base,
                                        bool CheckSwapped,
                                        bool CheckReadLatest,
                                        uint64_t *NumChecks,
                                        const OracleOrder &Order,
                                        PrefixStateCache *Cache) {
  unsigned TIdx = H.numTxns() - 1;
  if (!CheckSwapped && !CheckReadLatest)
    return true;

  auto readOk = [&](unsigned TxnIdx, uint32_t Pos) {
    if (CheckSwapped && isSwappedRead(H, Causal, TxnIdx, Pos, Order))
      return false;
    if (CheckReadLatest) {
      if (NumChecks)
        ++*NumChecks;
      if (!readsLatest(H, Causal, TxnIdx, Pos, TIdx, Base, Cache))
        return false;
    }
    return true;
  };

  // Every read in D ∪ {r} must be unswapped and read causally-latest:
  // r itself, the reader's later external reads, and all external reads of
  // transactions dropped by Swap.
  if (!readOk(R.ReaderTxn, R.ReadPos))
    return false;
  const TransactionLog &Reader = H.txn(R.ReaderTxn);
  for (uint32_t P = R.ReadPos + 1, E = static_cast<uint32_t>(Reader.size());
       P != E; ++P)
    if (Reader.writerOf(P) && !readOk(R.ReaderTxn, P))
      return false;

  for (unsigned I = R.ReaderTxn + 1; I != TIdx; ++I) {
    if (Causal.precedes(I, TIdx)) // Kept whole by Swap; not in D.
      continue;
    for (uint32_t P : H.txn(I).externalReads())
      if (H.txn(I).writerOf(P) && !readOk(I, P))
        return false;
  }
  return true;
}

bool txdpor::optimalityHolds(const History &H, const Reordering &R,
                             const LevelAssignment &Base, bool CheckSwapped,
                             bool CheckReadLatest, uint64_t *NumChecks,
                             const OracleOrder &Order) {
  // The re-ordered history must satisfy the base assignment.
  CausalOrder Causal(H);
  History Swapped = applySwap(H, Causal, R);
  if (NumChecks)
    ++*NumChecks;
  if (!ConstraintState(Swapped, Base).consistent())
    return false;
  return optimalityRestrictionsHold(H, Causal, R, Base, CheckSwapped,
                                    CheckReadLatest, NumChecks, Order);
}
