//===- core/Invariants.cpp - Explorer invariants (Appendix E) -------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "core/Invariants.h"

#include "core/Swap.h"

using namespace txdpor;

bool txdpor::readsFollowWriters(const History &H) {
  for (unsigned B = 0, E = H.numTxns(); B != E; ++B) {
    const TransactionLog &Log = H.txn(B);
    for (uint32_t P = 0, PE = static_cast<uint32_t>(Log.size()); P != PE;
         ++P) {
      std::optional<TxnUid> W = Log.writerOf(P);
      if (!W)
        continue;
      std::optional<unsigned> WIdx = H.indexOf(*W);
      if (!WIdx || *WIdx >= B)
        return false;
    }
  }
  return true;
}

namespace {

/// Whether transaction index \p C of \p H contains a swapped read.
bool hasSwappedRead(const History &H, unsigned C) {
  CausalOrder Causal(H);
  for (uint32_t P : H.txn(C).externalReads())
    if (H.txn(C).writerOf(P) && isSwappedRead(H, Causal, C, P))
      return true;
  return false;
}

} // namespace

bool txdpor::isOrRespectful(const Program &Prog, const History &H) {
  // At most one pending transaction.
  unsigned Pending = 0;
  for (unsigned I = 0, E = H.numTxns(); I != E; ++I)
    if (H.txn(I).isPending())
      ++Pending;
  if (Pending > 1)
    return false;

  Relation Causal = H.causalRelation();

  // Witness search (Def. E.5): a transaction C with a swapped read such
  // that C is oracle-at-most A, tr(e') = B is a causal predecessor of C
  // (reflexively), and — when \p MaxBlock is set (the e'' ≤ e constraint)
  // — C sits no later than that block. The position constraint is block-
  // granular: a transaction moved by Swap carries its own swapped read as
  // the witness (cf. the Swap case of Lemma E.6's proof).
  auto WitnessExists = [&](TxnUid A, unsigned B,
                           std::optional<unsigned> MaxBlock) {
    for (unsigned C = 0, E = H.numTxns(); C != E; ++C) {
      TxnUid CUid = H.txn(C).uid();
      if (!(CUid == A) && !oracleLess(CUid, A))
        continue;
      if (MaxBlock && C > *MaxBlock)
        continue;
      if (C != B && !Causal.get(B, C))
        continue;
      if (hasSwappedRead(H, C))
        return true;
    }
    return false;
  };

  // Universe of transactions: the program's plus init (init is always
  // first and complete, so only program transactions can be offenders).
  for (TxnUid A : Prog.oracleOrder()) {
    std::optional<unsigned> AIdx = H.indexOf(A);
    bool AIncomplete = !AIdx || H.txn(*AIdx).isPending();
    for (unsigned B = 0, E = H.numTxns(); B != E; ++B) {
      TxnUid BUid = H.txn(B).uid();
      if (BUid == A || !oracleLess(A, BUid))
        continue;
      // Events of A present in h but ordered after B's block.
      if (AIdx && *AIdx > B && !WitnessExists(A, B, *AIdx))
        return false;
      // Events of A missing from h entirely (unstarted / truncated):
      // the e'' ≤ e constraint is vacuous.
      if (AIncomplete && !WitnessExists(A, B, std::nullopt))
        return false;
    }
  }
  return true;
}
