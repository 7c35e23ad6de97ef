//===- tests/cow_history_test.cpp - Copy-on-write history tests -----------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Aliasing edge cases of the copy-on-write History representation:
/// copies share log storage, mutation-after-share clones exactly the
/// touched log, Swap shares the kept causal past, and incremental cursor
/// replay (replayCursorsFrom) is observationally equivalent to a full
/// replay of the swapped history.
///
//===----------------------------------------------------------------------===//

#include "core/Swap.h"
#include "semantics/Executor.h"

#include "TestUtil.h"
#include <algorithm>
#include <gtest/gtest.h>

using namespace txdpor;
using namespace txdpor::test;

namespace {
constexpr VarId X = 0;
constexpr VarId Y = 1;

/// Two-transaction program matching the litmus histories below:
///   t0.0: a := read(x); commit      t1.0: write(x, 7); commit
Program makeReadWriteProgram() {
  ProgramBuilder B;
  VarId PX = B.var("x");
  B.beginTxn(0).read("a", PX);
  B.beginTxn(1).write(PX, 7);
  return B.build();
}

History makeReadWriteHistory() {
  return LitmusBuilder(1)
      .txn(0, 0).rInit(X).commit()
      .txn(1, 0).w(X, 7).commit()
      .build();
}

/// All logs of \p A and \p B with matching indices share storage.
unsigned countSharedLogs(const History &A, const History &B) {
  unsigned Shared = 0;
  for (unsigned I = 0, E = std::min(A.numTxns(), B.numTxns()); I != E; ++I)
    if (A.logIdentity(I) == B.logIdentity(I))
      ++Shared;
  return Shared;
}

} // namespace

//===----------------------------------------------------------------------===//
// Sharing and mutation-after-share
//===----------------------------------------------------------------------===//

TEST(CowHistoryTest, CopySharesEveryLog) {
  History H = makeReadWriteHistory();
  History Copy = H;
  ASSERT_EQ(Copy.numTxns(), H.numTxns());
  EXPECT_EQ(countSharedLogs(H, Copy), H.numTxns())
      << "a history copy must not duplicate any event storage";
  EXPECT_TRUE(H.sameHistory(Copy));
}

TEST(CowHistoryTest, MutationAfterShareClonesOnlyTouchedLog) {
  History H = History::makeInitial(2);
  unsigned Idx = H.beginTxn(uid(0, 0));
  H.appendEvent(Idx, Event::makeWrite(X, 1));

  History Copy = H;
  Copy.appendEvent(Idx, Event::makeWrite(Y, 2)); // Mutation after share.

  // The copy cloned the pending log; the init log stays shared.
  EXPECT_NE(Copy.logIdentity(Idx), H.logIdentity(Idx));
  EXPECT_EQ(Copy.logIdentity(0), H.logIdentity(0));

  // The original is unperturbed.
  EXPECT_EQ(H.txn(Idx).size(), 2u);
  EXPECT_EQ(Copy.txn(Idx).size(), 3u);
  EXPECT_FALSE(H.sameHistory(Copy));
  H.checkWellFormed();
  Copy.checkWellFormed();
}

TEST(CowHistoryTest, SetWriterAfterShareLeavesOriginal) {
  History H = History::makeInitial(1);
  unsigned W = H.beginTxn(uid(1, 0));
  H.appendEvent(W, Event::makeWrite(X, 5));
  H.appendEvent(W, Event::makeCommit());
  unsigned R = H.beginTxn(uid(0, 0));
  H.appendEvent(R, Event::makeRead(X));
  H.setWriter(R, 1, TxnUid::init());

  History Copy = H;
  Copy.setWriter(R, 1, uid(1, 0)); // Re-point the read in the copy only.

  EXPECT_EQ(*H.txn(R).writerOf(1), TxnUid::init());
  EXPECT_EQ(*Copy.txn(R).writerOf(1), uid(1, 0));
  EXPECT_EQ(H.readValue(R, 1), 0);
  EXPECT_EQ(Copy.readValue(R, 1), 5);
  EXPECT_NE(Copy.logIdentity(R), H.logIdentity(R));
  EXPECT_EQ(countSharedLogs(H, Copy), H.numTxns() - 1)
      << "only the re-pointed reader log may be cloned";
}

TEST(CowHistoryTest, UniquelyOwnedLogMutatesInPlace) {
  History H = History::makeInitial(1);
  unsigned Idx = H.beginTxn(uid(0, 0));
  {
    History Copy = H;
    (void)Copy;
  } // Copy destroyed: H is sole owner again.
  const TransactionLog *Before = H.logIdentity(Idx);
  H.appendEvent(Idx, Event::makeWrite(X, 1));
  EXPECT_EQ(H.logIdentity(Idx), Before)
      << "a uniquely owned log must not be re-cloned on mutation";
}

TEST(CowHistoryTest, AppendLogSharedAliasesUntilMutation) {
  History H = makeReadWriteHistory();
  History Sub;
  Sub.appendLogShared(H, 0); // init
  unsigned SubR = Sub.appendLogShared(H, 1); // the reader, committed
  EXPECT_EQ(Sub.logIdentity(0), H.logIdentity(0));
  EXPECT_EQ(Sub.logIdentity(SubR), H.logIdentity(1));

  // Mutating through H's third log never touches Sub; mutating a shared
  // log through either history clones it for the mutator only.
  History Copy = Sub;
  EXPECT_EQ(Copy.logIdentity(SubR), Sub.logIdentity(SubR));
  Copy.setWriter(SubR, 1, TxnUid::init()); // Same value; still a mutation.
  EXPECT_NE(Copy.logIdentity(SubR), Sub.logIdentity(SubR));
  EXPECT_EQ(Sub.logIdentity(SubR), H.logIdentity(1))
      << "the non-mutating sharers keep the original storage";
}

//===----------------------------------------------------------------------===//
// Swap on shared structure
//===----------------------------------------------------------------------===//

TEST(CowHistoryTest, SwapSharesKeptCausalPast) {
  // Fig. 11b shape: an aborted reader, a second reader (deleted by the
  // swap), an so-predecessor of the target (kept whole), and the target.
  History H = LitmusBuilder(2)
                  .txn(0, 0).rInit(X).abort()
                  .txn(0, 1).rInit(X).commit()
                  .txn(1, 0).w(Y, 3).commit()
                  .txn(1, 1).w(X, 4).commit()
                  .build();
  unsigned FirstChanged = 0;
  History Swapped = applySwap(H, CausalOrder(H), {1, 1}, &FirstChanged);

  EXPECT_EQ(FirstChanged, Swapped.numTxns() - 1)
      << "only the truncated reader block changes";
  // Kept-whole blocks share storage with H: init, t3, t4.
  EXPECT_EQ(Swapped.logIdentity(0), H.logIdentity(0));
  EXPECT_EQ(Swapped.logIdentity(*Swapped.indexOf(uid(1, 0))),
            H.logIdentity(*H.indexOf(uid(1, 0))));
  EXPECT_EQ(Swapped.logIdentity(*Swapped.indexOf(uid(1, 1))),
            H.logIdentity(*H.indexOf(uid(1, 1))));
  // The truncated reader is fresh storage.
  EXPECT_NE(Swapped.logIdentity(FirstChanged), H.logIdentity(1));
}

TEST(CowHistoryTest, SwapOnSharedPrefixLeavesAllSharersIntact) {
  History H = makeReadWriteHistory();
  History Alias = H; // Every log shared three ways after the swap.
  unsigned FirstChanged = 0;
  History Swapped = applySwap(H, CausalOrder(H), {1, 1}, &FirstChanged);

  // Extending the swapped reader (as the explorer does next) must not
  // perturb H or its alias, even though they share the kept prefix.
  unsigned Reader = Swapped.numTxns() - 1;
  ASSERT_TRUE(Swapped.txn(Reader).isPending());
  Swapped.appendEvent(Reader, Event::makeCommit());
  Swapped.checkOrderConsistent();

  EXPECT_TRUE(H.sameHistory(Alias));
  EXPECT_EQ(H.txn(1).size(), 3u) << "original reader keeps its commit";
  EXPECT_EQ(*H.txn(1).writerOf(1), TxnUid::init())
      << "original read still reads from init";
  H.checkOrderConsistent();
  Alias.checkOrderConsistent();
}

//===----------------------------------------------------------------------===//
// Cursor snapshot vs. full replay
//===----------------------------------------------------------------------===//

TEST(CowHistoryTest, IncrementalSwapReplayMatchesFullReplay) {
  Program P = makeReadWriteProgram();
  History H = makeReadWriteHistory();
  CursorMap Snapshot = replayAllCursors(P, H);

  unsigned FirstChanged = 0;
  History Swapped = applySwap(H, CausalOrder(H), {1, 1}, &FirstChanged);
  CursorMap Incremental = replayCursorsFrom(P, Swapped, Snapshot, FirstChanged);
  CursorMap Full = replayAllCursors(P, Swapped);

  ASSERT_EQ(Incremental.size(), Full.size());
  for (const auto &[Key, Cur] : Full) {
    auto It = Incremental.find(Key);
    ASSERT_NE(It, Incremental.end());
    EXPECT_TRUE(It->second == Cur)
        << "incremental cursor diverges from full replay";
  }
  // The swapped reader really re-executed: it now reads 7 and is pending.
  unsigned Reader = Swapped.numTxns() - 1;
  EXPECT_EQ(Swapped.readValue(Reader, 1), 7);
  EXPECT_FALSE(Incremental.at(uid(0, 0).packed()).Finished);
}

TEST(CowHistoryTest, ZeroDirtyIndexDegeneratesToFullReplay) {
  Program P = makeReadWriteProgram();
  History H = makeReadWriteHistory();
  CursorMap Fresh = replayCursorsFrom(P, H, CursorMap(), 0);
  CursorMap Full = replayAllCursors(P, H);
  ASSERT_EQ(Fresh.size(), Full.size());
  for (const auto &[Key, Cur] : Full)
    EXPECT_TRUE(Fresh.at(Key) == Cur);
}
