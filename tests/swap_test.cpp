//===- tests/swap_test.cpp - ComputeReorderings / Swap / Optimality -------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests of the §5.2/§5.3 machinery on the paper's own examples:
/// Fig. 11 (re-ordering deletes dependents; aborted readers re-execute),
/// Fig. 12 (readLatest restricts which branch may swap) and Fig. 13 (the
/// swapped predicate prevents re-swapping). The last suite checks that the
/// swap layer answers the same through both sources of its causal order.
///
//===----------------------------------------------------------------------===//

#include "core/Swap.h"

#include "apps/Applications.h"
#include "consistency/ConsistencyChecker.h"
#include "core/Engine.h"
#include "semantics/Executor.h"
#include "TestUtil.h"
#include <gtest/gtest.h>

using namespace txdpor;
using namespace txdpor::test;

namespace {
constexpr VarId X = 0;
constexpr VarId Y = 1;

LevelAssignment cc() {
  return LevelAssignment::uniform(IsolationLevel::CausalConsistency);
}
} // namespace

TEST(OracleOrderTest, InitFirstThenLexicographic) {
  EXPECT_TRUE(oracleLess(TxnUid::init(), uid(0, 0)));
  EXPECT_FALSE(oracleLess(uid(0, 0), TxnUid::init()));
  EXPECT_TRUE(oracleLess(uid(0, 1), uid(1, 0)));
  EXPECT_TRUE(oracleLess(uid(1, 0), uid(1, 1)));
  EXPECT_FALSE(oracleLess(uid(1, 0), uid(1, 0)));
}

TEST(ComputeReorderingsTest, EmptyUnlessLastIsCommit) {
  // Last block pending: no candidates.
  History Pending = LitmusBuilder(1)
                        .txn(0, 0).rInit(X).commit()
                        .txn(1, 0).w(X, 4)
                        .build();
  EXPECT_TRUE(computeReorderings(Pending, CausalOrder(Pending)).empty());

  // Last block aborted: no candidates (footnote 5).
  History Aborted = LitmusBuilder(1)
                        .txn(0, 0).rInit(X).commit()
                        .txn(1, 0).w(X, 4).abort()
                        .build();
  EXPECT_TRUE(computeReorderings(Aborted, CausalOrder(Aborted)).empty());
}

TEST(ComputeReorderingsTest, FindsCausallyUnrelatedReads) {
  // Fig. 11b shape: two readers of x, then a committed writer of x.
  History H = LitmusBuilder(2)
                  .txn(0, 0).rInit(X).abort()          // t1 (aborts on 0).
                  .txn(0, 1).rInit(X).commit()         // t2.
                  .txn(1, 0).w(Y, 3).commit()          // t3 writes y only.
                  .txn(1, 1).w(X, 4).commit()          // t4 writes x.
                  .build();
  std::vector<Reordering> Rs = computeReorderings(H, CausalOrder(H));
  ASSERT_EQ(Rs.size(), 2u);
  EXPECT_EQ(Rs[0].ReaderTxn, 1u); // t1's read.
  EXPECT_EQ(Rs[1].ReaderTxn, 2u); // t2's read.
}

TEST(ComputeReorderingsTest, SkipsCausallyRelatedReaders) {
  // The reader reads *from* the last transaction's session predecessor —
  // wait, simpler: reader reads from t itself ⇒ causally related ⇒ no
  // candidate.
  History H = LitmusBuilder(1)
                  .txn(1, 0).w(X, 4).commit()
                  .txn(0, 0).r(X, uid(1, 0)).commit()
                  .build();
  // Only candidate pair would be (read of t0.0, t0.0's own txn)? No: the
  // last block is t0.0 which writes nothing. No candidates.
  EXPECT_TRUE(computeReorderings(H, CausalOrder(H)).empty());

  // so-related: the reader is the last transaction's session predecessor.
  History H2 = LitmusBuilder(1)
                   .txn(0, 0).rInit(X).commit()
                   .txn(0, 1).w(X, 4).commit()
                   .build();
  EXPECT_TRUE(computeReorderings(H2, CausalOrder(H2)).empty());
}

TEST(ApplySwapTest, Fig11DeletesDependentsAndTruncatesReader) {
  // Fig. 11b: t1 = [read(x) <- init, abort]  (session 0, txn 0)
  //           t2 = [read(x) <- init]         (session 0, txn 1)
  //           t3 = [write(y,3)]              (session 1, txn 0)
  //           t4 = [write(x,4)]              (session 1, txn 1)
  History H = LitmusBuilder(2)
                  .txn(0, 0).rInit(X).abort()
                  .txn(0, 1).rInit(X).commit()
                  .txn(1, 0).w(Y, 3).commit()
                  .txn(1, 1).w(X, 4).commit()
                  .build();

  // Swap t4 with t1's read (Fig. 11d): everything po/so-after the read in
  // session 0 is deleted (t1's abort, all of t2); t3 stays (so-pred of
  // t4); the reader ends last, pending, reading from t4.
  History Swapped = applySwap(H, CausalOrder(H), {1, 1});
  EXPECT_FALSE(Swapped.contains(uid(0, 1))) << "t2 must be deleted";
  ASSERT_TRUE(Swapped.contains(uid(0, 0)));
  ASSERT_TRUE(Swapped.contains(uid(1, 0))) << "t3 is kept (so-pred of t4)";
  ASSERT_TRUE(Swapped.contains(uid(1, 1)));
  unsigned Reader = *Swapped.indexOf(uid(0, 0));
  EXPECT_EQ(Reader, Swapped.numTxns() - 1) << "reader moves to the end";
  EXPECT_TRUE(Swapped.txn(Reader).isPending()) << "abort was truncated away";
  EXPECT_EQ(Swapped.txn(Reader).writerOf(1), std::optional<TxnUid>(uid(1, 1)));
  EXPECT_EQ(Swapped.readValue(Reader, 1), 4);
  Swapped.checkOrderConsistent();

  // Swap t4 with t2's read (Fig. 11c): only t2's commit is deleted; t1
  // stays whole (it precedes the read in <).
  History Swapped2 = applySwap(H, CausalOrder(H), {2, 1});
  EXPECT_TRUE(Swapped2.contains(uid(0, 0)));
  unsigned Reader2 = *Swapped2.indexOf(uid(0, 1));
  EXPECT_EQ(Reader2, Swapped2.numTxns() - 1);
  EXPECT_TRUE(Swapped2.txn(Reader2).isPending());
  EXPECT_EQ(Swapped2.txn(Reader2).size(), 2u) << "begin + read remain";
}

TEST(ApplySwapTest, ResultMinusReadIsPrefix) {
  History H = LitmusBuilder(2)
                  .txn(0, 0).rInit(X).rInit(Y).commit()
                  .txn(1, 0).w(X, 4).w(Y, 5).commit()
                  .build();
  History Swapped = applySwap(H, CausalOrder(H), {1, 1});
  // Swap spec condition (2): dropping the re-pointed read (and the events
  // after it) from the result yields a prefix of the input.
  unsigned Reader = *Swapped.indexOf(uid(0, 0));
  EXPECT_EQ(Reader, Swapped.numTxns() - 1);
  EXPECT_EQ(Swapped.txn(Reader).size(), 2u);
  EXPECT_EQ(Swapped.readValue(Reader, 1), 4);
}

TEST(SwappedReadTest, ReadFromOracleSuccessorCountsAsSwapped) {
  // The state right after a swap: reader (t0.0) last, reading from the
  // oracle-later t1.0 which < places before it.
  History H = LitmusBuilder(1)
                  .txn(1, 0).w(X, 4).commit()
                  .txn(0, 0).r(X, uid(1, 0)).commit()
                  .build();
  EXPECT_TRUE(isSwappedRead(H, CausalOrder(H), 2, 1));
}

TEST(SwappedReadTest, ReadFromOraclePredecessorIsNotSwapped) {
  History H = LitmusBuilder(1)
                  .txn(0, 0).w(X, 4).commit()
                  .txn(1, 0).r(X, uid(0, 0)).commit()
                  .build();
  EXPECT_FALSE(isSwappedRead(H, CausalOrder(H), 2, 1));
}

TEST(SwappedReadTest, Condition2ExcludesCausallyCoveredReads) {
  // t2.0 reads from t1.0 (oracle-later than... no: t1.0 <or t2.0). Make a
  // read from an oracle-successor whose causal successor precedes the
  // reader in both orders: condition (2) then rejects.
  //   t1.0 writes x (oracle-after t0.x, placed first in <),
  //   t0.0 reads x from t1.0 (genuinely swapped at some point),
  //   t0.1 reads x from t1.0 again.
  History H = LitmusBuilder(1)
                  .txn(1, 0).w(X, 4).commit()
                  .txn(0, 0).r(X, uid(1, 0)).commit()
                  .txn(0, 1).r(X, uid(1, 0)).commit()
                  .build();
  EXPECT_TRUE(isSwappedRead(H, CausalOrder(H), 2, 1))
      << "the original swapped read";
  // For t0.1's read: t' = t0.0 is <or-before t0.1, <-before it, and is a
  // causal successor of the writer t1.0 ⇒ not swapped.
  EXPECT_FALSE(isSwappedRead(H, CausalOrder(H), 3, 1));
}

TEST(SwappedReadTest, Condition3FirstReaderOnly) {
  // Two reads of different variables from the same writer inside one
  // transaction: only the po-first counts as swapped.
  History H = LitmusBuilder(2)
                  .txn(1, 0).w(X, 4).w(Y, 5).commit()
                  .txn(0, 0).r(X, uid(1, 0)).r(Y, uid(1, 0)).commit()
                  .build();
  EXPECT_TRUE(isSwappedRead(H, CausalOrder(H), 2, 1));
  EXPECT_FALSE(isSwappedRead(H, CausalOrder(H), 2, 2));
}

TEST(ReadsLatestTest, Fig12OnlyInitBranchMaySwap) {
  // Fig. 12: t1 = w(x,2) [s0], t2 = r(x) [s1], t3 = r(x) [s2],
  // t4 = w(x,4) [s3]. Swap target: t4 (last). The deleted read of t3 (and
  // the swapped read of t2) must read from the causally-latest consistent
  // writer — init, since t1 is not in their causal past.
  auto MakeHistory = [](bool R2FromInit, bool R3FromInit) {
    LitmusBuilder B(1);
    B.txn(0, 0).w(X, 2).commit();
    B.txn(1, 0);
    R2FromInit ? B.rInit(X) : B.r(X, uid(0, 0));
    B.commit();
    B.txn(2, 0);
    R3FromInit ? B.rInit(X) : B.r(X, uid(0, 0));
    B.commit();
    B.txn(3, 0).w(X, 4).commit();
    return B.build();
  };

  // t2's read is txn index 2 pos 1; t3's read is txn index 3 pos 1;
  // target t4 is txn index 4.
  History II = MakeHistory(true, true);
  EXPECT_TRUE(readsLatest(II, CausalOrder(II), 2, 1, 4, cc()));
  EXPECT_TRUE(readsLatest(II, CausalOrder(II), 3, 1, 4, cc()));

  History TI = MakeHistory(false, true);
  EXPECT_FALSE(readsLatest(TI, CausalOrder(TI), 2, 1, 4, cc()))
      << "t2 reads t1 which is outside its causal past";
  EXPECT_TRUE(readsLatest(TI, CausalOrder(TI), 3, 1, 4, cc()));

  History IT = MakeHistory(true, false);
  EXPECT_FALSE(readsLatest(IT, CausalOrder(IT), 3, 1, 4, cc()));

  // Optimality for the (r2, t4) swap holds only in the init/init branch.
  EXPECT_TRUE(optimalityHolds(II, {2, 1}, cc()));
  EXPECT_FALSE(optimalityHolds(TI, {2, 1}, cc()));
  EXPECT_FALSE(optimalityHolds(IT, {2, 1}, cc()))
      << "t3's deleted read does not read causally-latest";
}

TEST(ReadsLatestTest, CausalPastWritersQualify) {
  // Reader's session previously wrote x: that session predecessor is in
  // the causal past and is <-later than init, so reading from it is
  // "latest".
  History H = LitmusBuilder(1)
                  .txn(0, 0).w(X, 1).commit()
                  .txn(0, 1).r(X, uid(0, 0)).commit()
                  .txn(1, 0).w(X, 4).commit()
                  .build();
  EXPECT_TRUE(readsLatest(H, CausalOrder(H), 2, 1, 3, cc()));

  // Reading init instead of the causally-newer session write: under CC
  // this is inconsistent anyway, but readLatest specifically rejects
  // because init is not the <-latest consistent causal writer.
  History H2 = LitmusBuilder(1)
                   .txn(0, 0).w(X, 1).commit()
                   .txn(0, 1).rInit(X).commit()
                   .txn(1, 0).w(X, 4).commit()
                   .build();
  EXPECT_FALSE(readsLatest(H2, CausalOrder(H2), 2, 1, 3, cc()));
}

TEST(OptimalityTest, Fig13NoReswapAfterSwap) {
  // Fig. 13: t1 = r(x) [s0], t2 = r(y) [s1], t3 = w(y,3) [s2],
  // t4 = w(x,4) [s3].
  //
  // h1 (Fig. 13c): t2's read was already swapped to read from t3. When t4
  // commits, swapping (t1's read, t4) would delete t2's swapped read —
  // Optimality must reject it.
  History H1 = LitmusBuilder(2)
                   .txn(0, 0).rInit(X).commit()  // t1.
                   .txn(2, 0).w(Y, 3).commit()   // t3 (placed before t2).
                   .txn(1, 0).r(Y, uid(2, 0)).commit() // t2: swapped read.
                   .txn(3, 0).w(X, 4).commit()   // t4.
                   .build();
  ASSERT_TRUE(isSwappedRead(H1, CausalOrder(H1), 3, 1));
  EXPECT_FALSE(optimalityHolds(H1, {1, 1}, cc()))
      << "re-swapping would delete the swapped read of t2 (Fig. 13)";

  // h (Fig. 13b): nothing swapped yet; the same re-ordering is allowed.
  History H0 = LitmusBuilder(2)
                   .txn(0, 0).rInit(X).commit()
                   .txn(1, 0).rInit(Y).commit()
                   .txn(2, 0).w(Y, 3).commit()
                   .txn(3, 0).w(X, 4).commit()
                   .build();
  EXPECT_TRUE(optimalityHolds(H0, {1, 1}, cc()));
}

TEST(OptimalityTest, RejectsInconsistentSwapResult) {
  // Swapping so the reader would read stale data its causal past forbids:
  // under CC, t0.1 reading x from init after t0.0 wrote x is inconsistent;
  // but here we check the swap-result consistency gate with a simpler
  // case: the result is checked against the base level.
  History H = LitmusBuilder(2)
                  .txn(0, 0).w(X, 1).commit()
                  .txn(0, 1).r(X, uid(0, 0)).commit()
                  .txn(1, 0).w(X, 4).commit()
                  .build();
  // Swap (read of t0.1, t1.0): result keeps t0.0 whole (before the read),
  // reader reads x from t1.0 — consistent under CC; optimality holds.
  EXPECT_TRUE(optimalityHolds(H, {2, 1}, cc()));
  History Swapped = applySwap(H, CausalOrder(H), {2, 1});
  EXPECT_TRUE(isConsistent(Swapped, IsolationLevel::CausalConsistency));
}

TEST(OptimalityTest, AblationFlagsDisableChecks) {
  History H1 = LitmusBuilder(2)
                   .txn(0, 0).rInit(X).commit()
                   .txn(2, 0).w(Y, 3).commit()
                   .txn(1, 0).r(Y, uid(2, 0)).commit()
                   .txn(3, 0).w(X, 4).commit()
                   .build();
  EXPECT_FALSE(optimalityHolds(H1, {1, 1}, cc(), true, true));
  // With the swapped-check disabled, only readLatest can reject; t2's read
  // from t3 *is* causally latest... it reads from t3 which is not in its
  // causal past — readLatest rejects too.
  EXPECT_FALSE(optimalityHolds(H1, {1, 1}, cc(), false, true));
  // Both checks off: only the consistency of the swap result gates.
  EXPECT_TRUE(optimalityHolds(H1, {1, 1}, cc(), false, false));
}

TEST(ApplySwapTest, ReportsFirstChangedBlock) {
  History H = LitmusBuilder(2)
                  .txn(0, 0).rInit(X).rInit(Y).commit()
                  .txn(1, 0).w(X, 4).w(Y, 5).commit()
                  .build();
  unsigned FirstChanged = 99;
  History Swapped = applySwap(H, CausalOrder(H), {1, 1}, &FirstChanged);
  // The truncated reader is re-appended last; everything before it is the
  // unchanged (storage-shared) causal past of the target.
  EXPECT_EQ(FirstChanged, Swapped.numTxns() - 1);
  for (unsigned I = 0; I != FirstChanged; ++I) {
    std::optional<unsigned> Orig = H.indexOf(Swapped.txn(I).uid());
    ASSERT_TRUE(Orig.has_value());
    EXPECT_EQ(Swapped.logIdentity(I), H.logIdentity(*Orig))
        << "kept block " << I << " must share storage with the input";
  }
}

TEST(ApplySwapTest, IncrementalReplayAfterSwapMatchesFull) {
  // Program shaped like the Fig. 11 litmus: two reader sessions and a
  // writer session; swap re-executes only the truncated reader.
  ProgramBuilder B;
  VarId PX = B.var("x");
  VarId PY = B.var("y");
  B.beginTxn(0).read("a", PX);
  B.beginTxn(0).read("b", PX);
  auto W1 = B.beginTxn(1);
  W1.write(PY, 3);
  auto W2 = B.beginTxn(1);
  W2.write(PX, 4);
  Program P = B.build();

  History H = LitmusBuilder(2)
                  .txn(0, 0).rInit(X).commit()
                  .txn(0, 1).rInit(X).commit()
                  .txn(1, 0).w(Y, 3).commit()
                  .txn(1, 1).w(X, 4).commit()
                  .build();
  CursorMap Snapshot = replayAllCursors(P, H);

  unsigned FirstChanged = 0;
  History Swapped = applySwap(H, CausalOrder(H), {1, 1}, &FirstChanged);
  CursorMap Incremental =
      replayCursorsFrom(P, Swapped, Snapshot, FirstChanged);
  CursorMap Full = replayAllCursors(P, Swapped);
  ASSERT_EQ(Incremental.size(), Full.size());
  for (const auto &KV : Full) {
    auto It = Incremental.find(KV.first);
    ASSERT_NE(It, Incremental.end());
    EXPECT_TRUE(It->second == KV.second);
  }
}

namespace {

/// Compares the swap layer's answers on \p H through the closure carried
/// by \p State against the ones through H.causalRelation().
void expectSameThroughBothSources(const History &H,
                                  const ConstraintState &State,
                                  const LevelAssignment &Base) {
  CausalOrder Carried(State), Scratch(H);
  for (unsigned A = 0; A != H.numTxns(); ++A)
    for (unsigned B = 0; B != H.numTxns(); ++B)
      ASSERT_EQ(Carried.precedes(A, B), Scratch.precedes(A, B))
          << A << " -> " << B << " in\n"
          << H.str();

  std::vector<Reordering> ViaCarried = computeReorderings(H, Carried);
  std::vector<Reordering> ViaScratch = computeReorderings(H, Scratch);
  ASSERT_EQ(ViaCarried.size(), ViaScratch.size()) << H.str();
  for (size_t I = 0; I != ViaCarried.size(); ++I) {
    const Reordering &R = ViaCarried[I];
    EXPECT_EQ(R.ReaderTxn, ViaScratch[I].ReaderTxn);
    EXPECT_EQ(R.ReadPos, ViaScratch[I].ReadPos);
    unsigned FirstCarried = 0, FirstScratch = 0;
    EXPECT_EQ(applySwap(H, Carried, R, &FirstCarried).str(),
              applySwap(H, Scratch, R, &FirstScratch).str());
    EXPECT_EQ(FirstCarried, FirstScratch);
    EXPECT_EQ(optimalityRestrictionsHold(H, Carried, R, Base),
              optimalityRestrictionsHold(H, Scratch, R, Base))
        << "reader " << R.ReaderTxn << " pos " << R.ReadPos << " in\n"
        << H.str();
  }
  for (unsigned T = 1; T != H.numTxns(); ++T)
    for (uint32_t P : H.txn(T).externalReads())
      if (H.txn(T).writerOf(P)) {
        EXPECT_EQ(isSwappedRead(H, Carried, T, P),
                  isSwappedRead(H, Scratch, T, P));
      }
}

/// Walks \p Prog's explore-ce(\p Base) tree depth-first, up to \p MaxItems
/// expansions, and checks both causal sources at every item whose last
/// block has just committed — the history and state of one commit
/// fan-out. Returns the number of fan-outs checked.
unsigned checkEveryFanout(const Program &Prog, IsolationLevel Base,
                          uint64_t MaxItems) {
  ExplorationEngine Engine(Prog, ExplorerConfig::exploreCE(Base));
  LevelAssignment Levels = LevelAssignment::uniform(Base);
  ExplorationSink S;
  std::vector<WorkItem> Stack, Children;
  Stack.push_back(Engine.initialItem());
  unsigned Fanouts = 0;
  for (uint64_t Items = 0; !Stack.empty() && Items != MaxItems; ++Items) {
    WorkItem Item = std::move(Stack.back());
    Stack.pop_back();
    const History &H = Item.H;
    const TransactionLog &Last = H.txn(H.numTxns() - 1);
    if (!Last.isInit() && Last.isCommitted()) {
      ++Fanouts;
      expectSameThroughBothSources(H, Item.CState, Levels);
      if (::testing::Test::HasFailure())
        return Fanouts;
    }
    Children.clear();
    Engine.expandItem(std::move(Item), Children, S);
    for (size_t I = Children.size(); I-- > 0;)
      Stack.push_back(std::move(Children[I]));
  }
  return Fanouts;
}

} // namespace

TEST(SwapCausalSourceTest, CarriedMatchesScratchOnRandomPrograms) {
  Rng R(20261019);
  RandomProgramSpec Spec;
  Spec.NumSessions = 3;
  Spec.TxnsPerSession = 2;
  unsigned Fanouts = 0;
  for (unsigned Iter = 0; Iter != 12; ++Iter) {
    Program P = makeRandomProgram(R, Spec);
    for (IsolationLevel Base :
         {IsolationLevel::ReadCommitted, IsolationLevel::CausalConsistency})
      Fanouts += checkEveryFanout(P, Base, /*MaxItems=*/4000);
  }
  EXPECT_GT(Fanouts, 100u);
}

TEST(SwapCausalSourceTest, CarriedMatchesScratchOnApps) {
  for (AppKind App : {AppKind::Tpcc, AppKind::Courseware}) {
    ClientSpec Spec;
    Spec.Sessions = 4;
    Spec.TxnsPerSession = 3;
    EXPECT_GT(checkEveryFanout(makeClientProgram(App, Spec),
                               IsolationLevel::CausalConsistency,
                               /*MaxItems=*/10000),
              200u)
        << appName(App);
  }
}
