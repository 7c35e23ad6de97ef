//===- tests/serializability_checker_test.cpp - SER: saturate, then search ===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of SerializabilityChecker's two steps: saturation rejects the
/// classic anomalies before any search, verdicts equal the brute-force
/// Def. 2.2 oracle on random histories, and findCommitOrder returns the
/// lexicographically least serialization — saturation must not change it.
/// A test-local enumerator over all permutations is the reference.
///
//===----------------------------------------------------------------------===//

#include "consistency/BruteForceChecker.h"
#include "consistency/SerializabilityChecker.h"

#include "TestUtil.h"
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

using namespace txdpor;
using namespace txdpor::test;

namespace {

constexpr VarId X = 0;
constexpr VarId Y = 1;

/// True if \p Seq is a serialization of \p H: it extends so ∪ wr and every
/// read of x by t3 from t1 has no other visible writer of x between t1 and
/// t3.
bool isSerialization(const History &H, const std::vector<unsigned> &Seq) {
  unsigned N = H.numTxns();
  std::vector<unsigned> Pos(N);
  for (unsigned I = 0; I != N; ++I)
    Pos[Seq[I]] = I;
  const Relation &SoWr = H.soWrRelation();
  for (unsigned A = 0; A != N; ++A)
    for (unsigned B = 0; B != N; ++B)
      if (SoWr.get(A, B) && Pos[A] > Pos[B])
        return false;
  for (unsigned T3 = 0; T3 != N; ++T3) {
    const TransactionLog &Log = H.txn(T3);
    for (uint32_t P = 0; P != Log.size(); ++P) {
      std::optional<TxnUid> W = Log.writerOf(P);
      if (!W)
        continue;
      unsigned T1 = *H.indexOf(*W);
      VarId Var = Log.event(P).Var;
      if (!H.txn(T1).writesVar(Var))
        return false;
      for (unsigned T2 = 0; T2 != N; ++T2)
        if (T2 != T1 && T2 != T3 && H.txn(T2).writesVar(Var) &&
            Pos[T1] < Pos[T2] && Pos[T2] < Pos[T3])
          return false;
    }
  }
  return true;
}

/// The lexicographically least serialization of \p H, by enumerating every
/// permutation in lexicographic order.
std::optional<std::vector<unsigned>> firstSerialization(const History &H) {
  std::vector<unsigned> Seq(H.numTxns());
  std::iota(Seq.begin(), Seq.end(), 0u);
  do {
    if (isSerialization(H, Seq))
      return Seq;
  } while (std::next_permutation(Seq.begin(), Seq.end()));
  return std::nullopt;
}

/// Runs findCommitOrder with a report and checks it against the
/// enumerator.
void expectMatchesEnumerator(const History &H) {
  SerializabilityChecker Ser;
  SerializabilityChecker::SearchReport Report;
  std::optional<std::vector<unsigned>> Got = Ser.findCommitOrder(H, &Report);
  std::optional<std::vector<unsigned>> Want = firstSerialization(H);
  EXPECT_EQ(Got, Want) << H.str();
  EXPECT_EQ(Ser.isConsistent(H), Want.has_value()) << H.str();
  if (Report.RejectedBySaturation) {
    EXPECT_FALSE(Want.has_value()) << "saturation rejected a serializable "
                                   << "history:\n"
                                   << H.str();
  }
}

void expectRejectedBySaturation(const History &H) {
  SerializabilityChecker Ser;
  SerializabilityChecker::SearchReport Report;
  EXPECT_FALSE(Ser.findCommitOrder(H, &Report).has_value()) << H.str();
  EXPECT_TRUE(Report.RejectedBySaturation) << H.str();
  EXPECT_EQ(Report.StatesVisited, 0u) << "no search after a saturation cycle";
  EXPECT_FALSE(Ser.isConsistent(H));
  EXPECT_FALSE(BruteForceChecker(IsolationLevel::Serializability)
                   .isConsistent(H));
}

} // namespace

TEST(SerializabilityCheckerTest, LostUpdateRejected) {
  History H = LitmusBuilder(1)
                  .txn(0, 0).rInit(X).w(X, 1).commit()
                  .txn(1, 0).rInit(X).w(X, 2).commit()
                  .build();
  expectRejectedBySaturation(H);
}

TEST(SerializabilityCheckerTest, WriteSkewRejected) {
  History H = LitmusBuilder(2)
                  .txn(0, 0).rInit(X).w(Y, 1).commit()
                  .txn(1, 0).rInit(Y).w(X, 1).commit()
                  .build();
  expectRejectedBySaturation(H);
}

TEST(SerializabilityCheckerTest, LongForkRejected) {
  History H = LitmusBuilder(2)
                  .txn(0, 0).w(X, 1).commit()
                  .txn(1, 0).w(Y, 1).commit()
                  .txn(2, 0).r(X, uid(0, 0)).rInit(Y).commit()
                  .txn(3, 0).r(Y, uid(1, 0)).rInit(X).commit()
                  .build();
  expectRejectedBySaturation(H);
}

TEST(SerializabilityCheckerTest, ReadSkewRejected) {
  History H = LitmusBuilder(2)
                  .txn(0, 0).w(X, 1).w(Y, 1).commit()
                  .txn(1, 0).rInit(X).r(Y, uid(0, 0)).commit()
                  .build();
  expectRejectedBySaturation(H);
}

TEST(SerializabilityCheckerTest, SerialHistoryAcceptedWithoutBacktracking) {
  History H = LitmusBuilder(2)
                  .txn(0, 0).rInit(X).w(X, 1).commit()
                  .txn(1, 0).r(X, uid(0, 0)).w(Y, 2).commit()
                  .txn(0, 1).r(Y, uid(1, 0)).commit()
                  .build();
  SerializabilityChecker::SearchReport Report;
  std::optional<std::vector<unsigned>> Order =
      SerializabilityChecker().findCommitOrder(H, &Report);
  ASSERT_TRUE(Order.has_value());
  EXPECT_EQ(*Order, (std::vector<unsigned>{0, 1, 2, 3}));
  EXPECT_FALSE(Report.RejectedBySaturation);
  EXPECT_EQ(Report.StatesVisited, H.numTxns() + 1u);
  EXPECT_EQ(Report.MemoEntries, 0u);
}

// The smallest history of the random generator (shapes up to 6 sessions x
// 4 transactions) on which the search backtracks: saturation leaves t2.0
// unordered against t0.0 and t1.0, the least-index-first search places
// t2.0 right after t0.0, finds t1.0 blocked and must undo it. Pins the
// memo path and its witness.
TEST(SerializabilityCheckerTest, MemoPathRegression) {
  History H = LitmusBuilder(1)
                  .txn(0, 0).w(X, 1).commit()
                  .txn(2, 0).w(X, 2).commit()
                  .txn(1, 0).r(X, uid(0, 0)).commit()
                  .build();
  SerializabilityChecker::SearchReport Report;
  std::optional<std::vector<unsigned>> Order =
      SerializabilityChecker().findCommitOrder(H, &Report);
  EXPECT_FALSE(Report.RejectedBySaturation);
  EXPECT_GT(Report.MemoEntries, 0u) << "the search must backtrack here";
  ASSERT_TRUE(Order.has_value());
  EXPECT_EQ(*Order, (std::vector<unsigned>{0, 1, 3, 2}));
  expectMatchesEnumerator(H);
}

TEST(SerializabilityCheckerTest, RandomVerdictsMatchBruteForce) {
  BruteForceChecker Oracle(IsolationLevel::Serializability);
  SerializabilityChecker Ser;
  struct Shape {
    unsigned Sessions, Txns, Vars, Ops;
  };
  for (Shape S : {Shape{2, 2, 1, 3}, Shape{2, 3, 2, 3}, Shape{3, 2, 2, 3},
                  Shape{3, 2, 3, 4}, Shape{4, 1, 2, 4}, Shape{2, 3, 3, 4}}) {
    RandomHistorySpec Spec;
    Spec.NumSessions = S.Sessions;
    Spec.TxnsPerSession = S.Txns;
    Spec.NumVars = S.Vars;
    Spec.MaxOpsPerTxn = S.Ops;
    Rng R(9000 + S.Sessions * 100 + S.Txns * 10 + S.Vars + S.Ops * 1000);
    for (unsigned Iter = 0; Iter != 150; ++Iter) {
      History H = makeRandomHistory(R, Spec);
      EXPECT_EQ(Ser.isConsistent(H), Oracle.isConsistent(H)) << H.str();
    }
  }
}

TEST(SerializabilityCheckerTest, CommitOrderIsLexicographicallyFirst) {
  struct Shape {
    unsigned Sessions, Txns, Vars;
  };
  unsigned Accepted = 0, Rejected = 0;
  for (Shape S : {Shape{2, 2, 2}, Shape{2, 3, 2}, Shape{3, 2, 2},
                  Shape{3, 2, 3}, Shape{6, 1, 2}}) {
    RandomHistorySpec Spec;
    Spec.NumSessions = S.Sessions;
    Spec.TxnsPerSession = S.Txns;
    Spec.NumVars = S.Vars;
    Rng R(4242 + S.Sessions * 100 + S.Txns * 10 + S.Vars);
    for (unsigned Iter = 0; Iter != 80; ++Iter) {
      History H = makeRandomHistory(R, Spec);
      ASSERT_LE(H.numTxns(), 7u);
      expectMatchesEnumerator(H);
      ++(SerializabilityChecker().isConsistent(H) ? Accepted : Rejected);
    }
  }
  // Both outcomes must be exercised for the comparison to mean anything.
  EXPECT_GT(Accepted, 20u);
  EXPECT_GT(Rejected, 20u);
}
