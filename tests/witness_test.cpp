//===- tests/witness_test.cpp - Commit-order certificate tests ------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "consistency/Witness.h"

#include "consistency/ConsistencyChecker.h"
#include "TestUtil.h"
#include <gtest/gtest.h>

using namespace txdpor;
using namespace txdpor::test;

namespace {
constexpr VarId X = 0;
constexpr VarId Y = 1;
} // namespace

TEST(WitnessTest, SerialChainCertificates) {
  History H = LitmusBuilder(1)
                  .txn(0, 0).w(X, 1).commit()
                  .txn(1, 0).r(X, uid(0, 0)).w(X, 2).commit()
                  .txn(2, 0).r(X, uid(1, 0)).commit()
                  .build();
  for (IsolationLevel Level : AllIsolationLevels) {
    auto Order = findCommitOrder(H, Level);
    ASSERT_TRUE(Order.has_value()) << isolationLevelName(Level);
    EXPECT_TRUE(validateCommitOrder(H, Level, *Order));
  }
}

TEST(WitnessTest, NoneForViolations) {
  // Fig. 3 violates CC and everything stronger.
  History H = LitmusBuilder(2)
                  .txn(0, 0).w(X, 1).commit()
                  .txn(1, 0).r(X, uid(0, 0)).w(X, 2).commit()
                  .txn(3, 0).r(X, uid(1, 0)).w(Y, 1).commit()
                  .txn(2, 0).r(X, uid(0, 0)).r(Y, uid(3, 0)).commit()
                  .build();
  for (IsolationLevel Level :
       {IsolationLevel::CausalConsistency, IsolationLevel::SnapshotIsolation,
        IsolationLevel::Serializability})
    EXPECT_FALSE(findCommitOrder(H, Level).has_value())
        << isolationLevelName(Level);
  // But RA admits it — with a checkable certificate.
  auto Order = findCommitOrder(H, IsolationLevel::ReadAtomic);
  ASSERT_TRUE(Order.has_value());
  EXPECT_TRUE(validateCommitOrder(H, IsolationLevel::ReadAtomic, *Order));
}

TEST(WitnessTest, WriteSkewSiCertificate) {
  History H = LitmusBuilder(2)
                  .txn(0, 0).r(X, TxnUid::init()).w(Y, 1).commit()
                  .txn(1, 0).r(Y, TxnUid::init()).w(X, 1).commit()
                  .build();
  auto Si = findCommitOrder(H, IsolationLevel::SnapshotIsolation);
  ASSERT_TRUE(Si.has_value());
  EXPECT_TRUE(
      validateCommitOrder(H, IsolationLevel::SnapshotIsolation, *Si));
  EXPECT_FALSE(
      findCommitOrder(H, IsolationLevel::Serializability).has_value());
}

TEST(WitnessTest, ValidateRejectsBadCertificates) {
  History H = LitmusBuilder(1)
                  .txn(0, 0).w(X, 1).commit()
                  .txn(1, 0).r(X, uid(0, 0)).commit()
                  .build();
  // Not a permutation.
  EXPECT_FALSE(validateCommitOrder(H, IsolationLevel::Trivial, {0, 1}));
  EXPECT_FALSE(validateCommitOrder(H, IsolationLevel::Trivial, {0, 1, 1}));
  // Violates wr ⊆ co (reader before its writer).
  EXPECT_FALSE(validateCommitOrder(H, IsolationLevel::Trivial, {0, 2, 1}));
  // Violates so ⊆ co (init last).
  EXPECT_FALSE(validateCommitOrder(H, IsolationLevel::Trivial, {1, 2, 0}));
  // The good one.
  EXPECT_TRUE(validateCommitOrder(H, IsolationLevel::Trivial, {0, 1, 2}));
}

TEST(WitnessTest, AgreesWithCheckerOnRandomHistories) {
  Rng R(31415);
  RandomHistorySpec Spec;
  Spec.NumSessions = 2;
  Spec.TxnsPerSession = 2;
  Spec.NumVars = 2;
  for (unsigned Iter = 0; Iter != 60; ++Iter) {
    History H = makeRandomHistory(R, Spec);
    for (IsolationLevel Level : AllIsolationLevels) {
      auto Order = findCommitOrder(H, Level);
      EXPECT_EQ(Order.has_value(), isConsistent(H, Level))
          << isolationLevelName(Level) << "\n"
          << H.str();
      if (Order) {
        EXPECT_TRUE(validateCommitOrder(H, Level, *Order))
            << isolationLevelName(Level) << "\n"
            << H.str();
      }
    }
  }
}

TEST(WitnessTest, CommitOrderRelationShape) {
  Relation Co = commitOrderRelation(3, {2, 0, 1});
  EXPECT_TRUE(Co.get(2, 0));
  EXPECT_TRUE(Co.get(2, 1));
  EXPECT_TRUE(Co.get(0, 1));
  EXPECT_FALSE(Co.get(1, 0));
  EXPECT_TRUE(Co.isTotalOrderCandidate());
  EXPECT_TRUE(Co.isAcyclic());
}
