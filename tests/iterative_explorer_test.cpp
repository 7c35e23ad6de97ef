//===- tests/iterative_explorer_test.cpp - §7.1 worklist implementation ---===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's tool uses an iterative implementation "where inputs to
/// recursive calls are maintained as a collection of histories instead of
/// relying on the call stack" (§7.1). Explorer walks the tree that way;
/// these tests pin it against the recursive reference walk
/// (enumerateRecursively): identical output sequences (not just sets)
/// and identical aggregate statistics on figure programs, application
/// clients and random programs.
///
//===----------------------------------------------------------------------===//

#include "apps/Applications.h"
#include "core/Enumerate.h"
#include "TestUtil.h"
#include <gtest/gtest.h>

using namespace txdpor;
using namespace txdpor::test;

namespace {

struct RunTrace {
  std::vector<std::string> Outputs;
  ExplorerStats Stats;
};

RunTrace keysOf(const EnumerationResult &R) {
  RunTrace Trace;
  for (const History &H : R.Histories)
    Trace.Outputs.push_back(H.canonicalKey());
  Trace.Stats = R.Stats;
  return Trace;
}

void expectEquivalent(const Program &P, const ExplorerConfig &Config) {
  RunTrace Recursive = keysOf(enumerateRecursively(P, Config));
  RunTrace Iterative = keysOf(enumerateHistories(P, Config));
  EXPECT_EQ(Recursive.Outputs, Iterative.Outputs)
      << "output sequences diverge on\n"
      << P.str();
  EXPECT_EQ(Recursive.Stats.ExploreCalls, Iterative.Stats.ExploreCalls);
  EXPECT_EQ(Recursive.Stats.EndStates, Iterative.Stats.EndStates);
  EXPECT_EQ(Recursive.Stats.Outputs, Iterative.Stats.Outputs);
  EXPECT_EQ(Recursive.Stats.EventsAdded, Iterative.Stats.EventsAdded);
  EXPECT_EQ(Recursive.Stats.ReadBranches, Iterative.Stats.ReadBranches);
  EXPECT_EQ(Recursive.Stats.SwapsConsidered,
            Iterative.Stats.SwapsConsidered);
  EXPECT_EQ(Recursive.Stats.SwapsApplied, Iterative.Stats.SwapsApplied);
  EXPECT_EQ(Recursive.Stats.MaxDepth, Iterative.Stats.MaxDepth);
  EXPECT_EQ(Recursive.Stats.BlockedReads, Iterative.Stats.BlockedReads);
}

} // namespace

TEST(IterativeExplorerTest, Fig12Program) {
  ProgramBuilder B;
  VarId X = B.var("x");
  B.beginTxn(0).write(X, 2);
  B.beginTxn(1).read("a", X);
  B.beginTxn(2).read("b", X);
  B.beginTxn(3).write(X, 4);
  Program P = B.build();
  expectEquivalent(
      P, ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency));
}

TEST(IterativeExplorerTest, AbortingProgram) {
  ProgramBuilder B;
  VarId X = B.var("x");
  VarId Y = B.var("y");
  auto T0 = B.beginTxn(0);
  T0.read("a", X);
  T0.abort(eq(T0.local("a"), 0));
  T0.write(Y, 1);
  B.beginTxn(0).read("b", X);
  B.beginTxn(1).write(Y, 3);
  B.beginTxn(1).write(X, 4);
  Program P = B.build();
  expectEquivalent(
      P, ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency));
}

TEST(IterativeExplorerTest, AppClientsAllBases) {
  for (AppKind App : {AppKind::Tpcc, AppKind::ShoppingCart}) {
    ClientSpec Spec;
    Spec.Sessions = 2;
    Spec.TxnsPerSession = 2;
    Spec.Seed = 5;
    Program P = makeClientProgram(App, Spec);
    for (IsolationLevel Base :
         {IsolationLevel::ReadCommitted, IsolationLevel::CausalConsistency})
      expectEquivalent(P, ExplorerConfig::exploreCE(Base));
  }
}

TEST(IterativeExplorerTest, FilteredAlgorithms) {
  ProgramBuilder B;
  VarId X = B.var("x");
  VarId Y = B.var("y");
  auto T0 = B.beginTxn(0);
  T0.read("a", X);
  T0.write(Y, 1);
  auto T1 = B.beginTxn(1);
  T1.read("b", Y);
  T1.write(X, 1);
  Program P = B.build();
  expectEquivalent(
      P, ExplorerConfig::exploreCEStar(IsolationLevel::CausalConsistency,
                                       IsolationLevel::Serializability));
  expectEquivalent(
      P, ExplorerConfig::exploreCEStar(IsolationLevel::CausalConsistency,
                                       IsolationLevel::SnapshotIsolation));
}

TEST(IterativeExplorerTest, RandomPrograms) {
  RandomProgramSpec Spec;
  Spec.NumSessions = 2;
  Spec.TxnsPerSession = 2;
  Spec.NumVars = 2;
  Spec.MaxOpsPerTxn = 2;
  Spec.WithGuards = true;
  Spec.WithAborts = true;
  Rng R(60221);
  for (unsigned Iter = 0; Iter != 6; ++Iter) {
    Program P = makeRandomProgram(R, Spec);
    expectEquivalent(
        P, ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency));
  }
}

TEST(IterativeExplorerTest, EndStateCapRespected) {
  ProgramBuilder B;
  VarId X = B.var("x");
  B.beginTxn(0).write(X, 2);
  B.beginTxn(1).read("a", X);
  B.beginTxn(2).read("b", X);
  B.beginTxn(3).write(X, 4);
  Program P = B.build();
  ExplorerConfig Config =
      ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency);
  Config.MaxEndStates = 2;
  ExplorerStats Stats = exploreProgram(P, Config);
  EXPECT_EQ(Stats.EndStates, 2u);
  EXPECT_TRUE(Stats.HitEndStateCap);
  // The truncated walks still agree, statistic for statistic.
  expectEquivalent(P, Config);
}
