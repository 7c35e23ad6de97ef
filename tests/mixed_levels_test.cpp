//===- tests/mixed_levels_test.cpp - Per-session isolation levels ---------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mixed-isolation-level semantics (arXiv 2505.18409, PAPERS.md):
/// LevelAssignment plumbing, the MixedSaturationChecker against the
/// per-transaction brute-force reference, and the explorer with a mixed
/// base assignment — litmus programs where an anomaly appears exactly when
/// one session's level is weakened (and disappears when it is
/// strengthened), set equality with the filtered explore-ce(true)
/// reference, thread-count invariance, and the no-drift guarantee for
/// uniform assignments.
///
//===----------------------------------------------------------------------===//

#include "apps/Applications.h"
#include "consistency/Axioms.h"
#include "consistency/BruteForceChecker.h"
#include "consistency/LevelParse.h"
#include "consistency/SaturationChecker.h"
#include "core/Enumerate.h"
#include "fuzz/DifferentialOracle.h"
#include "fuzz/Repro.h"
#include "parallel/ParallelExplorer.h"
#include "support/Parse.h"

#include "TestUtil.h"
#include <gtest/gtest.h>

#include <algorithm>

using namespace txdpor;
using namespace txdpor::test;

namespace {

constexpr VarId X = 0;
constexpr VarId Y = 1;

LevelAssignment mix(IsolationLevel Default,
                    std::initializer_list<IsolationLevel> Sessions) {
  LevelAssignment A(Default);
  unsigned S = 0;
  for (IsolationLevel L : Sessions)
    A.set(S++, L);
  return A;
}

} // namespace

//===----------------------------------------------------------------------===//
// LevelAssignment
//===----------------------------------------------------------------------===//

TEST(LevelAssignmentTest, DefaultsAndExplicitEntries) {
  LevelAssignment A;
  EXPECT_EQ(A.defaultLevel(), IsolationLevel::CausalConsistency);
  EXPECT_FALSE(A.hasExplicit());
  EXPECT_FALSE(A.isMixed());
  EXPECT_EQ(A.levelFor(0), IsolationLevel::CausalConsistency);
  EXPECT_EQ(A.levelFor(TxnUid::InitSession),
            IsolationLevel::CausalConsistency);

  A.set(1, IsolationLevel::ReadCommitted);
  EXPECT_TRUE(A.hasExplicit());
  EXPECT_TRUE(A.isMixed());
  EXPECT_EQ(A.levelFor(0), IsolationLevel::CausalConsistency);
  EXPECT_EQ(A.levelFor(1), IsolationLevel::ReadCommitted);
  EXPECT_EQ(A.levelFor(7), IsolationLevel::CausalConsistency);
  EXPECT_EQ(A.str(), "CC S1=RC");
  EXPECT_EQ(A.strongest(), IsolationLevel::CausalConsistency);
  EXPECT_TRUE(A.allPrefixClosedCausallyExtensible());
  EXPECT_TRUE(A.allWeakerOrEqual(IsolationLevel::CausalConsistency));
  EXPECT_FALSE(A.allWeakerOrEqual(IsolationLevel::ReadAtomic));
}

TEST(LevelAssignmentTest, ResolvedCollapsesUniformAssignments) {
  // Explicit entries that all agree collapse to the uniform level — the
  // engine's guarantee that "--levels S0=RC,S1=RC" takes the classic
  // single-level code path.
  LevelAssignment A(IsolationLevel::CausalConsistency);
  A.set(0, IsolationLevel::ReadCommitted);
  A.set(1, IsolationLevel::ReadCommitted);
  LevelAssignment R = A.resolved(2);
  EXPECT_FALSE(R.hasExplicit());
  EXPECT_FALSE(R.isMixed());
  EXPECT_EQ(R.defaultLevel(), IsolationLevel::ReadCommitted);

  // A third session would inherit the CC default: genuinely mixed.
  LevelAssignment R3 = A.resolved(3);
  EXPECT_TRUE(R3.isMixed());
  EXPECT_EQ(R3.levelFor(2), IsolationLevel::CausalConsistency);

  // Entries beyond the session count are dropped.
  LevelAssignment B(IsolationLevel::CausalConsistency);
  B.set(5, IsolationLevel::ReadCommitted);
  EXPECT_FALSE(B.resolved(2).isMixed());
}

TEST(LevelAssignmentTest, EqualityIsSemantic) {
  LevelAssignment A(IsolationLevel::CausalConsistency);
  LevelAssignment B(IsolationLevel::CausalConsistency);
  B.set(0, IsolationLevel::CausalConsistency); // Explicit but equal.
  EXPECT_EQ(A, B);
  B.set(0, IsolationLevel::ReadCommitted);
  EXPECT_NE(A, B);
  EXPECT_FALSE(
      mix(IsolationLevel::SnapshotIsolation, {})
          .allPrefixClosedCausallyExtensible());
}

//===----------------------------------------------------------------------===//
// Mixed checkers on litmus histories
//===----------------------------------------------------------------------===//

// The causality-violation litmus (paper Fig. 3 shape, two-session form):
// session 0 writes x then y (so-ordered); session 1 reads the new y but
// the initial x. CC forbids it (t0.0 is causally before the reader via
// so ∘ wr and writes x), RC and RA allow it (their premises do not chain
// through so ∘ wr).
static History causalityLitmus() {
  return LitmusBuilder(2)
      .txn(0, 0).w(X, 1).commit()
      .txn(0, 1).w(Y, 1).commit()
      .txn(1, 0).r(Y, uid(0, 1)).rInit(X).commit()
      .build();
}

TEST(MixedCheckerTest, CausalityLitmusFollowsTheReaderSessionLevel) {
  History H = causalityLitmus();

  // Uniform sanity: inconsistent at CC, consistent at RC/RA.
  EXPECT_FALSE(isConsistent(H, IsolationLevel::CausalConsistency));
  EXPECT_TRUE(isConsistent(H, IsolationLevel::ReadAtomic));
  EXPECT_TRUE(isConsistent(H, IsolationLevel::ReadCommitted));

  // All reads live in session 1, so the verdict follows *its* level:
  // relaxing the reader to RC admits the history even though the writer
  // session stays CC...
  LevelAssignment ReaderRc = mix(IsolationLevel::CausalConsistency,
                                 {IsolationLevel::CausalConsistency,
                                  IsolationLevel::ReadCommitted});
  EXPECT_TRUE(MixedSaturationChecker(ReaderRc).isConsistent(H));
  EXPECT_TRUE(BruteForceChecker(ReaderRc).isConsistent(H));

  // ...and, vice versa, upgrading only the reader back to CC in an
  // otherwise-RC deployment re-establishes the violation.
  LevelAssignment ReaderCc = mix(IsolationLevel::ReadCommitted,
                                 {IsolationLevel::ReadCommitted,
                                  IsolationLevel::CausalConsistency});
  EXPECT_FALSE(MixedSaturationChecker(ReaderCc).isConsistent(H));
  EXPECT_FALSE(BruteForceChecker(ReaderCc).isConsistent(H));
}

TEST(MixedCheckerTest, FracturedReadFollowsTheReaderSessionLevel) {
  // Fractured read: session 1 reads y before t0.0's write of y but x
  // from t0.0 — RA forbids (read atomicity), RC allows.
  History H = LitmusBuilder(2)
                  .txn(0, 0).w(X, 1).w(Y, 1).commit()
                  .txn(1, 0).rInit(Y).r(X, uid(0, 0)).commit()
                  .build();
  LevelAssignment ReaderRc = mix(IsolationLevel::ReadAtomic,
                                 {IsolationLevel::ReadAtomic,
                                  IsolationLevel::ReadCommitted});
  LevelAssignment ReaderRa = mix(IsolationLevel::ReadCommitted,
                                 {IsolationLevel::ReadCommitted,
                                  IsolationLevel::ReadAtomic});
  EXPECT_TRUE(MixedSaturationChecker(ReaderRc).isConsistent(H));
  EXPECT_TRUE(BruteForceChecker(ReaderRc).isConsistent(H));
  EXPECT_FALSE(MixedSaturationChecker(ReaderRa).isConsistent(H));
  EXPECT_FALSE(BruteForceChecker(ReaderRa).isConsistent(H));
}

TEST(MixedCheckerTest, UniformAssignmentMatchesClassicCheckers) {
  Rng R(41);
  RandomHistorySpec Spec;
  for (unsigned Case = 0; Case != 60; ++Case) {
    History H = makeRandomHistory(R, Spec);
    for (IsolationLevel L :
         {IsolationLevel::ReadCommitted, IsolationLevel::ReadAtomic,
          IsolationLevel::CausalConsistency}) {
      LevelAssignment Uniform = LevelAssignment::uniform(L);
      // Force the mixed code path for a semantically uniform assignment.
      LevelAssignment Pinned(L == IsolationLevel::CausalConsistency
                                 ? IsolationLevel::ReadCommitted
                                 : IsolationLevel::CausalConsistency);
      for (unsigned S = 0; S != Spec.NumSessions; ++S)
        Pinned.set(S, L);
      bool Classic = isConsistent(H, L);
      EXPECT_EQ(Classic, isConsistent(H, Uniform));
      EXPECT_EQ(Classic, MixedSaturationChecker(Pinned).isConsistent(H))
          << H.str();
      EXPECT_EQ(Classic, BruteForceChecker(Pinned).isConsistent(H))
          << H.str();
    }
  }
}

TEST(MixedCheckerTest, RandomMixedAgreesWithBruteForce) {
  // The production mixed saturation checker against the literal
  // per-transaction Def. 2.2 enumeration, over random histories and
  // random causally-extensible mixes.
  const IsolationLevel Saturable[] = {
      IsolationLevel::Trivial, IsolationLevel::ReadCommitted,
      IsolationLevel::ReadAtomic, IsolationLevel::CausalConsistency};
  Rng R(1337);
  RandomHistorySpec Spec;
  Spec.NumSessions = 3;
  Spec.TxnsPerSession = 2;
  for (unsigned Case = 0; Case != 150; ++Case) {
    History H = makeRandomHistory(R, Spec);
    LevelAssignment Mix(Saturable[R.nextBelow(4)]);
    for (unsigned S = 0; S != Spec.NumSessions; ++S)
      Mix.set(S, Saturable[R.nextBelow(4)]);
    MixedSaturationChecker Production(Mix);
    BruteForceChecker Reference(Mix);
    EXPECT_EQ(Production.isConsistent(H), Reference.isConsistent(H))
        << "mix " << Mix.str() << "\n" << H.str();
  }
}

TEST(MixedCheckerTest, MixedAxiomsMatchPerLevelAxiomsOnSplitHistories) {
  // For a mix, axiomsHold(H, Co, mix) must equal the conjunction of each
  // uniform level's axioms restricted to that level's reads. With all
  // reads in one session (litmus shape), that is just the reader level's
  // uniform axioms — checked against every topological order.
  History H = causalityLitmus();
  unsigned N = H.numTxns();
  Relation SoWr = H.soWrRelation();
  // One concrete order: block order 0..N-1 (it extends so ∪ wr here).
  Relation Co(N);
  for (unsigned I = 0; I != N; ++I)
    for (unsigned J = I + 1; J != N; ++J)
      Co.set(I, J);
  LevelAssignment ReaderRc = mix(IsolationLevel::CausalConsistency,
                                 {IsolationLevel::CausalConsistency,
                                  IsolationLevel::ReadCommitted});
  EXPECT_EQ(axiomsHold(H, Co, ReaderRc),
            readCommittedAxiom(H, Co));
  LevelAssignment ReaderCc = mix(IsolationLevel::ReadCommitted,
                                 {IsolationLevel::ReadCommitted,
                                  IsolationLevel::CausalConsistency});
  EXPECT_EQ(axiomsHold(H, Co, ReaderCc),
            causalConsistencyAxiom(H, Co));
}

//===----------------------------------------------------------------------===//
// The explorer under a mixed base assignment
//===----------------------------------------------------------------------===//

namespace {

/// The litmus *program* behind causalityLitmus(): two so-ordered writers
/// in session 0, one two-read transaction in session 1.
Program causalityProgram() {
  ProgramBuilder B;
  VarId Vx = B.var("x"), Vy = B.var("y");
  B.beginTxn(0, "wx").write(Vx, ExprRef(1));
  B.beginTxn(0, "wy").write(Vy, ExprRef(1));
  auto T = B.beginTxn(1, "reader");
  T.read("a", Vy);
  T.read("b", Vx);
  return B.build();
}

/// True if some output history has the reader observing the *new* y but
/// the *initial* x — the causality-violating read pattern.
bool hasStaleReadPattern(const std::vector<History> &Histories) {
  for (const History &H : Histories) {
    std::optional<unsigned> Reader = H.indexOf(uid(1, 0));
    if (!Reader)
      continue;
    const TransactionLog &Log = H.txn(*Reader);
    std::optional<TxnUid> Wy, Wx;
    for (uint32_t Pos = 0; Pos != Log.size(); ++Pos) {
      if (!Log.event(Pos).isRead())
        continue;
      if (Log.event(Pos).Var == 1)
        Wy = Log.writerOf(Pos);
      else
        Wx = Log.writerOf(Pos);
    }
    if (Wy && Wx && *Wy == uid(0, 1) && Wx->isInit())
      return true;
  }
  return false;
}

std::vector<History> explore(const Program &P, ExplorerConfig Config) {
  return enumerateHistories(P, std::move(Config)).Histories;
}

} // namespace

TEST(MixedExplorerTest, AnomalyAppearsExactlyWhenTheReaderIsWeakened) {
  Program P = causalityProgram();

  // Uniform CC forbids the stale-read interleaving; uniform RC allows it.
  EXPECT_FALSE(hasStaleReadPattern(
      explore(P, ExplorerConfig::exploreCE(
                     IsolationLevel::CausalConsistency))));
  EXPECT_TRUE(hasStaleReadPattern(
      explore(P, ExplorerConfig::exploreCE(IsolationLevel::ReadCommitted))));

  // Mixed: one RC reader session in a CC deployment admits it...
  LevelAssignment ReaderRc = mix(IsolationLevel::CausalConsistency,
                                 {IsolationLevel::CausalConsistency,
                                  IsolationLevel::ReadCommitted});
  std::vector<History> Mixed =
      explore(P, ExplorerConfig::exploreCEMixed(ReaderRc));
  EXPECT_TRUE(hasStaleReadPattern(Mixed));

  // ...and upgrading only the reader in an RC deployment removes it.
  LevelAssignment ReaderCc = mix(IsolationLevel::ReadCommitted,
                                 {IsolationLevel::ReadCommitted,
                                  IsolationLevel::CausalConsistency});
  EXPECT_FALSE(hasStaleReadPattern(
      explore(P, ExplorerConfig::exploreCEMixed(ReaderCc))));

  // Every mixed output satisfies the assignment, per both the production
  // mixed checker and the per-transaction brute-force reference.
  MixedSaturationChecker Production(ReaderRc);
  BruteForceChecker Reference(ReaderRc);
  for (const History &H : Mixed) {
    EXPECT_TRUE(Production.isConsistent(H)) << H.str();
    EXPECT_TRUE(Reference.isConsistent(H)) << H.str();
  }
}

TEST(MixedExplorerTest, OutputSetMatchesBruteForceFilteredUniverse) {
  // Soundness + completeness of explore-ce under a mixed base: its output
  // set must equal explore-ce(true) — every wr choice — re-filtered by
  // the brute-force reference with per-transaction commit tests, and be
  // duplicate-free (strong optimality).
  Program P = causalityProgram();
  LevelAssignment Mix = mix(IsolationLevel::CausalConsistency,
                            {IsolationLevel::CausalConsistency,
                             IsolationLevel::ReadCommitted});
  auto MixedKeys = countByCanonicalKey(
      explore(P, ExplorerConfig::exploreCEMixed(Mix)));
  BruteForceChecker Reference(Mix);
  std::vector<History> Expected;
  for (const History &H :
       explore(P, ExplorerConfig::exploreCE(IsolationLevel::Trivial)))
    if (Reference.isConsistent(H))
      Expected.push_back(H);
  EXPECT_EQ(MixedKeys, countByCanonicalKey(Expected));
  for (const auto &[Key, Count] : MixedKeys)
    EXPECT_EQ(Count, 1u) << "duplicate output " << Key;
}

TEST(MixedExplorerTest, RandomProgramsMatchBruteForceFilteredUniverse) {
  Rng R(2025);
  RandomProgramSpec Spec;
  Spec.WithAborts = false;
  const IsolationLevel Saturable[] = {
      IsolationLevel::ReadCommitted, IsolationLevel::ReadAtomic,
      IsolationLevel::CausalConsistency};
  for (unsigned Case = 0; Case != 12; ++Case) {
    Program P = makeRandomProgram(R, Spec);
    LevelAssignment Mix(Saturable[R.nextBelow(3)]);
    for (unsigned S = 0; S != Spec.NumSessions; ++S)
      Mix.set(S, Saturable[R.nextBelow(3)]);
    auto MixedKeys = countByCanonicalKey(
        explore(P, ExplorerConfig::exploreCEMixed(Mix)));
    BruteForceChecker Reference(Mix.resolved(P.numSessions()));
    std::vector<History> Expected;
    for (const History &H :
         explore(P, ExplorerConfig::exploreCE(IsolationLevel::Trivial)))
      if (Reference.isConsistent(H))
        Expected.push_back(H);
    EXPECT_EQ(MixedKeys, countByCanonicalKey(Expected))
        << "case " << Case << " mix " << Mix.str() << "\n" << P.str();
  }
}

TEST(MixedExplorerTest, ThreadCountInvariantUnderMixedBase) {
  Program P = causalityProgram();
  LevelAssignment Mix = mix(IsolationLevel::CausalConsistency,
                            {IsolationLevel::CausalConsistency,
                             IsolationLevel::ReadCommitted});
  ExplorerConfig Base = ExplorerConfig::exploreCEMixed(Mix);
  std::vector<History> Worklist = explore(P, Base);
  auto Reference = countByCanonicalKey(Worklist);

  // The recursive reference walk pins the worklist's visit order.
  std::vector<History> Recursive = enumerateRecursively(P, Base).Histories;
  ASSERT_EQ(Recursive.size(), Worklist.size());
  for (size_t I = 0; I != Worklist.size(); ++I)
    EXPECT_EQ(Recursive[I].canonicalKey(), Worklist[I].canonicalKey())
        << "output " << I;

  for (unsigned Threads : {1u, 2u, 4u}) {
    ExplorerConfig Par = Base;
    Par.Threads = Threads;
    std::vector<History> Out;
    ParallelExplorer E(P, Par);
    E.run([&](const History &H) { Out.push_back(H); });
    EXPECT_EQ(Reference, countByCanonicalKey(Out)) << Threads << " threads";
  }
}

TEST(MixedExplorerTest, UniformAssignmentsDoNotDrift) {
  // A pinned-but-uniform assignment must reproduce the classic run
  // exactly: same outputs *and* same statistics (the engine collapses it
  // to the single-level code path — no mixed-checker indirection).
  Program P = makeClientProgram(AppKind::Tpcc, ClientSpec());
  ExplorerConfig Plain = ExplorerConfig::exploreCE(
      IsolationLevel::CausalConsistency);
  LevelAssignment Pinned(IsolationLevel::ReadCommitted);
  for (unsigned S = 0; S != P.numSessions(); ++S)
    Pinned.set(S, IsolationLevel::CausalConsistency);
  ExplorerConfig Via = ExplorerConfig::exploreCEMixed(Pinned);

  EnumerationResult A = enumerateHistories(P, Plain);
  EnumerationResult B = enumerateHistories(P, Via);
  EXPECT_EQ(countByCanonicalKey(A.Histories),
            countByCanonicalKey(B.Histories));
  EXPECT_EQ(A.Stats.ExploreCalls, B.Stats.ExploreCalls);
  EXPECT_EQ(A.Stats.EndStates, B.Stats.EndStates);
  EXPECT_EQ(A.Stats.ConsistencyChecks, B.Stats.ConsistencyChecks);
  EXPECT_EQ(A.Stats.SwapsApplied, B.Stats.SwapsApplied);
}

TEST(MixedExplorerTest, ProgramDeclaredLevelsDriveTheEngine) {
  // A program-declared assignment (Program::levels) is honored when the
  // config has none, and an explicit config assignment overrides it.
  Program P = causalityProgram();
  LevelAssignment Declared = mix(IsolationLevel::CausalConsistency,
                                 {IsolationLevel::CausalConsistency,
                                  IsolationLevel::ReadCommitted});
  P.setLevels(Declared);

  ExplorerConfig Plain; // No explicit config assignment: program wins.
  EXPECT_TRUE(hasStaleReadPattern(explore(P, Plain)));

  ExplorerConfig Override; // Config pins everything to CC: config wins.
  for (unsigned S = 0; S != P.numSessions(); ++S)
    Override.BaseLevels.set(S, IsolationLevel::CausalConsistency);
  EXPECT_FALSE(hasStaleReadPattern(explore(P, Override)));
}

//===----------------------------------------------------------------------===//
// Apps' mixed workload variants, oracle legs, litmus grammar
//===----------------------------------------------------------------------===//

TEST(MixedWorkloadTest, AppsTagReadOnlySessionsReadCommitted) {
  for (AppKind App : {AppKind::Tpcc, AppKind::Twitter}) {
    ClientSpec Uniform;
    Uniform.Sessions = 3;
    Uniform.TxnsPerSession = 2;
    ClientSpec Mixed = Uniform;
    Mixed.MixedLevels = true;
    Program U = makeClientProgram(App, Uniform);
    Program M = makeClientProgram(App, Mixed);

    ASSERT_TRUE(M.levels().hasExplicit()) << appName(App);
    EXPECT_FALSE(U.levels().hasExplicit());
    // Same instruction stream: stripping the tags gives the uniform
    // client back verbatim.
    Program Stripped = M;
    Stripped.setLevels(LevelAssignment());
    EXPECT_EQ(U.str(), Stripped.str()) << appName(App);
    // Tagging follows "RC readers, CC writers".
    for (unsigned S = 0; S != M.numSessions(); ++S) {
      bool Writes = false;
      for (unsigned T = 0; T != M.numTxns(S) && !Writes; ++T)
        for (const Instr &I : M.txn({S, T}).body())
          if (I.Kind == InstrKind::Write)
            Writes = true;
      EXPECT_EQ(M.levels().levelFor(S),
                Writes ? IsolationLevel::CausalConsistency
                       : IsolationLevel::ReadCommitted)
          << appName(App) << " session " << S;
    }
  }
}

TEST(MixedWorkloadTest, MixedTpccExploresCleanly) {
  // The tpcc mixed variant (RC audit readers, CC order entry) explores
  // with per-session semantics and matches the brute-force reference.
  ClientSpec Spec;
  Spec.Sessions = 3;
  Spec.TxnsPerSession = 2;
  Spec.MixedLevels = true;
  Program P = makeClientProgram(AppKind::Tpcc, Spec);
  ASSERT_TRUE(P.levels().resolved(P.numSessions()).isMixed());

  EnumerationResult Mixed = enumerateHistories(P, ExplorerConfig());
  // Pin every session to CC explicitly so the config overrides the
  // program-declared mix (a default-only assignment would not).
  LevelAssignment AllCc;
  for (unsigned S = 0; S != P.numSessions(); ++S)
    AllCc.set(S, IsolationLevel::CausalConsistency);
  EnumerationResult Uniform =
      enumerateHistories(P, ExplorerConfig::exploreCEMixed(AllCc));
  // Weakening the reader sessions can only add histories.
  EXPECT_GE(Mixed.Histories.size(), Uniform.Histories.size());
  BruteForceChecker Reference(P.levels().resolved(P.numSessions()));
  for (const History &H : Mixed.Histories)
    EXPECT_TRUE(Reference.isConsistent(H));
}

TEST(MixedOracleTest, MixedSemanticsSweepIsClean) {
  // The differential oracle's mixed legs (driver diffs, brute-force set
  // equality, verdict cross-checks) on a litmus program and a couple of
  // generated ones — the same sweep fuzz_smoke_mixed runs through the
  // CLI.
  fuzz::OracleConfig Cfg;
  fuzz::DifferentialOracle Oracle(Cfg);
  std::vector<IsolationLevel> Mix = {IsolationLevel::CausalConsistency,
                                     IsolationLevel::ReadCommitted};
  for (const fuzz::Disagreement &D :
       Oracle.checkProgram(causalityProgram(), Mix))
    ADD_FAILURE() << D.Detail;

  Rng R(99);
  fuzz::ProgramShape Shape;
  Shape.LevelMixPercent = 100;
  for (unsigned Case = 0; Case != 5; ++Case) {
    fuzz::GeneratedCase C = fuzz::generateCase(R, Shape);
    for (const fuzz::Disagreement &D :
         Oracle.checkProgram(C.Prog, C.SessionLevels))
      ADD_FAILURE() << "case " << Case << ": " << D.Detail;
  }
}

TEST(MixedReproTest, LevelLineRoundTripsSessionAssignments) {
  fuzz::Repro R;
  R.Seed = 7;
  R.CaseIndex = 3;
  R.Kind = fuzz::Disagreement::Kind::CheckerVerdictMismatch;
  R.Level = IsolationLevel::CausalConsistency;
  R.SessionLevels = {IsolationLevel::CausalConsistency,
                     IsolationLevel::ReadCommitted};
  R.Detail = "mixed litmus";
  R.Prog = causalityProgram();

  std::string Text = fuzz::writeRepro(R);
  EXPECT_NE(Text.find("level CC S0=CC S1=RC"), std::string::npos) << Text;
  std::string Error;
  std::optional<fuzz::Repro> Parsed = fuzz::parseRepro(Text, &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  EXPECT_EQ(Parsed->Level, R.Level);
  EXPECT_EQ(Parsed->SessionLevels, R.SessionLevels);

  // The legacy standalone "mix" line still parses.
  std::optional<fuzz::Repro> Legacy = fuzz::parseRepro(
      "kind checker-verdict-mismatch\nlevel CC\nmix CC RC\n", &Error);
  ASSERT_TRUE(Legacy.has_value()) << Error;
  EXPECT_EQ(Legacy->SessionLevels, R.SessionLevels);
}

TEST(LevelParseTest, CheckedParsersRejectSneakyForms) {
  // strtoull/strtoll whitespace-skip and '+' forms must not sneak
  // through the checked parsers (the silent-wrap class the CLI fix
  // bans): first character must be a digit (or '-' for parseInt).
  EXPECT_FALSE(parseUInt(" -1").has_value());
  EXPECT_FALSE(parseUInt("+5").has_value());
  EXPECT_FALSE(parseUInt(" 5").has_value());
  EXPECT_FALSE(parseInt(" 5").has_value());
  EXPECT_FALSE(parseInt("+5").has_value());
  EXPECT_EQ(parseInt("-5"), -5);
  EXPECT_EQ(parseUInt("5"), 5u);

  EXPECT_EQ(parseSessionLevel("S1=RC"),
            std::make_pair(1u, IsolationLevel::ReadCommitted));
  EXPECT_FALSE(parseSessionLevel("S1=XX").has_value());
  EXPECT_FALSE(parseSessionLevel("1=RC").has_value());
  EXPECT_FALSE(parseSessionLevel("S99999=RC").has_value());
  EXPECT_EQ(isolationLevelByName("SER"), IsolationLevel::Serializability);
  EXPECT_FALSE(isolationLevelByName("ser").has_value());
}

TEST(MixedCheckerTest, NonSaturableMixFallsBackToBruteForce) {
  // makeChecker on a mix naming SI must not decide the SI session with
  // CC premises — it falls back to the per-transaction brute force.
  LevelAssignment Mix(IsolationLevel::CausalConsistency);
  Mix.set(0, IsolationLevel::SnapshotIsolation);
  Mix.set(1, IsolationLevel::ReadCommitted);
  Rng R(7);
  RandomHistorySpec Spec;
  for (unsigned Case = 0; Case != 20; ++Case) {
    History H = makeRandomHistory(R, Spec);
    EXPECT_EQ(makeChecker(Mix)->isConsistent(H),
              BruteForceChecker(Mix).isConsistent(H));
  }
}

TEST(MixedReproTest, ProgramTextRejectsNonBaseSessionLevels) {
  // "@SI"/"@SER" session tags would feed the explorer a non-causally-
  // extensible base; the grammar rejects them with a diagnostic.
  std::string Error;
  EXPECT_FALSE(fuzz::parseProgramText(
                   "vars x\nsession 0 @SI\ntxn\n  read a x\n", &Error)
                   .has_value());
  EXPECT_NE(Error.find("true, RC, RA, CC"), std::string::npos) << Error;
  EXPECT_TRUE(fuzz::parseProgramText(
                  "vars x\nsession 0 @RC\ntxn\n  read a x\n", &Error)
                  .has_value())
      << Error;
}

TEST(MixedReproTest, ProgramTextRoundTripsSessionLevels) {
  Program P = causalityProgram();
  LevelAssignment Declared = mix(IsolationLevel::CausalConsistency,
                                 {IsolationLevel::CausalConsistency,
                                  IsolationLevel::ReadCommitted});
  P.setLevels(Declared);
  std::string Text = fuzz::writeProgramText(P);
  EXPECT_NE(Text.find("session 1 @RC"), std::string::npos) << Text;
  std::string Error;
  std::optional<Program> Parsed = fuzz::parseProgramText(Text, &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  EXPECT_TRUE(Parsed->levels().hasExplicit());
  EXPECT_EQ(Parsed->levels().levelFor(0), IsolationLevel::CausalConsistency);
  EXPECT_EQ(Parsed->levels().levelFor(1), IsolationLevel::ReadCommitted);
  EXPECT_EQ(fuzz::writeProgramText(*Parsed), Text);

  // Level-free programs keep the legacy spelling.
  EXPECT_EQ(fuzz::writeProgramText(causalityProgram())
                .find("session 0 @"),
            std::string::npos);
}
