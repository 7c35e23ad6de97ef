//===- tests/dedup_test.cpp - Subtree dedup & hashing regression tests ----===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for the session-symmetry subtree dedup (core/Dedup.h) —
/// session-renaming invariance, table gating on asymmetric programs, and
/// verdict equivalence of dedup-on vs dedup-off exploration — plus
/// regression tests for two weak hashes: the commutative per-log sum of
/// History::hashIgnoringOrder and the 32-bit multiplier of
/// std::hash<EventRef>.
///
//===----------------------------------------------------------------------===//

#include "core/Dedup.h"

#include "apps/Applications.h"
#include "consistency/ConsistencyChecker.h"
#include "core/Enumerate.h"
#include "fuzz/DifferentialOracle.h"
#include "parallel/ParallelExplorer.h"
#include "semantics/Executor.h"

#include "TestUtil.h"
#include <gtest/gtest.h>

#include <set>

using namespace txdpor;
using namespace txdpor::test;

namespace {

constexpr VarId X = 0;

/// A pending log whose last event is a write of \p V — the shape that
/// makes hashTransactionLog affine in the written value (the value is
/// the final hashCombine input, so hash(V) = H_prev ^ (V + K)).
TransactionLog writeLog(TxnUid U, Value V) {
  TransactionLog Log(U);
  Log.append(Event::makeBegin());
  Log.append(Event::makeWrite(X, V));
  return Log;
}

/// The block-order-insensitive per-session renaming \p Pi applied to \p H
/// (init maps to itself). Pi must be a permutation of the session ids and
/// must only identify sessions whose program code is identical, so the
/// renamed history is an execution of the same program.
History renameSessions(const History &H,
                       const std::vector<uint32_t> &Pi) {
  auto Renamed = [&](TxnUid U) {
    return U.isInit() ? U : TxnUid{Pi[U.Session], U.Index};
  };
  // Rebuilt from scratch: every block is re-appended in block order
  // under its new uid, keeping the uid index coherent for the cursor
  // replay below.
  History R;
  for (unsigned I = 0; I != H.numTxns(); ++I) {
    const TransactionLog &Log = H.txn(I);
    TransactionLog New(Renamed(Log.uid()));
    for (uint32_t P = 0, E = static_cast<uint32_t>(Log.size()); P != E; ++P) {
      New.append(Log.event(P));
      if (std::optional<TxnUid> W = Log.writerOf(P))
        New.setWriter(P, Renamed(*W));
    }
    R.appendLog(std::move(New));
  }
  return R;
}

Program identicalProgram(unsigned Sessions, unsigned Txns, uint64_t Seed) {
  ClientSpec Spec;
  Spec.Sessions = Sessions;
  Spec.TxnsPerSession = Txns;
  Spec.Seed = Seed;
  return makeClientProgram(AppKind::IdenticalSessions, Spec);
}

/// A courseware client whose last session runs session 0's code: one
/// two-session structural class next to a singleton, so the table is
/// built but most of the program is asymmetric.
Program partlySymmetricProgram(uint64_t Seed) {
  ClientSpec Spec;
  Spec.Sessions = 3;
  Spec.TxnsPerSession = 2;
  Spec.Seed = Seed;
  return fuzz::symmetrized(makeClientProgram(AppKind::Courseware, Spec));
}

} // namespace

//===----------------------------------------------------------------------===//
// Satellite regressions: the weak hashes.
//===----------------------------------------------------------------------===//

// hashIgnoringOrder used to sum `hashLog(L) * C` over the logs, so any
// two histories whose per-log hashes had equal *sums* collided. For a log
// ending in a write, hashTransactionLog is affine in the written value
// (H_prev ^ (Val + K)), so bumping the value by one shifts the hash by
// exactly +-1 depending on the low bit — which lets us build two distinct
// two-log histories with provably equal per-log sums. The mixed combine
// must now tell them apart.
TEST(HashIgnoringOrderTest, MixesPerLogHashesBeforeSumming) {
  TxnUid U0 = uid(0, 0), U1 = uid(1, 0);
  // Find Va, Vb where bumping the written value by one shifts each log's
  // hash by exactly +-1 (true for every other value; the sign per uid is
  // fixed by the pre-value hash state's low bit).
  auto Delta = [](TxnUid U, Value V) -> int64_t {
    return static_cast<int64_t>(hashTransactionLog(writeLog(U, V + 1)) -
                                hashTransactionLog(writeLog(U, V)));
  };
  std::optional<Value> Va, Vb;
  for (Value V = 0; V != 64 && (!Va || !Vb); ++V) {
    if (!Va && (Delta(U0, V) == 1 || Delta(U0, V) == -1))
      Va = V;
    if (!Vb && (Delta(U1, V) == 1 || Delta(U1, V) == -1))
      Vb = V;
  }
  ASSERT_TRUE(Va && Vb) << "no +-1 pair in range; hashLog changed shape?";

  // Bump on opposite sides when the deltas agree (+d then -(+d) cancels
  // across the sum), on the same side when they cancel each other.
  bool SameSign = Delta(U0, *Va) == Delta(U1, *Vb);
  History H1 = History::makeInitial(1);
  H1.appendLog(writeLog(U0, *Va + 1));
  H1.appendLog(writeLog(U1, SameSign ? *Vb : *Vb + 1));
  History H2 = History::makeInitial(1);
  H2.appendLog(writeLog(U0, *Va));
  H2.appendLog(writeLog(U1, SameSign ? *Vb + 1 : *Vb));

  // The premise of the regression: distinct histories, equal per-log
  // hash sums — the exact collision class of the old scheme.
  ASSERT_NE(H1.canonicalKey(), H2.canonicalKey());
  ASSERT_EQ(hashTransactionLog(H1.txn(1)) + hashTransactionLog(H1.txn(2)),
            hashTransactionLog(H2.txn(1)) + hashTransactionLog(H2.txn(2)));
  EXPECT_NE(H1.hashIgnoringOrder(), H2.hashIgnoringOrder());

  // The property the hash exists for survives the fix: block order is
  // still ignored.
  History H1Swapped = History::makeInitial(1);
  H1Swapped.appendLog(writeLog(U1, SameSign ? *Vb : *Vb + 1));
  H1Swapped.appendLog(writeLog(U0, *Va + 1));
  EXPECT_EQ(H1.hashIgnoringOrder(), H1Swapped.hashIgnoringOrder());
}

// The previous std::hash<EventRef> was packed() * 1000003u + Pos: for
// session 0 with small transaction indices the result never exceeded
// ~2^30, leaving the entire upper half of the hash constant — every
// power-of-two hash table degenerated to its low buckets. The mixed hash
// must spread session-0 refs across the full 64-bit range and stay
// collision-free on a realistic grid.
TEST(EventRefHashTest, Spreads64Bits) {
  std::hash<EventRef> Hash;
  std::set<size_t> Values;
  std::set<uint8_t> TopBytes;
  for (uint32_t Index = 0; Index != 1000; ++Index)
    for (uint32_t Pos = 0; Pos != 10; ++Pos) {
      size_t H = Hash(EventRef{uid(0, Index), Pos});
      Values.insert(H);
      TopBytes.insert(static_cast<uint8_t>(H >> 56));
    }
  EXPECT_EQ(Values.size(), 10000u) << "collision on a 1000x10 grid";
  // The old hash pinned the top byte to 0 for this entire grid.
  EXPECT_GT(TopBytes.size(), 64u) << "upper bits not mixed";
}

//===----------------------------------------------------------------------===//
// Fingerprint properties.
//===----------------------------------------------------------------------===//

// Renaming the (structurally identical) sessions of an output history is
// invisible to the fingerprint, even though it changes the history.
TEST(DedupFingerprintTest, SessionRenamingInvariance) {
  Program P = identicalProgram(3, 2, /*Seed=*/5);
  DedupTable Symmetry(
      P, LevelAssignment::uniform(IsolationLevel::CausalConsistency));
  ASSERT_TRUE(Symmetry.symmetric());

  EnumerationResult Run = enumerateHistories(
      P, ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency));
  ASSERT_FALSE(Run.Histories.empty());

  // All 3-session permutations, identity first.
  const std::vector<std::vector<uint32_t>> Pis = {
      {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  unsigned KeyDiffers = 0;
  for (const History &H : Run.Histories) {
    CursorMap Cursors = replayAllCursors(P, H);
    Fingerprint Base = Symmetry.itemFingerprint(H, Cursors);
    for (const auto &Pi : Pis) {
      History R = renameSessions(H, Pi);
      CursorMap RCursors = replayAllCursors(P, R);
      EXPECT_EQ(Symmetry.itemFingerprint(R, RCursors), Base)
          << "symmetry fingerprint not renaming-invariant";
      if (R.canonicalKey() != H.canonicalKey())
        ++KeyDiffers;
    }
  }
  // The renamings are not trivial: most of them yield a different
  // history (identity permutations and self-symmetric histories
  // legitimately coincide, so assert in bulk).
  EXPECT_GT(KeyDiffers, Run.Histories.size())
      << "renamings left the histories unchanged";
}

//===----------------------------------------------------------------------===//
// Dedup-on vs dedup-off exploration equivalence.
//===----------------------------------------------------------------------===//

namespace {

bool hasViolation(const std::vector<History> &Hs, IsolationLevel L) {
  for (const History &H : Hs)
    if (!isConsistent(H, L))
      return true;
  return false;
}

} // namespace

// The verdict grid of the oracle leg, run deterministically: symmetry
// emits a sub-multiset with identical per-level violation verdicts, on
// the symmetric workload the reduction strictly bites, on the asymmetric
// one no table is built, and on partly symmetric programs (uniform and
// mixed bases) the table is built and probed.
TEST(DedupEquivalenceTest, VerdictGridMatchesReference) {
  const IsolationLevel Verdicts[] = {
      IsolationLevel::ReadCommitted, IsolationLevel::CausalConsistency,
      IsolationLevel::SnapshotIsolation, IsolationLevel::Serializability};
  // Runs \p P with and without dedup under \p Off and checks the
  // sub-multiset and verdict contract; returns the dedup run.
  auto CheckAgainstReference = [&](const std::string &Label,
                                   const Program &P,
                                   const ExplorerConfig &Off,
                                   EnumerationResult &Ref) {
    Ref = enumerateHistories(P, Off);
    auto RefKeys = countByCanonicalKey(Ref.Histories);

    ExplorerConfig SymCfg = Off;
    SymCfg.Dedup = true;
    EnumerationResult Sym = enumerateHistories(P, SymCfg);
    for (const auto &[Key, N] : countByCanonicalKey(Sym.Histories)) {
      auto It = RefKeys.find(Key);
      EXPECT_TRUE(It != RefKeys.end() && It->second >= N)
          << Label << ": symmetry emitted a history outside the reference "
          << "set";
    }
    for (IsolationLevel L : Verdicts)
      EXPECT_EQ(hasViolation(Sym.Histories, L),
                hasViolation(Ref.Histories, L))
          << Label << ": verdict at " << isolationLevelName(L)
          << " diverged";
    return Sym;
  };

  for (uint64_t Seed = 1; Seed != 3; ++Seed) {
    for (AppKind App : {AppKind::IdenticalSessions, AppKind::Courseware}) {
      for (IsolationLevel Base : {IsolationLevel::ReadCommitted,
                                  IsolationLevel::CausalConsistency}) {
        ClientSpec Spec;
        Spec.Sessions = 3;
        Spec.TxnsPerSession = 2;
        Spec.Seed = Seed;
        Program P = makeClientProgram(App, Spec);
        std::string Label = std::string(appName(App)) + " seed " +
                            std::to_string(Seed) + " base " +
                            isolationLevelName(Base);
        EnumerationResult Ref;
        EnumerationResult Sym = CheckAgainstReference(
            Label, P, ExplorerConfig::exploreCE(Base), Ref);

        if (App == AppKind::IdenticalSessions) {
          EXPECT_LT(Sym.Histories.size(), Ref.Histories.size())
              << Label << ": symmetry failed to bite on the symmetric "
              << "workload";
          EXPECT_GT(Sym.Stats.DedupSkips, 0u) << Label;
        } else {
          // Structurally distinct sessions: every session is its own
          // class, so no table is built and nothing changes.
          EXPECT_EQ(Sym.Stats.DedupChecks, 0u) << Label;
          EXPECT_EQ(countByCanonicalKey(Sym.Histories),
                    countByCanonicalKey(Ref.Histories))
              << Label << ": symmetry perturbed an asymmetric workload";
        }
      }
    }

    // One two-session class next to a singleton, under a uniform base and
    // under a mix that makes the singleton weaker (sessions 0 and 2 still
    // share a class): the table is built and every probe goes through
    // the renaming.
    Program P = partlySymmetricProgram(Seed);
    LevelAssignment Mix(IsolationLevel::CausalConsistency);
    Mix.set(1, IsolationLevel::ReadCommitted);
    for (const ExplorerConfig &Off :
         {ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency),
          ExplorerConfig::exploreCEMixed(Mix)}) {
      std::string Label = "partly symmetric seed " + std::to_string(Seed) +
                          " base " + Off.algorithmName();
      EnumerationResult Ref;
      EnumerationResult Sym = CheckAgainstReference(Label, P, Off, Ref);
      EXPECT_GT(Sym.Stats.DedupChecks, 0u) << Label;
    }
  }
}

// Without a two-session structural class every renaming is the identity
// and explore-ce never reaches an item twice, so no probe could hit: the
// engine builds no table and the run is the dedup-off run, output
// sequence and statistics alike.
TEST(DedupGatingTest, AsymmetricProgramBuildsNoTable) {
  for (AppKind App : {AppKind::Courseware, AppKind::Tpcc}) {
    ClientSpec Spec;
    Spec.Sessions = 3;
    Spec.TxnsPerSession = 2;
    Spec.Seed = 1;
    Program P = makeClientProgram(App, Spec);
    LevelAssignment Levels =
        LevelAssignment::uniform(IsolationLevel::CausalConsistency);
    ASSERT_FALSE(DedupTable(P, Levels).symmetric()) << appName(App);

    ExplorerConfig Off =
        ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency);
    ExplorerConfig On = Off;
    On.Dedup = true;
    EnumerationResult RefRun = enumerateHistories(P, Off);
    EnumerationResult Run = enumerateHistories(P, On);
    EXPECT_EQ(Run.Stats.DedupChecks, 0u) << appName(App);
    EXPECT_EQ(Run.Stats.ExploreCalls, RefRun.Stats.ExploreCalls);
    ASSERT_EQ(Run.Histories.size(), RefRun.Histories.size());
    for (size_t I = 0; I != Run.Histories.size(); ++I)
      EXPECT_EQ(Run.Histories[I].str(), RefRun.Histories[I].str())
          << appName(App) << " output " << I;
  }
}

// Eviction soundness: a bounded table only ever *forgets* fingerprints,
// so an evicted subtree is re-explored — never wrongly skipped. Every
// output of a bounded run must come from the reference set with
// unchanged violation verdicts, and a tiny cap must actually evict.
TEST(DedupEvictionTest, BoundedTableOnlyReExplores) {
  Program P = identicalProgram(3, 2, /*Seed=*/1);
  ExplorerConfig Off =
      ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency);
  EnumerationResult Ref = enumerateHistories(P, Off);
  auto RefKeys = countByCanonicalKey(Ref.Histories);

  ExplorerConfig Sym = Off;
  Sym.Dedup = true;
  EnumerationResult Unbounded = enumerateHistories(P, Sym);

  for (uint64_t Cap : {8u, 64u, 4096u}) {
    ExplorerConfig Bounded = Sym;
    Bounded.DedupMaxEntries = Cap;
    EnumerationResult Run = enumerateHistories(P, Bounded);
    // Forgetting can only grow the output back toward the reference.
    EXPECT_GE(Run.Histories.size(), Unbounded.Histories.size())
        << "cap " << Cap;
    EXPECT_LE(Run.Histories.size(), Ref.Histories.size()) << "cap " << Cap;
    for (const auto &[Key, N] : countByCanonicalKey(Run.Histories)) {
      auto It = RefKeys.find(Key);
      ASSERT_TRUE(It != RefKeys.end() && It->second >= N)
          << "cap " << Cap
          << ": bounded run emitted a history outside the reference set";
    }
    for (IsolationLevel L : {IsolationLevel::CausalConsistency,
                             IsolationLevel::Serializability})
      EXPECT_EQ(hasViolation(Run.Histories, L),
                hasViolation(Ref.Histories, L))
          << "cap " << Cap << ": verdict at " << isolationLevelName(L)
          << " diverged";
    if (Cap == 8) {
      EXPECT_GT(Run.Stats.DedupEvictions, 0u)
          << "a cap of 8 must evict on this workload";
    }
    // An ample cap behaves exactly like the unbounded table.
    if (Cap == 4096) {
      EXPECT_EQ(Run.Stats.DedupEvictions, 0u);
      EXPECT_EQ(countByCanonicalKey(Run.Histories),
                countByCanonicalKey(Unbounded.Histories));
    }
  }
}

// Concurrent eviction: workers race insertIfNew probes against CLOCK
// sweeps on the shared sharded table. Soundness must survive any
// interleaving (this fixture runs under TSan in CI).
TEST(DedupEvictionTest, ConcurrentBoundedTableStaysSound) {
  Program P = identicalProgram(3, 2, /*Seed=*/1);
  ExplorerConfig Off =
      ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency);
  EnumerationResult Ref = enumerateHistories(P, Off);
  auto RefKeys = countByCanonicalKey(Ref.Histories);

  for (unsigned Threads : {2u, 4u}) {
    ExplorerConfig Par = Off;
    Par.Threads = Threads;
    Par.Dedup = true;
    Par.DedupMaxEntries = 32;
    std::vector<History> Out;
    ParallelExplorer E(P, Par);
    ExplorerStats Stats = E.run([&](const History &H) { Out.push_back(H); });
    for (const auto &[Key, N] : countByCanonicalKey(Out)) {
      auto It = RefKeys.find(Key);
      ASSERT_TRUE(It != RefKeys.end() && It->second >= N)
          << Threads
          << " threads: bounded symmetry output outside the reference";
    }
    EXPECT_EQ(hasViolation(Out, IsolationLevel::Serializability),
              hasViolation(Ref.Histories, IsolationLevel::Serializability))
        << Threads << " threads";
    EXPECT_GT(Stats.DedupEvictions, 0u)
        << Threads << " threads: a cap of 32 must evict here";
  }
}

// Thread-count invariance of the shared sharded table: every parallel
// output is in the reference set and the verdicts agree (parallel work
// order may change *which* isomorphic representative survives, but never
// soundness).
TEST(DedupEquivalenceTest, ParallelSharedTableStaysSound) {
  Program P = identicalProgram(3, 2, /*Seed=*/1);
  ExplorerConfig Off =
      ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency);
  EnumerationResult Ref = enumerateHistories(P, Off);
  auto RefKeys = countByCanonicalKey(Ref.Histories);

  for (unsigned Threads : {2u, 4u}) {
    ExplorerConfig Par = Off;
    Par.Threads = Threads;
    Par.Dedup = true;
    std::vector<History> Out;
    ParallelExplorer E(P, Par);
    E.run([&](const History &H) { Out.push_back(H); });
    EXPECT_LE(Out.size(), Ref.Histories.size());
    for (const auto &[Key, N] : countByCanonicalKey(Out)) {
      auto It = RefKeys.find(Key);
      ASSERT_TRUE(It != RefKeys.end() && It->second >= N)
          << Threads << " threads: symmetry output outside the reference set";
    }
    EXPECT_EQ(hasViolation(Out, IsolationLevel::Serializability),
              hasViolation(Ref.Histories, IsolationLevel::Serializability));
  }
}
