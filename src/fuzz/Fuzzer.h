//===- fuzz/Fuzzer.h - The differential fuzzing driver --------------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end fuzz loop behind `txdpor-cli fuzz`: generate a seeded
/// case (a random program run through every explorer, or a raw random
/// history run through every checker), ask the DifferentialOracle for
/// disagreements, delta-debug any disagreement down to a minimal repro
/// (fuzz/Minimizer.h) and emit it as a self-contained litmus file
/// (fuzz/Repro.h).
///
/// Determinism: case K draws from its own substream
/// Rng(Rng::deriveSeed(Seed, K)), so a single `--seed S --iters N` pair
/// pins the whole run bit-for-bit — same cases, same disagreements, same
/// repro files — and any failing case replays in isolation from the
/// (seed, case) pair printed in the log.
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_FUZZ_FUZZER_H
#define TXDPOR_FUZZ_FUZZER_H

#include "fuzz/DifferentialOracle.h"
#include "fuzz/ProgramGenerator.h"
#include "fuzz/Repro.h"

#include <iosfwd>
#include <string>
#include <vector>

namespace txdpor {
namespace fuzz {

/// Options of one fuzz run (the CLI flags map onto these 1:1).
struct FuzzOptions {
  uint64_t Seed = 1;
  uint64_t Iterations = 1000;
  /// Wall-clock cutoff in milliseconds; 0 = run all iterations.
  int64_t TimeBudgetMs = 0;
  /// Program shape preset (programShapeByName). A non-empty name wins
  /// over Shape; clear it ("") to fuzz an explicit custom Shape.
  std::string ShapeName = "default";
  /// Explicit shape; consulted only when ShapeName is empty.
  ProgramShape Shape;
  /// Share (percent) of cases that are raw random histories exercising
  /// only the checker/witness cross-checks; the rest are programs run
  /// through the full explorer diff.
  unsigned HistoryCasePercent = 50;
  /// Pins every program case to this per-session isolation-level mix
  /// (CLI `fuzz --levels`), overriding any shape-sampled mix. The program
  /// draw itself is untouched, so a run differs from its unpinned twin
  /// only in the oracle's level sweep and mixed-semantics legs.
  std::vector<IsolationLevel> ForcedSessionLevels;
  /// Delta-debug disagreements to a minimal repro before reporting.
  bool Minimize = true;
  /// Directory for repro litmus files; empty = do not write files.
  std::string OutDir;
  /// Stop after this many disagreeing cases (0 = never stop early).
  uint64_t MaxDisagreements = 16;
  /// Test-only checker weakening (see DifferentialOracle.h).
  CheckerMutation Mutation = CheckerMutation::None;
  /// Oracle knobs (Mutation above is copied over it).
  OracleConfig Oracle;
  /// Progress/disagreement log; null = silent.
  std::ostream *Log = nullptr;
};

/// Result of one fuzz run.
struct FuzzReport {
  uint64_t Cases = 0;
  uint64_t ProgramCases = 0;
  uint64_t HistoryCases = 0;
  /// Program cases whose symmetry-dedup oracle leg probed a table.
  uint64_t SymmetryLegCases = 0;
  /// Cases on which the oracle reported at least one disagreement.
  uint64_t DisagreeingCases = 0;
  /// Minimized first disagreement of every disagreeing case.
  std::vector<Repro> Repros;
  /// Litmus files written (one per repro; empty when OutDir is empty).
  std::vector<std::string> ReproFiles;
  bool TimedOut = false;
  double ElapsedMillis = 0;
};

/// Runs the fuzz loop. Deterministic for fixed (Seed, Iterations, shape,
/// mutation) as long as the time budget does not cut the run short.
FuzzReport runFuzz(const FuzzOptions &Options);

} // namespace fuzz
} // namespace txdpor

#endif // TXDPOR_FUZZ_FUZZER_H
