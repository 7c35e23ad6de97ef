//===- fuzz/DifferentialOracle.h - Cross-checking explorers and checkers --===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fuzzer's oracle: runs one generated workload through redundant
/// implementations that must agree, and reports every disagreement.
///
/// For a *program* the oracle diffs, per base level,
///
///   * the worklist (§7.1), recursive-reference and parallel explorers —
///     identical output sequences resp. canonical multisets (soundness/
///     completeness of each driver relative to the others) and no item
///     expanded or history emitted twice (strong optimality, Thm. 5.1);
///   * the session-symmetry dedup on a symmetrized copy of the program
///     against the dedup-off run of that copy;
///   * explore-ce*(CC, I) against the explore-ce(CC) set re-filtered by
///     the production checker of I (Cor. 6.2 plumbing).
///
/// For a *history* (an explorer output or a raw generated history) it
/// diffs, per isolation level, the production checker verdict
/// (SaturationChecker / SnapshotIsolationChecker / SerializabilityChecker)
/// against BruteForceChecker — the literal Def. 2.2 enumeration — and
/// validates the commit-order certificate of consistency/Witness.h. It
/// also serializes eligible histories to traces and re-checks them with
/// the windowed StreamingChecker at several budgets (the streaming leg).
///
/// CheckerMutation is a test-only hook that deliberately weakens an axiom
/// of the production side; the mutation-smoke test asserts the fuzzer
/// catches each mutation within a bounded seed budget (a live check that
/// the oracle has teeth). Production code never enables a mutation.
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_FUZZ_DIFFERENTIALORACLE_H
#define TXDPOR_FUZZ_DIFFERENTIALORACLE_H

#include "consistency/IsolationLevel.h"
#include "core/ExplorerConfig.h"
#include "history/History.h"
#include "program/Program.h"
#include "support/Deadline.h"

#include <optional>
#include <string>
#include <vector>

namespace txdpor {
namespace fuzz {

/// Test-only axiom weakenings injected into the production side of the
/// verdict cross-check (see mutatedIsConsistent).
enum class CheckerMutation : uint8_t {
  None,
  /// Decide CC with RA's axiom premise (so ∪ wr instead of its transitive
  /// closure) — drops the causal saturation step, admitting histories
  /// with two-hop causality violations.
  WeakCausalPremise,
  /// Decide RA with RC's event-granular premise — forgets that an RA
  /// read-set must be atomic across variables.
  WeakAtomicVisibility,
};

/// Parses "none" / "weak-cc" / "weak-ra".
std::optional<CheckerMutation> checkerMutationByName(const std::string &Name);
const char *checkerMutationName(CheckerMutation M);

/// The production-side verdict with \p M applied (the identity for
/// CheckerMutation::None).
bool mutatedIsConsistent(const History &H, IsolationLevel Level,
                         CheckerMutation M);

/// \p P (at least one session) with its last session's code replaced by a
/// copy of session 0's, a program-declared level included: sessions 0 and
/// N-1 then form a structural class, so the symmetry dedup has something
/// to rename. The input of the oracle's symmetry leg.
Program symmetrized(const Program &P);

/// One observed disagreement between redundant implementations.
struct Disagreement {
  enum class Kind : uint8_t {
    /// The recursive reference walk produced a different output sequence,
    /// or the parallel explorer a different canonical output multiset,
    /// than the worklist explorer.
    ExplorerSetMismatch,
    /// An explorer expanded the same item or emitted the same history
    /// twice (optimality breach).
    DuplicateOutput,
    /// explore-ce*(CC, I) disagrees with the re-filtered explore-ce(CC)
    /// set.
    StarFilterMismatch,
    /// Production checker verdict differs from the brute-force Def. 2.2
    /// reference on one history.
    CheckerVerdictMismatch,
    /// findCommitOrder disagrees with the reference verdict, or its
    /// certificate fails validateCommitOrder.
    WitnessMismatch,
    /// The incremental ConstraintState verdict differs from the scratch
    /// SaturationChecker / MixedSaturationChecker on one history — the
    /// leg that guards the carried-state optimization of the engine.
    IncrementalVerdictMismatch,
    /// The windowed streaming checker, fed the history serialized to a
    /// trace and re-parsed, differs from the full-history verdict at some
    /// window budget (stale-read refusals excepted) — the leg that
    /// guards eviction soundness/completeness and the trace round-trip.
    StreamingVerdictMismatch,
    /// A dedup-enabled exploration broke its contract against the
    /// dedup-off reference: it must emit a sub-multiset with identical
    /// per-level violation-existence verdicts — the leg that guards the
    /// subtree memoization of core/Dedup.h.
    DedupVerdictMismatch,
    /// An O(Δ) swap-child rebuild (copy the cached prefix state, replay
    /// only the changed blocks) is not equivalentTo the bulk-constructed
    /// ConstraintState of the same swapped history — the leg that guards
    /// the engine's incremental fan-out rebuild.
    IncrementalSwapStateMismatch,
  };

  Kind K = Kind::CheckerVerdictMismatch;
  IsolationLevel Level = IsolationLevel::CausalConsistency;
  /// Per-session base assignment of the mixed-semantics legs (explorer
  /// diffs and verdict cross-checks under a mixed base); empty for the
  /// classic uniform legs, where Level alone identifies the sweep point.
  std::vector<IsolationLevel> MixLevels;
  std::string Detail;
  /// The offending history for history-scoped kinds (verdict/witness and
  /// duplicate kinds); unset for whole-set mismatches.
  std::optional<History> Culprit;
  /// Verdicts for CheckerVerdictMismatch / WitnessMismatch.
  bool ProductionVerdict = false;
  bool ReferenceVerdict = false;
};

/// Stable kebab-case name used in repro files and log lines.
const char *disagreementKindName(Disagreement::Kind K);
std::optional<Disagreement::Kind>
disagreementKindByName(const std::string &Name);

/// Knobs of one oracle instance.
struct OracleConfig {
  /// Base levels of the explorer diff (must be causally extensible).
  std::vector<IsolationLevel> BaseLevels = {
      IsolationLevel::ReadCommitted, IsolationLevel::ReadAtomic,
      IsolationLevel::CausalConsistency};
  /// Levels of the per-history verdict cross-check.
  std::vector<IsolationLevel> VerdictLevels = {
      IsolationLevel::ReadCommitted, IsolationLevel::ReadAtomic,
      IsolationLevel::CausalConsistency, IsolationLevel::SnapshotIsolation,
      IsolationLevel::Serializability};
  /// The optimality and driver legs, for uniform and mixed bases alike.
  bool DiffExplorers = true;
  bool DiffStarFilters = true;
  bool CrossCheckVerdicts = true;
  bool ValidateWitnesses = true;
  /// Diff the incremental ConstraintState (the engine's carried commit
  /// test) against the scratch saturation checkers on every checked
  /// history that satisfies the ordered-history discipline the state
  /// requires. Deliberately *not* subject to Mutation: this leg guards
  /// the incremental/scratch equivalence itself, continuously, in the
  /// nightly soak.
  bool CrossCheckIncremental = true;
  /// Mixed-semantics legs for cases carrying a per-session level mix:
  /// run the explorers with the mix as the *base assignment* (per-session
  /// ValidWrites), run the explorer legs under it, and cross-check every
  /// mixed output's MixedSaturationChecker verdict against
  /// BruteForceChecker(assignment) — the Def. 2.2 reference with
  /// per-transaction commit tests. Sampled levels outside the
  /// causally-extensible chain are clamped to CC first (SI/SER cannot
  /// drive ValidWrites), identically on both sides of the cross-check.
  bool DiffMixedSemantics = true;
  /// Serialize every checked history to a jsonl trace, re-parse it and
  /// stream it through StreamingChecker at each StreamingWindows budget,
  /// diffing the verdict against the full-history production verdict
  /// (which a CheckerMutation weakens — so the mutation smoke also has
  /// streaming teeth). Stale-read refusals are legitimate under a small
  /// budget and skip the comparison; malformed rejections of a
  /// round-tripped trace always count as disagreements.
  bool DiffStreaming = true;
  /// Per in-budget base, run a symmetrized copy of the program (last
  /// session's code replaced by session 0's, so a two-session class
  /// exists) with --dedup=symmetry and diff it against the dedup-off run
  /// of the copy (sub-multiset plus per-level violation-existence
  /// equality). Like CrossCheckIncremental, deliberately *not* subject to
  /// Mutation: the leg guards the dedup/reference equivalence itself.
  bool DiffDedup = true;
  /// Window budgets of the streaming leg (0 = never evict).
  std::vector<unsigned> StreamingWindows = {0, 4, 8};
  /// At most this many explorer outputs per program case go through the
  /// streaming leg (direct history cases always do). Serializing and
  /// re-streaming all 256 outputs of a large case at every budget would
  /// dominate the minimizer, which re-runs the oracle per shrink
  /// candidate. 0 = unlimited.
  unsigned MaxStreamedHistoriesPerCase = 4;
  /// Worker threads of the parallel leg (<= 1 skips it).
  unsigned Threads = 2;
  /// A base level whose output set exceeds this is skipped (its explorer
  /// diff would be unaffordable); when the CC set itself is oversized,
  /// the star-filter and per-history checks are skipped with it.
  /// 0 = unlimited.
  uint64_t MaxHistoriesPerCase = 256;
  /// Histories with more transactions than this skip the brute-force
  /// cross-check (the reference enumerates commit orders).
  unsigned MaxBruteForceTxns = 9;
  /// Test-only axiom weakening of the production side.
  CheckerMutation Mutation = CheckerMutation::None;
};

/// Stateless differential oracle over one configuration.
class DifferentialOracle {
public:
  explicit DifferentialOracle(OracleConfig Config)
      : Config(std::move(Config)) {}

  const OracleConfig &config() const { return Config; }

  /// Cross-checks every implementation pair on \p P. A non-empty
  /// \p SessionLevels (a generated per-session isolation-level mix)
  /// narrows the sweep to the levels it names. \p SymmetryLegRuns, when
  /// given, is bumped once per symmetry-dedup leg that probed its table.
  std::vector<Disagreement>
  checkProgram(const Program &P,
               const std::vector<IsolationLevel> &SessionLevels = {},
               uint64_t *SymmetryLegRuns = nullptr) const;

  /// Cross-checks the consistency checkers and witness machinery on one
  /// history.
  std::vector<Disagreement> checkHistory(const History &H) const;

private:
  /// \p Stream gates the streaming leg for this history (checkProgram
  /// caps how many outputs per case pay for it).
  void checkOneHistory(const History &H,
                       const std::vector<IsolationLevel> &Levels,
                       std::vector<Disagreement> &Out,
                       bool Stream = true) const;
  void checkMixedSemantics(const Program &P,
                           const std::vector<IsolationLevel> &SessionLevels,
                           std::vector<Disagreement> &Out,
                           uint64_t *SymmetryLegRuns) const;
  /// The explorer legs shared by the uniform and mixed sweeps, under
  /// \p RefConfig (named \p Label in details; every disagreement copies
  /// \p Proto's level fields): no repeated item or output, the recursive
  /// and parallel driver diffs (DiffExplorers), and the symmetry-dedup
  /// leg (DiffDedup) with violation verdicts at \p Verdicts. Returns the
  /// reference outputs, or nothing when they exceed MaxHistoriesPerCase
  /// (every leg is then skipped).
  std::optional<std::vector<History>>
  diffExplorers(const Program &P, ExplorerConfig RefConfig,
                const std::string &Label, const Disagreement &Proto,
                const std::vector<IsolationLevel> &Verdicts,
                std::vector<Disagreement> &Out,
                uint64_t *SymmetryLegRuns) const;

  OracleConfig Config;
};

} // namespace fuzz
} // namespace txdpor

#endif // TXDPOR_FUZZ_DIFFERENTIALORACLE_H
