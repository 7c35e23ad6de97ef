//===- core/ExplorerConfig.h - Exploration options and statistics ---------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration and statistics shared by the swapping-based explorer and
/// the baseline DFS. A configuration chooses one of the paper's algorithm
/// instances:
///
///   * explore-ce(I0)          — BaseLevel = I0, no FilterLevel (§5);
///   * explore-ce*(I0, I)      — BaseLevel = I0, FilterLevel = I (§6);
///   * explore-ce(assignment)  — BaseLevels pins sessions to their own
///     base levels (mixed-isolation semantics, arXiv 2505.18409);
///
/// plus ablation knobs that disable the individual §5.3 optimality
/// mechanisms (used by bench_ablation to quantify what each buys).
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_CORE_EXPLORERCONFIG_H
#define TXDPOR_CORE_EXPLORERCONFIG_H

#include "consistency/IsolationLevel.h"
#include "history/History.h"
#include "support/Deadline.h"

#include <cstdint>
#include <functional>
#include <optional>

namespace txdpor {

/// Options of one exploration run.
struct ExplorerConfig {
  /// I0: the prefix-closed, causally-extensible level driving ValidWrites
  /// and the swap machinery. Must be one of true / RC / RA / CC (§5, §6).
  IsolationLevel BaseLevel = IsolationLevel::CausalConsistency;

  /// Per-session base levels. ValidWrites and the swap machinery judge
  /// every consistency question at the *reading session's* level, so a
  /// mixed assignment opens exactly the extra wr choices its weaker
  /// sessions admit. Every named level must be prefix-closed and causally
  /// extensible (true/RC/RA/CC, asserted like BaseLevel) — such mixes
  /// keep Theorem 5.1 (docs/ARCHITECTURE.md, "Per-session isolation
  /// levels").
  ///
  /// Resolution against the program (ExplorationEngine): an assignment
  /// with explicit entries here wins; otherwise a program-declared
  /// assignment (Program::levels) wins; otherwise every session runs at
  /// BaseLevel. A resolved assignment whose sessions all agree collapses
  /// to the classic single-level path, so uniform runs are bit-identical
  /// to pre-assignment builds.
  LevelAssignment BaseLevels;

  /// I: the level of the final Valid filter (§6). Unset means
  /// Valid(h) = true, i.e. plain explore-ce(BaseLevel).
  std::optional<IsolationLevel> FilterLevel;

  /// Wall-clock budget; expired explorations report TimedOut.
  Deadline TimeBudget;

  /// §5.3 ablations: disable the "already swapped" restriction
  /// (Fig. 13 mechanism) or the readLatest restriction (Fig. 12
  /// mechanism). Disabling either loses optimality (duplicate histories);
  /// the algorithm remains sound and complete.
  bool CheckSwapped = true;
  bool CheckReadLatest = true;

  /// Safety valve for ablations and huge programs: stop after this many
  /// end states (0 = unlimited).
  uint64_t MaxEndStates = 0;

  /// Debug hook: called with every ordered history the exploration
  /// visits (at explore() entry, i.e. including partial histories). Used
  /// by the test suite to assert the Appendix E invariants dynamically.
  std::function<void(const History &)> OnExplore;

  /// Worker threads of the parallel driver (parallel/ParallelExplorer.h).
  /// 0 or 1 means sequential; the sequential Explorer ignores this. The
  /// output history set is identical for every value (the exploration tree
  /// is fixed; threads only partition its subtrees).
  unsigned Threads = 1;

  /// Frontier sizing for the parallel driver: the breadth-first split
  /// phase keeps expanding until at least SplitFactor × Threads
  /// independent subtrees are available for the workers. Larger values
  /// smooth out imbalanced subtrees at the cost of a longer sequential
  /// phase.
  unsigned SplitFactor = 4;

  /// Depth bound for the split phase (0 = unbounded): items at this depth
  /// or deeper are handed to the workers unsplit even if the frontier is
  /// still below target. Guards against degenerate, mostly-linear trees
  /// where breadth-first splitting would just replay the whole run.
  unsigned SplitDepth = 0;

  /// Order in which Next starts transactions when none is pending (§5.1's
  /// oracle order). Empty means the default: sessions ascending, within a
  /// session by position. A custom order must list every transaction of
  /// the program exactly once and be consistent with session order; the
  /// algorithm's output set is invariant under the choice (completeness
  /// is scheduler-independent), only the exploration order changes.
  std::vector<TxnUid> OracleOrderOverride;

  /// Session-symmetry subtree dedup (core/Dedup.h): skip WorkItems whose
  /// fingerprint, with session ids canonicalized modulo renaming within
  /// structural session classes, has already been expanded. The output
  /// set may lose renaming-isomorphic histories; per-level violation
  /// verdicts are preserved. explore-ce never reaches one item twice
  /// (strong optimality, with the §5.3 restrictions on), so only a
  /// renaming can ever hit: the engine
  /// builds its table (one per run, shared by every driver) only when
  /// some structural class holds two or more sessions, and otherwise
  /// runs the dedup-off path and reports 0 checks. Off by default.
  bool Dedup = false;

  /// Memo-table bound for the dedup table: 0 (the default) memoizes every
  /// fingerprint forever — byte-identical to pre-bound builds; a positive
  /// value caps the table at roughly that many entries with per-shard
  /// CLOCK eviction. Eviction trades skips for memory: an evicted subtree
  /// is re-explored (and re-skippable later), never wrongly skipped.
  uint64_t DedupMaxEntries = 0;

  /// Returns the paper's name for this configuration, e.g. "CC",
  /// "CC + SER", "true + CC".
  std::string algorithmName() const;

  static ExplorerConfig exploreCE(IsolationLevel Base) {
    ExplorerConfig C;
    C.BaseLevel = Base;
    return C;
  }
  static ExplorerConfig exploreCEStar(IsolationLevel Base,
                                      IsolationLevel Filter) {
    ExplorerConfig C;
    C.BaseLevel = Base;
    C.FilterLevel = Filter;
    return C;
  }
  /// explore-ce with a per-session base assignment.
  static ExplorerConfig exploreCEMixed(LevelAssignment Levels) {
    ExplorerConfig C;
    C.BaseLevel = Levels.defaultLevel();
    C.BaseLevels = std::move(Levels);
    return C;
  }
};

/// Counters reported by every exploration (the paper reports time, memory
/// and end states; the rest diagnoses optimality properties in tests).
struct ExplorerStats {
  uint64_t ExploreCalls = 0;   ///< Recursive explore invocations.
  uint64_t EndStates = 0;      ///< Complete executions (before Valid).
  uint64_t Outputs = 0;        ///< Histories passing the Valid filter.
  uint64_t EventsAdded = 0;    ///< Events appended across all branches.
  uint64_t ReadBranches = 0;   ///< wr choices explored.
  uint64_t BlockedReads = 0;   ///< Reads with no valid write (must be 0
                               ///< for causally-extensible BaseLevel).
  uint64_t SwapsConsidered = 0;
  uint64_t SwapsApplied = 0;
  uint64_t ConsistencyChecks = 0;
  uint64_t MaxDepth = 0;
  /// Parallel-driver observability (zero for sequential runs): successful
  /// and failed steal sweeps (a failed sweep = one full pass over every
  /// sibling queue without finding work), idle parks (sleeps after the
  /// yield budget is spent), and the frontier size the split phase handed
  /// to the workers.
  uint64_t StealSuccesses = 0;
  uint64_t StealFailures = 0;
  uint64_t IdleParks = 0;
  uint64_t FrontierItems = 0;
  /// Subtree-dedup observability (zero when no dedup table was built):
  /// fingerprint probes performed and subtrees skipped as already explored.
  uint64_t DedupChecks = 0;
  uint64_t DedupSkips = 0;
  /// CLOCK victims evicted from a bounded dedup table (0 when unbounded).
  uint64_t DedupEvictions = 0;
  bool TimedOut = false;
  bool HitEndStateCap = false;
  double ElapsedMillis = 0;
  uint64_t PeakRssKb = 0;

  /// Accumulates \p Other into this: counters add up, MaxDepth/PeakRssKb
  /// take the maximum, the flags OR. ElapsedMillis *adds* (aggregate work
  /// time); drivers that merge concurrent workers overwrite it with the
  /// wall-clock afterwards. The single aggregation routine shared by the
  /// parallel explorer and the bench harnesses.
  void merge(const ExplorerStats &Other);
};

/// Callback receiving every output history.
using HistoryVisitor = std::function<void(const History &)>;

} // namespace txdpor

#endif // TXDPOR_CORE_EXPLORERCONFIG_H
