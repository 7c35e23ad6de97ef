//===- parallel/ParallelExplorer.h - Work-sharded exploration driver ------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel exploration driver. Every worklist entry of the iterative
/// formulation (§7.1) roots an *independent* subtree — expanding an item
/// reads only the item and the immutable program/engine — so the
/// exploration forest can be partitioned across threads without any
/// algorithmic change:
///
///   1. **Split.** Run the engine breadth-first from the root until the
///      frontier holds at least SplitFactor × Threads items (or the tree
///      or SplitDepth is exhausted). This phase is sequential and visits
///      each expanded node exactly once, like any other driver.
///   2. **Shard.** Deal the frontier round-robin onto one work-stealing
///      deque per worker (parallel/WorkQueue.h).
///   3. **Expand.** Each worker runs the sequential depth-first expansion
///      on its deque — owner-LIFO, thief-FIFO — with thread-local
///      ExplorerStats, a thread-local deadline, and a mutex-guarded
///      wrapper around the user visitor.
///   4. **Merge.** Per-worker statistics fold into the split-phase stats
///      via ExplorerStats::merge; ElapsedMillis is the wall clock.
///
/// Determinism: the exploration tree is a pure function of (program,
/// config), so for any thread count the union of visited nodes — and
/// hence the *set* of output histories and every aggregate counter except
/// ElapsedMillis/PeakRssKb — is identical to the sequential Explorer
/// (asserted by tests/parallel_explorer_test.cpp). Only the *order* in
/// which the visitor observes histories varies. Under a TimeBudget or
/// MaxEndStates cap the run is cut short cooperatively and which subset
/// was visited becomes schedule-dependent, exactly as wall-clock timeouts
/// already are sequentially.
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_PARALLEL_PARALLELEXPLORER_H
#define TXDPOR_PARALLEL_PARALLELEXPLORER_H

#include "core/Engine.h"
#include "core/ExplorerConfig.h"
#include "program/Program.h"

namespace txdpor {

/// One parallel exploration run over a program. Construct, then call
/// run() once. With Config.Threads <= 1 this is exactly the sequential
/// Explorer (the same drainDepthFirst walk).
class ParallelExplorer {
public:
  ParallelExplorer(const Program &Prog, ExplorerConfig Config);

  /// Explores the program; \p Visit receives every output history (after
  /// the Valid filter), serialized by an internal mutex — it may be
  /// invoked from any worker thread, but never concurrently. Returns the
  /// merged statistics.
  ExplorerStats run(const HistoryVisitor &Visit = {});

private:
  ExplorationEngine Engine;
};

/// Convenience entry point mirroring exploreProgram(): runs a parallel
/// exploration (Config.Threads workers) and returns its merged stats.
ExplorerStats exploreProgramParallel(const Program &Prog,
                                     ExplorerConfig Config,
                                     const HistoryVisitor &Visit = {});

} // namespace txdpor

#endif // TXDPOR_PARALLEL_PARALLELEXPLORER_H
