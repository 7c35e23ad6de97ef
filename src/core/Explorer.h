//===- core/Explorer.h - The swapping-based SMC algorithms (§4–§6) --------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sequential driver of the explore-ce / explore-ce* algorithms
/// (Algorithm 1 instantiated per §5 and §6):
///
///   * Next (§5.1) schedules deterministically along a fixed oracle order,
///     always completing the (unique) pending transaction first;
///   * read events branch over ValidWrites — the committed writers whose
///     wr choice keeps the history BaseLevel-consistent;
///   * after each commit, the engine emits swap children re-ordering the
///     just-committed transaction before earlier reads (ComputeReorderings
///     + Swap, §5.2), gated by the Optimality condition (§5.3);
///   * complete histories pass through the Valid filter (§6): none for
///     explore-ce, a FilterLevel consistency check for explore-ce*.
///
/// The per-node expansion lives in ExplorationEngine (core/Engine.h) and
/// is shared with the parallel driver (parallel/ParallelExplorer.h); this
/// class walks the tree with the explicit-stack worklist of §7.1
/// (drainDepthFirst), popping nodes in exactly the recursive visit order
/// (pinned against the recursive reference walk, enumerateRecursively in
/// core/Enumerate.h, by the test suite), with no C++ stack-depth limit.
/// Like the paper's worklist tool, a node's children are materialized
/// together before descending, so peak live memory is O(depth ×
/// branching) histories — still polynomial (Thm. 5.1's bound is
/// per-history anyway).
///
/// For BaseLevel ∈ {true, RC, RA, CC} the exploration is sound, complete,
/// strongly optimal and polynomial space (Theorem 5.1); with a FilterLevel
/// ∈ {SI, SER} it is sound, complete and (plain) optimal (Corollary 6.2).
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_CORE_EXPLORER_H
#define TXDPOR_CORE_EXPLORER_H

#include "core/Engine.h"
#include "core/ExplorerConfig.h"
#include "program/Program.h"

namespace txdpor {

/// One sequential exploration run over a program. Construct, then call
/// run() once.
class Explorer {
public:
  Explorer(const Program &Prog, ExplorerConfig Config);

  /// Explores the program; \p Visit receives every output history (after
  /// the Valid filter). Returns the collected statistics.
  ExplorerStats run(const HistoryVisitor &Visit = {});

private:
  ExplorationEngine Engine;
};

/// Convenience entry point: runs a sequential exploration and returns its
/// stats.
ExplorerStats exploreProgram(const Program &Prog, ExplorerConfig Config,
                             const HistoryVisitor &Visit = {});

} // namespace txdpor

#endif // TXDPOR_CORE_EXPLORER_H
