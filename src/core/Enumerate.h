//===- core/Enumerate.h - Enumeration and assertion-checking helpers ------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// High-level entry points on top of the explorer: collecting the full set
/// of histories of a program under an isolation level, and checking
/// user-defined assertions over final local states (the paper's intended
/// use of SMC: "check for user-defined assertions", §8). An assertion sees
/// the final local-variable valuation of every transaction of an output
/// history; the explorer stops at the first violating history and returns
/// it as a witness.
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_CORE_ENUMERATE_H
#define TXDPOR_CORE_ENUMERATE_H

#include "core/Explorer.h"
#include "core/NaiveDfs.h"
#include "semantics/Executor.h"

#include <map>
#include <vector>

namespace txdpor {

/// All output histories of a run plus its statistics.
struct EnumerationResult {
  std::vector<History> Histories;
  ExplorerStats Stats;
};

/// Runs the swapping-based explorer and collects every output history.
EnumerationResult enumerateHistories(const Program &Prog,
                                     ExplorerConfig Config);

/// Reference walk of the same exploration tree: plain recursion on the
/// C++ call stack instead of Explorer's explicit-stack worklist (§7.1).
/// Histories come back in visit order, so tests and the differential
/// oracle can pin the worklist's visit order and statistics against it.
/// Sequential; ignores Config.Threads.
EnumerationResult enumerateRecursively(const Program &Prog,
                                       ExplorerConfig Config);

/// Reference enumeration of hist_I(P): naive DFS with deduplication.
/// Ground truth for the completeness/optimality tests.
EnumerationResult enumerateReference(const Program &Prog,
                                     IsolationLevel Level,
                                     bool Unrestricted = false);

/// Returns the multiset of output histories keyed by canonical form; the
/// mapped value counts how often each history was produced (all 1 for an
/// optimal algorithm).
std::map<std::string, unsigned>
countByCanonicalKey(const std::vector<History> &Histories);

/// An application-level correctness property over one complete execution.
/// Returns true when the execution is acceptable.
using AssertionFn = std::function<bool(const FinalStates &)>;

/// Outcome of assertion checking.
struct AssertionResult {
  bool ViolationFound = false;
  History Witness;        ///< Valid only when ViolationFound.
  uint64_t Checked = 0;   ///< Histories evaluated.
  ExplorerStats Stats;
};

/// Explores \p Prog under \p Config and evaluates \p Property on every
/// output history. Stops at the first violation.
AssertionResult checkAssertion(const Program &Prog, ExplorerConfig Config,
                               const AssertionFn &Property);

} // namespace txdpor

#endif // TXDPOR_CORE_ENUMERATE_H
