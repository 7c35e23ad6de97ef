//===- consistency/SerializabilityChecker.h - SER: saturate, then search --===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializability checking (NP-complete in general, Biswas & Enea 2019).
/// The SER axiom (Fig. 2d) is equivalent to: there is a total order co
/// extending so ∪ wr in which every external read of x returns the write
/// of the co-latest preceding transaction that visibly writes x.
///
/// The check runs in two steps.
///
///  1. **Saturate.** Predecessor bitmasks of so ∪ wr are built straight
///     from the logs and closed transitively. They are then closed under
///     the two orderings every such co must respect: for a read of x by t3
///     from t1 and any other visible writer t2 of x, t2 cannot fall
///     between t1 and t3, so
///       - t2 <co t3 forces t2 <co t1, and
///       - t1 <co t2 forces t3 <co t2.
///     A cycle rejects the history without any search (the pruning of
///     practical checkers such as Boomslang, PAPERS.md).
///  2. **Search.** Otherwise a depth-first search appends transactions one
///     at a time, least index first. A transaction is appendable when all
///     its saturated predecessors are placed and, for each of its external
///     reads of x, the last placed writer of x is exactly its wr writer.
///     Failed search states are memoized on (placed-set, last-writer map),
///     the entire relevant state of a prefix; the memo is only built once
///     the search first backtracks.
///
/// Every edge saturation adds holds in every serialization, so it removes
/// no serialization: the verdict is the search's over so ∪ wr alone, and
/// the first sequence the search completes — the lexicographically least
/// serialization, which findCommitOrder returns — is unchanged too.
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_CONSISTENCY_SERIALIZABILITYCHECKER_H
#define TXDPOR_CONSISTENCY_SERIALIZABILITYCHECKER_H

#include "consistency/ConsistencyChecker.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace txdpor {

class SerializabilityChecker : public ConsistencyChecker {
public:
  /// How one check reached its verdict, for tests and measurement.
  struct SearchReport {
    /// Decided before any search: saturation found a cycle.
    bool RejectedBySaturation = false;
    /// extend() calls; a search that never backtracks visits N + 1.
    uint64_t StatesVisited = 0;
    /// Failed states memoized; 0 when the search never backtracked.
    uint64_t MemoEntries = 0;
  };

  IsolationLevel level() const override {
    return IsolationLevel::Serializability;
  }
  bool isConsistent(const History &H) const override;

  /// Like isConsistent, but returns the witnessing commit order (the
  /// lexicographically least serialization: transaction indices in commit
  /// sequence), or nullopt if the history is not serializable. \p Report,
  /// when given, receives how the verdict was reached.
  std::optional<std::vector<unsigned>>
  findCommitOrder(const History &H, SearchReport *Report = nullptr) const;
};

} // namespace txdpor

#endif // TXDPOR_CONSISTENCY_SERIALIZABILITYCHECKER_H
