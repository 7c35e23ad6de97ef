//===- core/Enumerate.cpp - Enumeration and assertion-checking helpers ----===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "core/Enumerate.h"

using namespace txdpor;

EnumerationResult txdpor::enumerateHistories(const Program &Prog,
                                             ExplorerConfig Config) {
  EnumerationResult Result;
  Result.Stats = exploreProgram(Prog, Config, [&](const History &H) {
    Result.Histories.push_back(H);
  });
  return Result;
}

namespace {

/// Expands \p Item, then recurses into each child in order (depth-first
/// on the C++ call stack).
void exploreRecursively(const ExplorationEngine &Engine, WorkItem Item,
                        ExplorationSink &S) {
  std::vector<WorkItem> Children;
  Engine.expandItem(std::move(Item), Children, S);
  for (WorkItem &Child : Children) {
    // Mirror drainDepthFirst: once stopped, expand nothing further, so
    // both walks report identical statistics even for truncated runs.
    if (Engine.shouldStop(S))
      return;
    exploreRecursively(Engine, std::move(Child), S);
  }
}

} // namespace

EnumerationResult txdpor::enumerateRecursively(const Program &Prog,
                                               ExplorerConfig Config) {
  ExplorationEngine Engine(Prog, std::move(Config));
  EnumerationResult Result;
  ExplorationSink S;
  S.Visit = [&](const History &H) { Result.Histories.push_back(H); };
  S.OnExplore = Engine.config().OnExplore;
  S.TimeBudget = Engine.config().TimeBudget;
  exploreRecursively(Engine, Engine.initialItem(), S);
  S.Stats.DedupEvictions = Engine.dedupEvictions();
  Result.Stats = S.Stats;
  return Result;
}

EnumerationResult txdpor::enumerateReference(const Program &Prog,
                                             IsolationLevel Level,
                                             bool Unrestricted) {
  NaiveDfsConfig Config;
  Config.Level = Level;
  Config.Deduplicate = true;
  Config.Unrestricted = Unrestricted;
  EnumerationResult Result;
  NaiveDfs Dfs(Prog, Config);
  Result.Stats = Dfs.run([&](const History &H) {
    Result.Histories.push_back(H);
  });
  return Result;
}

std::map<std::string, unsigned>
txdpor::countByCanonicalKey(const std::vector<History> &Histories) {
  std::map<std::string, unsigned> Counts;
  for (const History &H : Histories)
    ++Counts[H.canonicalKey()];
  return Counts;
}

AssertionResult txdpor::checkAssertion(const Program &Prog,
                                       ExplorerConfig Config,
                                       const AssertionFn &Property) {
  AssertionResult Result;
  // Stop the exploration at the first violating history by capping end
  // states once found; the Explorer has no other early-exit channel, so we
  // simply record the witness and let MaxEndStates cut the search.
  Explorer E(Prog, Config);
  bool Found = false;
  History Witness;
  uint64_t Checked = 0;
  Result.Stats = E.run([&](const History &H) {
    if (Found)
      return;
    ++Checked;
    FinalStates States = computeFinalStates(Prog, H);
    if (!Property(States)) {
      Found = true;
      Witness = H;
    }
  });
  Result.ViolationFound = Found;
  if (Found)
    Result.Witness = std::move(Witness);
  Result.Checked = Checked;
  return Result;
}
