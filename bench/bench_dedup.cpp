//===- bench/bench_dedup.cpp - Subtree dedup & symmetry reduction ---------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Effect of the canonical-fingerprint subtree dedup (core/Dedup.h) on
/// exploration size and wall clock: a grid of workloads × shapes is run
/// with --dedup off / symmetry, recording histories, explore calls, dedup
/// probes/skips and time. Two asymmetric applications (courseware, tpcc —
/// structurally distinct sessions, so no table is built and symmetry must
/// report 0 checks at dedup-off cost) bracket the identical-sessions
/// stress shape, where the tree is dominated by renaming-isomorphic
/// subtrees and symmetry must show a strict histories-explored decrease.
/// Tracking the series across PRs keeps both directions honest: probes
/// appearing on the asymmetric apps would be pure overhead (and a
/// reduction there a soundness alarm), a reduction vanishing on identical
/// would be an effectiveness regression.
///
/// Dumps the grid as BENCH_dedup.json (TXDPOR_BENCH_JSON overrides) next
/// to the human-readable table. Honors TXDPOR_BENCH_BUDGET_MS per cell,
/// default 800 ms.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Json.h"
#include "support/MemoryProbe.h"

#include <cstdlib>
#include <fstream>
#include <iostream>

using namespace txdpor;
using namespace txdpor::bench;

namespace {

struct Cell {
  std::string Workload;
  bool Dedup = false;
  unsigned Sessions = 0;
  unsigned Txns = 0;
  ExplorerStats Stats;
};

const char *modeName(bool Dedup) { return Dedup ? "symmetry" : "off"; }

Cell runCell(AppKind App, unsigned Sessions, unsigned Txns, bool Dedup,
             int64_t BudgetMs) {
  ClientSpec Spec;
  Spec.Sessions = Sessions;
  Spec.TxnsPerSession = Txns;
  Spec.Seed = 1;
  Program P = makeClientProgram(App, Spec);

  ExplorerConfig Config =
      ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency);
  Config.Dedup = Dedup;
  Config.TimeBudget = Deadline::afterMillis(BudgetMs);

  Cell C;
  C.Workload = appName(App);
  C.Dedup = Dedup;
  C.Sessions = Sessions;
  C.Txns = Txns;
  // Min of 3: the counts are deterministic, so repeats only de-noise the
  // wall clock (single-shot cells were noisy enough to invert sub-20%
  // deltas on this grid). A cell that exhausts its budget is reported
  // from the first run — tripling the timeout tail buys nothing.
  C.Stats = exploreProgram(P, Config);
  for (int Rep = 1; Rep < 3 && !C.Stats.TimedOut; ++Rep) {
    Config.TimeBudget = Deadline::afterMillis(BudgetMs);
    ExplorerStats S = exploreProgram(P, Config);
    if (!S.TimedOut && S.ElapsedMillis < C.Stats.ElapsedMillis)
      C.Stats = S;
  }
  return C;
}

} // namespace

int main() {
  int64_t BudgetMs = benchBudgetMs();
  const AppKind Apps[] = {AppKind::Courseware, AppKind::Tpcc,
                          AppKind::IdenticalSessions};
  const std::pair<unsigned, unsigned> Shapes[] = {
      {3, 2}, {3, 3}, {4, 2}, {4, 3}};

  std::vector<Cell> Cells;
  for (AppKind App : Apps)
    for (auto [Sessions, Txns] : Shapes)
      for (bool Dedup : {false, true})
        Cells.push_back(runCell(App, Sessions, Txns, Dedup, BudgetMs));

  TablePrinter Table({"workload", "shape", "mode", "histories", "explore",
                      "checks", "skips", "ms", "timeout"});
  for (const Cell &C : Cells) {
    char Ms[32];
    std::snprintf(Ms, sizeof(Ms), "%.1f", C.Stats.ElapsedMillis);
    Table.addRow({C.Workload,
                  std::to_string(C.Sessions) + "x" + std::to_string(C.Txns),
                  modeName(C.Dedup), formatCount(C.Stats.Outputs),
                  formatCount(C.Stats.ExploreCalls),
                  formatCount(C.Stats.DedupChecks),
                  formatCount(C.Stats.DedupSkips), Ms,
                  C.Stats.TimedOut ? "yes" : "no"});
  }
  std::cout << "Subtree dedup grid (budget " << BudgetMs
            << " ms per cell)\n\n";
  Table.print(std::cout);

  const char *JsonPath = std::getenv("TXDPOR_BENCH_JSON");
  std::string Path = JsonPath ? JsonPath : "BENCH_dedup.json";
  std::ofstream OS(Path);
  JsonWriter J(OS);
  J.beginObject();
  J.key("bench").value("dedup");
  J.key("budget_ms").value(static_cast<int64_t>(BudgetMs));
  writeHostMetadata(J);
  J.key("cells").beginArray();
  for (const Cell &C : Cells) {
    J.beginObject();
    J.key("workload").value(C.Workload);
    J.key("sessions").value(C.Sessions);
    J.key("txns_per_session").value(C.Txns);
    J.key("mode").value(modeName(C.Dedup));
    J.key("histories").value(C.Stats.Outputs);
    J.key("end_states").value(C.Stats.EndStates);
    J.key("explore_calls").value(C.Stats.ExploreCalls);
    J.key("dedup_checks").value(C.Stats.DedupChecks);
    J.key("dedup_skips").value(C.Stats.DedupSkips);
    J.key("ms").value(C.Stats.ElapsedMillis);
    J.key("timed_out").value(C.Stats.TimedOut);
    J.endObject();
  }
  J.endArray();
  J.endObject();
  OS << '\n';
  std::cout << "\nwrote " << Path << '\n';
  return 0;
}
