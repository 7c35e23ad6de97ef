//===- bench/bench_streaming.cpp - Streaming trace-checker throughput -----===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Events-per-second and memory behaviour of the windowed streaming
/// checker over a budget sweep: the same generated reads-latest trace is
/// streamed at several window budgets (plus unbounded as the baseline),
/// recording throughput, the peak live window, eviction counts and peak
/// RSS (restarted per cell, so each row reports its own peak). Tracking
/// this across PRs keeps the eviction pass honest — a GC regression shows
/// up as a peak window detaching from its budget or a throughput
/// collapse, long before a production trace would hit either.
///
/// Dumps the series as BENCH_streaming.json (TXDPOR_BENCH_JSON
/// overrides) next to the human-readable table. Honors
/// TXDPOR_BENCH_BUDGET_MS per budget cell, default 800 ms.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "consistency/StreamingChecker.h"
#include "support/Deadline.h"
#include "support/Json.h"
#include "support/MemoryProbe.h"
#include "trace_io/TraceGen.h"

#include <cstdlib>
#include <fstream>
#include <iostream>

using namespace txdpor;
using namespace txdpor::bench;

namespace {

struct Cell {
  unsigned WindowBudget = 0;
  uint64_t Txns = 0;
  uint64_t Events = 0;
  uint64_t Evicted = 0;
  uint64_t GcPasses = 0;
  unsigned PeakWindow = 0;
  double Millis = 0;
  uint64_t PeakRssKb = 0;

  double eventsPerSec() const {
    return Millis > 0 ? Events * 1000.0 / Millis : 0;
  }
};

/// Streams one generated trace at \p WindowBudget until the time budget
/// expires (regenerating with fresh seeds as needed, so small windows
/// are not starved of input).
Cell runBudget(unsigned WindowBudget, int64_t BudgetMs) {
  Cell C;
  C.WindowBudget = WindowBudget;
  restartPeakRss();
  Deadline Budget = Deadline::afterMillis(BudgetMs);
  Stopwatch Timer;
  for (uint64_t Round = 0; !Budget.expired(); ++Round) {
    trace_io::GenConfig Gen;
    Gen.Seed = 1 + Round;
    Gen.Sessions = 4;
    Gen.Vars = 8;
    Gen.Events = 200000;
    StreamingOptions Opts;
    Opts.Levels = LevelAssignment::uniform(IsolationLevel::CausalConsistency);
    Opts.NumVars = Gen.Vars;
    Opts.NumSessions = Gen.Sessions;
    Opts.WindowBudget = WindowBudget;
    StreamingChecker Checker(Opts);
    trace_io::generateTrace(Gen, [&](const TransactionLog &Log) {
      if (Checker.status() == StreamStatus::Ok && !Budget.expired())
        Checker.append(Log);
    });
    const StreamingStats &Stats = Checker.stats();
    C.Txns += Stats.Txns;
    C.Events += Stats.Events;
    C.Evicted += Stats.Evicted;
    C.GcPasses += Stats.GcPasses;
    C.PeakWindow = std::max(C.PeakWindow, Stats.PeakWindow);
  }
  C.Millis = Timer.elapsedMillis();
  C.PeakRssKb = peakRssKb();
  return C;
}

} // namespace

int main() {
  int64_t BudgetMs = benchBudgetMs();
  const unsigned Budgets[] = {0, 16, 64, 256, 1024};
  std::vector<Cell> Cells;
  for (unsigned WindowBudget : Budgets)
    Cells.push_back(runBudget(WindowBudget, BudgetMs));

  TablePrinter Table({"window", "txns", "events", "evicted", "gc", "peak",
                      "ms", "events/s", "rss KB"});
  for (const Cell &C : Cells) {
    char Rate[32], Ms[32];
    std::snprintf(Rate, sizeof(Rate), "%.0f", C.eventsPerSec());
    std::snprintf(Ms, sizeof(Ms), "%.1f", C.Millis);
    Table.addRow({C.WindowBudget ? std::to_string(C.WindowBudget)
                                 : std::string("unbounded"),
                  formatCount(C.Txns), formatCount(C.Events),
                  formatCount(C.Evicted), formatCount(C.GcPasses),
                  std::to_string(C.PeakWindow), Ms, Rate,
                  std::to_string(C.PeakRssKb)});
  }
  std::cout << "Streaming checker budget sweep (budget " << BudgetMs
            << " ms per cell)\n\n";
  Table.print(std::cout);

  const char *JsonPath = std::getenv("TXDPOR_BENCH_JSON");
  std::string Path = JsonPath ? JsonPath : "BENCH_streaming.json";
  std::ofstream OS(Path);
  JsonWriter J(OS);
  J.beginObject();
  J.key("bench").value("streaming");
  J.key("budget_ms").value(static_cast<int64_t>(BudgetMs));
  writeHostMetadata(J);
  J.key("cells").beginArray();
  for (const Cell &C : Cells) {
    J.beginObject();
    J.key("window_budget").value(C.WindowBudget);
    J.key("txns").value(C.Txns);
    J.key("events").value(C.Events);
    J.key("evictions").value(C.Evicted);
    J.key("gc_passes").value(C.GcPasses);
    J.key("peak_window").value(C.PeakWindow);
    J.key("ms").value(C.Millis);
    J.key("events_per_sec").value(C.eventsPerSec());
    J.key("peak_rss_kb").value(C.PeakRssKb);
    J.endObject();
  }
  J.endArray();
  J.endObject();
  OS << '\n';
  std::cout << "\nwrote " << Path << '\n';
  return 0;
}
