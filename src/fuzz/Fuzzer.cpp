//===- fuzz/Fuzzer.cpp - The differential fuzzing driver ------------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "fuzz/Minimizer.h"
#include "support/Deadline.h"
#include "trace/Counters.h"
#include "trace/Trace.h"

#include <filesystem>
#include <fstream>
#include <ostream>

using namespace txdpor;
using namespace txdpor::fuzz;

namespace {

bool hasDisagreement(const std::vector<Disagreement> &Ds,
                     Disagreement::Kind K, IsolationLevel Level) {
  for (const Disagreement &D : Ds)
    if (D.K == K && D.Level == Level)
      return true;
  return false;
}

/// Re-finds the disagreement matching (K, Level) after minimization (the
/// minimized workload may order its reports differently).
const Disagreement *findDisagreement(const std::vector<Disagreement> &Ds,
                                     Disagreement::Kind K,
                                     IsolationLevel Level) {
  for (const Disagreement &D : Ds)
    if (D.K == K && D.Level == Level)
      return &D;
  return nullptr;
}

std::string reproFileName(uint64_t Seed, uint64_t Case) {
  return "repro-s" + std::to_string(Seed) + "-c" + std::to_string(Case) +
         ".litmus";
}

} // namespace

FuzzReport txdpor::fuzz::runFuzz(const FuzzOptions &Options) {
  FuzzReport Report;
  Stopwatch Timer;
  Deadline Budget = Options.TimeBudgetMs > 0
                        ? Deadline::afterMillis(Options.TimeBudgetMs)
                        : Deadline::never();

  ProgramShape Shape = Options.Shape;
  if (!Options.ShapeName.empty()) {
    std::optional<ProgramShape> Preset = programShapeByName(Options.ShapeName);
    assert(Preset && "unknown shape preset (CLI validates the name)");
    if (Preset)
      Shape = *Preset;
  }
  HistoryShape HistShape = historyShapeFor(Shape);

  OracleConfig OracleCfg = Options.Oracle;
  OracleCfg.Mutation = Options.Mutation;
  DifferentialOracle Oracle(OracleCfg);

  if (!Options.OutDir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(Options.OutDir, Ec);
    if (Ec && Options.Log)
      *Options.Log << "warning: cannot create repro directory '"
                   << Options.OutDir << "': " << Ec.message() << '\n';
  }

  for (uint64_t Case = 0; Case != Options.Iterations; ++Case) {
    if (Budget.expired()) {
      Report.TimedOut = true;
      break;
    }
    ++Report.Cases;
    TXDPOR_TRACE_SPAN(Fuzz, FuzzCase, Case);
    trace::bump(trace::Counter::FuzzCases);
    Rng R(Rng::deriveSeed(Options.Seed, Case));
    bool HistoryCase = R.chance(Options.HistoryCasePercent, 100);

    std::vector<Disagreement> Ds;
    std::optional<History> CaseHistory;
    std::optional<GeneratedCase> CaseProgram;
    if (HistoryCase) {
      ++Report.HistoryCases;
      CaseHistory = generateHistory(R, HistShape);
      Ds = Oracle.checkHistory(*CaseHistory);
    } else {
      ++Report.ProgramCases;
      CaseProgram = generateCase(R, Shape);
      if (!Options.ForcedSessionLevels.empty())
        CaseProgram->SessionLevels = Options.ForcedSessionLevels;
      uint64_t SymmetryLegRuns = 0;
      Ds = Oracle.checkProgram(CaseProgram->Prog, CaseProgram->SessionLevels,
                               &SymmetryLegRuns);
      Report.SymmetryLegCases += SymmetryLegRuns != 0;
    }
    if (Ds.empty())
      continue;

    ++Report.DisagreeingCases;
    Disagreement First = Ds.front();
    if (Options.Log)
      *Options.Log << "case " << Case << " (" << disagreementKindName(First.K)
                   << " at " << isolationLevelName(First.Level)
                   << "): " << First.Detail << '\n';

    Repro R2;
    R2.Seed = Options.Seed;
    R2.CaseIndex = Case;
    R2.Kind = First.K;
    R2.Level = First.Level;
    R2.ProductionVerdict = First.ProductionVerdict;
    R2.ReferenceVerdict = First.ReferenceVerdict;
    R2.Detail = First.Detail;

    if (HistoryCase) {
      History Core = *CaseHistory;
      if (Options.Minimize) {
        Core = minimizeHistory(*CaseHistory, [&](const History &C) {
          return hasDisagreement(Oracle.checkHistory(C), First.K,
                                 First.Level);
        });
        std::vector<Disagreement> Fresh = Oracle.checkHistory(Core);
        if (const Disagreement *D =
                findDisagreement(Fresh, First.K, First.Level)) {
          R2.Detail = D->Detail;
          R2.ProductionVerdict = D->ProductionVerdict;
          R2.ReferenceVerdict = D->ReferenceVerdict;
        }
      }
      R2.Hist = Core;
    } else {
      Program Core = CaseProgram->Prog;
      const std::vector<IsolationLevel> &Mix = CaseProgram->SessionLevels;
      // The session-level mix is indexed per session, so it loses its
      // meaning once the minimizer starts dropping sessions; shrink
      // under the full default sweep instead — but only when that sweep
      // reproduces the disagreement on the unshrunk program (for a
      // mix-less case it trivially does — Ds came from that very sweep;
      // a mix-narrowed finding can vanish under the wider sweep, e.g.
      // when a weaker base level blows past MaxHistoriesPerCase).
      auto StillFails = [&](const Program &C) {
        return hasDisagreement(Oracle.checkProgram(C), First.K,
                               First.Level);
      };
      // A *mixed-semantics* finding (MixLevels set) can only reproduce
      // with its mix, which the default-sweep predicate above never
      // passes — shrinking would latch any coincidental uniform
      // disagreement of the same (kind, level) and drop the mix from
      // the repro. Ship those unshrunk, mix on record.
      bool Minimized = false;
      if (Options.Minimize && First.MixLevels.empty() &&
          (Mix.empty() || StillFails(CaseProgram->Prog))) {
        Core = minimizeProgram(CaseProgram->Prog, StillFails);
        Minimized = true;
      }
      R2.Prog = Core;
      // A minimized program reproduces under the default sweep; an
      // unminimized one needs its mix on record (a mix-narrowed or
      // mixed-semantics finding may not show under the wider default
      // sweep). Prefer the mix the disagreement itself was found under.
      if (!Minimized)
        R2.SessionLevels = First.MixLevels.empty() ? Mix : First.MixLevels;
      // For history-scoped kinds, also ship the (minimized) culprit.
      // Without minimization the original report already has it; after
      // minimization re-run the oracle on the shrunk program.
      std::vector<Disagreement> Fresh;
      const Disagreement *D = &First;
      if (Minimized) {
        Fresh = Oracle.checkProgram(Core);
        D = findDisagreement(Fresh, First.K, First.Level);
      }
      if (D) {
        R2.Detail = D->Detail;
        R2.ProductionVerdict = D->ProductionVerdict;
        R2.ReferenceVerdict = D->ReferenceVerdict;
        if (D->Culprit) {
          History Culprit = *D->Culprit;
          // checkHistory runs the uniform per-level sweep only, so a
          // culprit from a *mixed-semantics* disagreement cannot be
          // shrunk against it — the mixed mismatch would never
          // reproduce and every candidate would be rejected (or, worse,
          // a coincidental uniform mismatch would steer the shrink
          // toward a different bug). Ship such culprits unshrunk.
          if (Options.Minimize && First.MixLevels.empty() &&
              (First.K == Disagreement::Kind::CheckerVerdictMismatch ||
               First.K == Disagreement::Kind::WitnessMismatch ||
               First.K == Disagreement::Kind::StreamingVerdictMismatch))
            Culprit = minimizeHistory(Culprit, [&](const History &C) {
              return hasDisagreement(Oracle.checkHistory(C), First.K,
                                     First.Level);
            });
          R2.Hist = Culprit;
        }
      }
    }

    if (!Options.OutDir.empty()) {
      std::filesystem::path File =
          std::filesystem::path(Options.OutDir) /
          reproFileName(Options.Seed, Case);
      std::ofstream OS(File);
      OS << writeRepro(R2);
      OS.flush();
      if (OS.good()) {
        Report.ReproFiles.push_back(File.string());
        if (Options.Log)
          *Options.Log << "  wrote " << File.string() << '\n';
      } else if (Options.Log) {
        *Options.Log << "  warning: failed to write " << File.string()
                     << '\n';
      }
    }
    Report.Repros.push_back(std::move(R2));

    if (Options.MaxDisagreements &&
        Report.DisagreeingCases >= Options.MaxDisagreements)
      break;
  }

  Report.ElapsedMillis = Timer.elapsedMillis();
  return Report;
}
