//===- txbench/txbench.cpp - The txdpor end-to-end benchmark --------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One binary, four workloads, driven through the public libtxdpor API:
///
///   roster-ser   explore-ce*(CC, SER) over the paper's 25-program roster
///   tpcc-par     explore-ce(CC) on tpcc 5x3 with min(4, nproc) workers
///   stream-w256  check-trace on a generated JSONL trace, window 256
///   stream-w16   the same pipeline with window 16 and a longer trace
///
/// Usage:
///   txbench --workload NAME --seed N --seconds S --trace 0|1
///           [--tiny] [--corrupt-pin]
///
/// With --trace 0 the binary repeats untraced passes for S seconds and
/// reports the end-to-end metrics (each work unit's best time over the
/// passes, or on tpcc-par the median pass, see endToEnd). With --trace 1
/// it runs one untraced pass, then traced ones, and reports the per-layer
/// metrics: outside timers around calls into each layer's public
/// functions, plus self times of the spans src/trace already emits,
/// drained in consume mode so no record is dropped. Every pass checks its
/// answers; the last stdout line is one JSON object
/// {"correct", "attempted", "failed", "metrics"}. See txbench/README.md.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "consistency/ConsistencyChecker.h"
#include "consistency/StreamingChecker.h"
#include "core/Engine.h"
#include "core/Explorer.h"
#include "parallel/ParallelExplorer.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/MemoryProbe.h"
#include "support/Rng.h"
#include "trace/Counters.h"
#include "trace/Trace.h"
#include "trace_io/TraceGen.h"
#include "trace_io/TraceReader.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <sched.h>

using namespace txdpor;

namespace {

//===----------------------------------------------------------------------===//
// Clocks and small statistics
//===----------------------------------------------------------------------===//

double wallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuNow() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + T.tv_nsec * 1e-9;
}

/// Nearest-rank percentile of \p V (0 < Q < 1).
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  size_t K = static_cast<size_t>(Q * static_cast<double>(V.size()));
  K = std::min(K, V.size() - 1);
  std::nth_element(V.begin(), V.begin() + static_cast<long>(K), V.end());
  return V[K];
}

/// Process start; every budget below is measured from here, so even a run
/// slowed by a loaded host finishes within three minutes.
const double ProcessStart = wallNow();
constexpr double HardCapSeconds = 165;

double secondsLeft() { return HardCapSeconds - (wallNow() - ProcessStart); }

//===----------------------------------------------------------------------===//
// Options and workloads
//===----------------------------------------------------------------------===//

enum class Kind { Roster, Tpcc, Stream };

struct Workload {
  const char *Name;
  Kind K;
  unsigned Window;    ///< Stream window budget.
  uint64_t Events;    ///< Stream trace length (events).
  uint64_t TinyEvents; ///< Trace length under --tiny.
};

constexpr Workload Workloads[] = {
    {"roster-ser", Kind::Roster, 0, 0, 0},
    {"tpcc-par", Kind::Tpcc, 0, 0, 0},
    {"stream-w256", Kind::Stream, 256, 150000, 20000},
    {"stream-w16", Kind::Stream, 16, 500000, 40000},
};

constexpr uint64_t DefaultSeed = 1;

struct Options {
  const Workload *W = nullptr;
  uint64_t Seed = DefaultSeed;
  double Seconds = 10;
  bool Trace = false;
  bool Tiny = false;       ///< Self-test sizes.
  bool CorruptPin = false; ///< Self-test: expect a wrong pinned answer.
};

[[noreturn]] void usage(const std::string &Why) {
  std::cerr << "txbench: " << Why
            << "\nusage: txbench --workload roster-ser|tpcc-par|stream-w256|"
               "stream-w16 --seed N --seconds S --trace 0|1 [--tiny] "
               "[--corrupt-pin]\n";
  std::exit(2);
}

uint64_t parseU64(const std::string &Flag, const char *Raw) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Raw, &End, 10);
  if (!*Raw || *End || errno || Raw[0] == '-')
    usage("bad value '" + std::string(Raw) + "' for " + Flag);
  return V;
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage("missing value for " + A);
      return Argv[++I];
    };
    if (A == "--workload") {
      std::string Name = Value();
      for (const Workload &W : Workloads)
        if (Name == W.Name)
          O.W = &W;
      if (!O.W)
        usage("unknown workload '" + Name + "'");
    } else if (A == "--seed") {
      O.Seed = parseU64(A, Value());
    } else if (A == "--seconds") {
      uint64_t S = parseU64(A, Value());
      if (S < 1 || S > 120)
        usage("--seconds must be within 1..120");
      O.Seconds = static_cast<double>(S);
    } else if (A == "--trace") {
      uint64_t T = parseU64(A, Value());
      if (T > 1)
        usage("--trace must be 0 or 1");
      O.Trace = T == 1;
    } else if (A == "--tiny") {
      O.Tiny = true;
    } else if (A == "--corrupt-pin") {
      O.CorruptPin = true;
    } else {
      usage("unknown option '" + A + "'");
    }
  }
  if (!O.W)
    usage("--workload is required");
  return O;
}

unsigned hostProcessors() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

/// The CPUs this process may run on, read once before any pinning.
const std::vector<int> &allowedCpus() {
  static const std::vector<int> Cpus = [] {
    std::vector<int> Out;
    cpu_set_t Set;
    CPU_ZERO(&Set);
    if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
      for (int C = 0; C != CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Set))
          Out.push_back(C);
    return Out;
  }();
  return Cpus;
}

/// Pins the calling thread to the \p Pass-th allowed CPU, so the passes of
/// a single-threaded workload sample every vCPU rather than the one the
/// scheduler keeps it on; the per-unit best (endToEnd) then comes from the
/// least contended. A no-op where affinity cannot be set.
void pinForPass(size_t Pass) {
  const std::vector<int> &Cpus = allowedCpus();
  if (Cpus.empty())
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpus[Pass % Cpus.size()], &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

/// Lets the calling thread, and the threads it starts later, run on every
/// allowed CPU again.
void unpin() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : allowedCpus())
    CPU_SET(C, &Set);
  if (!allowedCpus().empty())
    sched_setaffinity(0, sizeof(Set), &Set);
}

/// Peak RSS of this process image, in MB: VmHWM from /proc/self/status.
/// getrusage's ru_maxrss (support/MemoryProbe.h) survives execve, so a run
/// launched from a larger parent would report the parent's peak. Falls
/// back to it where /proc is unavailable.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return static_cast<double>(peakRssKb()) / 1024.0;
}

/// Hands freed heap back to the kernel and restarts VmHWM at the current
/// RSS (clear_refs "5"), so peakRssMb covers what happens from here on:
/// the inputs held in memory plus the measured work, not the transient
/// copies setup made. Where clear_refs is not writable the peak keeps
/// counting from process start.
void resetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Answer bookkeeping: every checked item (program, trace) counts as
/// attempted; a wrong answer, broken invariant or timeout as failed.
struct Verdicts {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      std::cout << "FAIL " << What << '\n';
    }
  }
};

std::string fmt(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void printProvenance(const Options &O, unsigned Threads) {
  std::ostringstream OS;
  JsonWriter J(OS);
  J.beginObject();
  J.key("provenance").value("txbench");
  J.key("workload").value(O.W->Name);
  J.key("seed").value(O.Seed);
  J.key("seconds").value(O.Seconds);
  J.key("trace").value(O.Trace);
  J.key("tiny").value(O.Tiny);
  J.key("threads").value(Threads);
  J.key("nproc").value(hostProcessors());
  bench::writeHostMetadata(J);
  J.endObject();
  // One line: the writer pretty-prints, the report is line-oriented.
  std::string Line;
  bool Space = false;
  for (char C : OS.str()) {
    if (C == '\n' || (C == ' ' && Space)) {
      Space = true;
      continue;
    }
    if (Space && !Line.empty())
      Line += ' ';
    Space = false;
    Line += C;
  }
  std::cout << Line << '\n';
}

/// Prints every metric as "metric NAME VALUE UNIT", then the final JSON
/// line. failed_ratio is printed but kept out of the JSON: it is zero on
/// every correct run, and the JSON's attempted/failed carry it exactly.
int finish(const std::vector<Metric> &Metrics, const Verdicts &V) {
  double FailedRatio =
      V.Attempted ? static_cast<double>(V.Failed) / V.Attempted : 1.0;
  std::cout << "metric failed_ratio " << fmt(FailedRatio) << " ratio\n";
  for (const Metric &M : Metrics)
    std::cout << "metric " << M.Name << ' ' << fmt(M.Value) << ' ' << M.Unit
              << '\n';
  bool Correct = V.Failed == 0 && V.Attempted > 0;
  std::cout << "{\"correct\": " << (Correct ? "true" : "false")
            << ", \"attempted\": " << std::max<uint64_t>(V.Attempted, 1)
            << ", \"failed\": " << V.Failed << ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I)
    std::cout << (I ? ", " : "") << '"' << Metrics[I].Name
              << "\": {\"value\": " << fmt(Metrics[I].Value)
              << ", \"unit\": \"" << Metrics[I].Unit << "\"}";
  std::cout << "}}" << std::endl;
  return Correct ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Span drain and self-time aggregation
//===----------------------------------------------------------------------===//

constexpr size_t NumSpanNames = 16;

double nsToS(double Ns) { return Ns * 1e-9; }

/// Folds consume-mode snapshots of the src/trace rings into per-thread
/// span totals. Spans are emitted when they end, so a parent arrives after
/// its children: a per-thread stack of unclaimed spans gives each parent
/// its direct children (those that started inside it), and self time is
/// duration minus their durations. `expand` is the outermost engine span,
/// so it is never pushed; the parallel driver's spans (split phase,
/// worker, idle) enclose it and are totalled apart.
class SpanAggregator {
public:
  struct Thread {
    std::string Name;
    double SelfNs[NumSpanNames] = {};
    double ExpandRootNs = 0; ///< Sum of `expand` span durations.
    double SplitNs = 0, WorkerNs = 0;
    uint64_t FirstWorkerStart = UINT64_MAX, LastWorkerEnd = 0;
    std::vector<std::pair<uint64_t, uint64_t>> Stack; ///< (start, dur)
  };

  /// Reads and consumes every ring; the only consumer while tracing runs.
  void drain() {
    double T0 = wallNow();
    trace::Snapshot Snap = trace::snapshot(/*Consume=*/true);
    Dropped = Snap.totalDropped();
    for (trace::ThreadRecords &TR : Snap.Threads) {
      Thread &Th = Threads[TR.Tid];
      Th.Name = TR.ThreadName;
      for (const trace::Record &R : TR.Records)
        fold(R, Th);
      Records += TR.Records.size();
    }
    DrainS += wallNow() - T0;
  }

  /// Seconds inside `expand` spans on the main or the worker threads.
  double expandS(bool Workers) const {
    double Ns = 0;
    for (const auto &[Tid, T] : Threads)
      if (isWorker(T) == Workers)
        Ns += T.ExpandRootNs;
    return nsToS(Ns);
  }
  static bool isWorker(const Thread &T) {
    return T.Name.rfind("worker-", 0) == 0;
  }

  std::map<uint32_t, Thread> Threads;
  uint64_t Dropped = 0;
  uint64_t Records = 0;
  double DrainS = 0;

private:
  static void fold(const trace::Record &R, Thread &T) {
    if (R.Kind != trace::RecordKind::Span)
      return;
    uint64_t Dur = R.EndNs >= R.StartNs ? R.EndNs - R.StartNs : 0;
    if (R.Cat == trace::Category::Parallel) {
      if (R.Id == trace::Name::SplitPhase)
        T.SplitNs += Dur;
      else if (R.Id == trace::Name::Worker) {
        T.WorkerNs += Dur;
        T.FirstWorkerStart = std::min(T.FirstWorkerStart, R.StartNs);
        T.LastWorkerEnd = std::max(T.LastWorkerEnd, R.EndNs);
      }
      return;
    }
    uint64_t Children = 0;
    while (!T.Stack.empty() && T.Stack.back().first >= R.StartNs) {
      Children += T.Stack.back().second;
      T.Stack.pop_back();
    }
    size_t I = static_cast<size_t>(R.Id);
    if (I < NumSpanNames)
      T.SelfNs[I] += Dur > Children ? Dur - Children : 0;
    if (R.Id == trace::Name::ExpandItem)
      T.ExpandRootNs += Dur;
    else
      T.Stack.push_back({R.StartNs, Dur});
  }
};

/// Self seconds per span name, summed over the main or the worker
/// threads, and their grouping into the layers that own the spans.
struct SpanSelf {
  double S[NumSpanNames] = {};

  static SpanSelf of(const SpanAggregator &A, bool Workers) {
    SpanSelf R;
    for (const auto &[Tid, T] : A.Threads)
      if (SpanAggregator::isWorker(T) == Workers)
        for (size_t I = 0; I != NumSpanNames; ++I)
          R.S[I] += nsToS(T.SelfNs[I]);
    return R;
  }
  double &operator[](trace::Name N) { return S[static_cast<size_t>(N)]; }
  double operator[](trace::Name N) const { return S[static_cast<size_t>(N)]; }
  void addScaled(const SpanSelf &O, double F) {
    for (size_t I = 0; I != NumSpanNames; ++I)
      S[I] += F * O.S[I];
  }
  double core() const {
    using N = trace::Name;
    return (*this)[N::ExpandItem] + (*this)[N::ValidWrites] +
           (*this)[N::CommitFanout] + (*this)[N::SwapChild] +
           (*this)[N::ReadsLatest];
  }
  double consistency() const {
    return (*this)[trace::Name::PrefixReplay] +
           (*this)[trace::Name::BulkRebuild];
  }
  double semantics() const { return (*this)[trace::Name::ReplayCursors]; }
};

/// Every per-layer metric, zero where a layer is not on the workload's
/// path; filled by the traced run of each workload kind.
struct LayerReport {
  SpanSelf Spans; ///< Thread-seconds.
  double ExpandS = 0;
  ExplorerStats Stats;
  double FilterS = 0, DigestS = 0;
  uint64_t FilterCalls = 0, FilterPass = 0;
  uint64_t ValidWritesProbes = 0, PrefixReplays = 0, BulkRebuilds = 0;
  double StreamAppendS = 0, StreamAppendGcS = 0;
  StreamingStats Stream;
  std::vector<double> AppendUs; ///< Every traced append's latency.
  double ParallelRunS = 0, SplitS = 0, WorkerBusyS = 0, IdleS = 0,
         CpuOverWall = 0;
  unsigned Threads = 0;
  double ParseS = 0, TraceMb = 0;
  uint64_t Records = 0;
  double GenS = 0, BuildS = 0;
  uint64_t DroppedRecords = 0, TraceRecords = 0;
  double DrainS = 0;
  double UntracedS = 0, TracedS = 0;
  /// Critical-path shares of the traced verdict_s, per layer.
  double ShareCore = 0, ShareConsistency = 0, ShareSemantics = 0,
         ShareHistory = 0, ShareParallel = 0, ShareTraceIo = 0,
         ShareTrace = 0;

  std::vector<double> shares() const {
    return {ShareCore,     ShareConsistency, ShareSemantics, ShareHistory,
            ShareParallel, ShareTraceIo,     ShareTrace};
  }
  double unattributedS() const {
    double Attributed = 0;
    for (double S : shares())
      Attributed += S;
    return TracedS - Attributed;
  }

  std::vector<Metric> metrics() const {
    using N = trace::Name;
    auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
    return {
        {"core.expand_s", ExpandS, "s"},
        {"core.expand_calls", double(Stats.ExploreCalls), "count"},
        {"core.end_states", double(Stats.EndStates), "count"},
        {"core.end_states_per_s", Ratio(double(Stats.EndStates), UntracedS),
         "1/s"},
        {"core.swaps_considered", double(Stats.SwapsConsidered), "count"},
        {"core.swaps_applied", double(Stats.SwapsApplied), "count"},
        {"core.swap_yield",
         Ratio(double(Stats.SwapsApplied), double(Stats.SwapsConsidered)),
         "ratio"},
        {"core.read_branches", double(Stats.ReadBranches), "count"},
        {"core.blocked_reads", double(Stats.BlockedReads), "count"},
        {"core.max_depth", double(Stats.MaxDepth), "count"},
        {"core.expand_self_s", Spans[N::ExpandItem], "s"},
        {"core.valid_writes_self_s", Spans[N::ValidWrites], "s"},
        {"core.commit_fanout_self_s", Spans[N::CommitFanout], "s"},
        {"core.swap_child_self_s", Spans[N::SwapChild], "s"},
        {"core.reads_latest_self_s", Spans[N::ReadsLatest], "s"},
        {"consistency.prefix_replay_self_s", Spans[N::PrefixReplay], "s"},
        {"consistency.bulk_rebuild_self_s", Spans[N::BulkRebuild], "s"},
        {"consistency.valid_writes_probes", double(ValidWritesProbes),
         "count"},
        {"consistency.prefix_replays", double(PrefixReplays), "count"},
        {"consistency.bulk_rebuilds", double(BulkRebuilds), "count"},
        {"consistency.filter_s", FilterS, "s"},
        {"consistency.filter_calls", double(FilterCalls), "count"},
        {"consistency.filter_pass_ratio",
         Ratio(double(FilterPass), double(FilterCalls)), "ratio"},
        {"consistency.stream_append_s", StreamAppendS, "s"},
        {"consistency.stream_append_gc_s", StreamAppendGcS, "s"},
        {"consistency.stream_gc_passes", double(Stream.GcPasses), "count"},
        {"consistency.stream_evicted", double(Stream.Evicted), "count"},
        {"consistency.stream_peak_window", double(Stream.PeakWindow),
         "count"},
        {"consistency.stream_reads_forgotten", double(Stream.ReadsForgotten),
         "count"},
        {"append_p50_us", percentile(AppendUs, 0.50), "us"},
        {"append_p99_us", percentile(AppendUs, 0.99), "us"},
        {"consistency.append_samples", double(AppendUs.size()), "count"},
        {"semantics.replay_cursors_self_s", Spans[N::ReplayCursors], "s"},
        {"history.digest_s", DigestS, "s"},
        {"parallel.run_s", ParallelRunS, "s"},
        {"parallel.split_s", SplitS, "s"},
        {"parallel.worker_busy_s", WorkerBusyS, "s"},
        {"parallel.idle_s", IdleS, "s"},
        {"parallel.frontier_items", double(Stats.FrontierItems), "count"},
        {"parallel.steal_successes", double(Stats.StealSuccesses), "count"},
        {"parallel.steal_failures", double(Stats.StealFailures), "count"},
        {"parallel.idle_parks", double(Stats.IdleParks), "count"},
        {"parallel.cpu_over_wall", CpuOverWall, "ratio"},
        {"parallel.threads", double(Threads), "count"},
        {"trace_io.parse_s", ParseS, "s"},
        {"trace_io.parse_mb_per_s", Ratio(TraceMb, ParseS), "MB/s"},
        {"trace_io.records", double(Records), "count"},
        {"trace_io.gen_s", GenS, "s"},
        {"apps.build_s", BuildS, "s"},
        {"trace.dropped_records", double(DroppedRecords), "count"},
        {"trace.records", double(TraceRecords), "count"},
        {"trace.drain_s", DrainS, "s"},
        {"trace.overhead_s", TracedS - UntracedS, "s"},
        {"trace.traced_verdict_s", TracedS, "s"},
        {"share.core_s", ShareCore, "s"},
        {"share.consistency_s", ShareConsistency, "s"},
        {"share.semantics_s", ShareSemantics, "s"},
        {"share.history_s", ShareHistory, "s"},
        {"share.parallel_s", ShareParallel, "s"},
        {"share.trace_io_s", ShareTraceIo, "s"},
        {"share.trace_s", ShareTrace, "s"},
        {"unattributed_s", unattributedS(), "s"},
    };
  }
};

/// Largest share of the traced verdict_s left unattributed before the
/// layer accounting counts as broken (a layer timer went missing).
constexpr double MaxUnattributed = 0.5;

/// Checks the traced run's accounting, then reports as finish does. No
/// trace record may be dropped. Every layer share is a time, so it is not
/// negative; unattributed_s is what is left of the traced verdict_s, so a
/// double-counted share drives it below zero and a lost layer timer drives
/// it up. Eps absorbs the clock granularity of the two timers.
int finishTraced(const LayerReport &L, Verdicts &V) {
  V.check(L.DroppedRecords == 0, "trace records dropped");
  double Eps = 0.01 * L.TracedS;
  bool SharesOk = true;
  for (double S : L.shares())
    SharesOk = SharesOk && S >= -Eps;
  double Left = L.unattributedS();
  V.check(SharesOk && Left >= -Eps && Left <= MaxUnattributed * L.TracedS,
          "layer shares do not add up: unattributed " + fmt(Left) +
              " s of traced " + fmt(L.TracedS) + " s");
  return finish(L.metrics(), V);
}

/// Counters src/trace keeps process-wide, as deltas over one traced pass.
void readCounters(LayerReport &L) {
  L.ValidWritesProbes = trace::counterValue(trace::Counter::ValidWritesProbes);
  L.PrefixReplays = trace::counterValue(trace::Counter::PrefixReplays);
  L.BulkRebuilds = trace::counterValue(trace::Counter::BulkRebuilds);
}

//===----------------------------------------------------------------------===//
// Pinned answers
//===----------------------------------------------------------------------===//

/// Exact answers of one exploration. Digest is the wrapping sum of
/// splitmix64(History::hashIgnoringOrder()) over the output histories —
/// independent of the order the explorer (or its workers) emit them.
struct ExplorePin {
  uint64_t EndStates, Outputs, ExploreCalls, SwapsApplied, Digest;
};

// The paper's roster (apps in PaperApps order, client seeds 1-5 each)
// under explore-ce*(CC, SER), 3 sessions x 4 txns; tiny: 2 x 2.
const ExplorePin RosterPins[25] = {
#include "pins_roster.inc"
};
const ExplorePin RosterTinyPins[25] = {
#include "pins_roster_tiny.inc"
};
// tpcc explore-ce(CC): client seed 7, 5 x 3; tiny: client seed 1, 5 x 3.
const ExplorePin TpccPin =
#include "pins_tpcc.inc"
    ;
const ExplorePin TpccTinyPin =
#include "pins_tpcc_tiny.inc"
    ;

/// Exact answers of one stream pass on the default seed.
struct StreamPin {
  uint64_t Txns, Events, Evicted, GcPasses;
};
// Indexed like Workloads[2..3]: stream-w256, stream-w16.
const StreamPin StreamPins[2] = {
#include "pins_stream.inc"
};
const StreamPin StreamTinyPins[2] = {
#include "pins_stream_tiny.inc"
};

std::string pinRow(const ExplorePin &P) {
  return "{" + std::to_string(P.EndStates) + "u, " +
         std::to_string(P.Outputs) + "u, " + std::to_string(P.ExploreCalls) +
         "u, " + std::to_string(P.SwapsApplied) + "u, " +
         std::to_string(P.Digest) + "u}";
}

bool matches(const ExplorePin &Want, const ExplorePin &Got) {
  return Want.EndStates == Got.EndStates && Want.Outputs == Got.Outputs &&
         Want.ExploreCalls == Got.ExploreCalls &&
         Want.SwapsApplied == Got.SwapsApplied && Want.Digest == Got.Digest;
}

std::string pinRow(const StreamPin &P) {
  return "{" + std::to_string(P.Txns) + "u, " + std::to_string(P.Events) +
         "u, " + std::to_string(P.Evicted) + "u, " +
         std::to_string(P.GcPasses) + "u}";
}

bool matches(const StreamPin &Want, const StreamPin &Got) {
  return Want.Txns == Got.Txns && Want.Events == Got.Events &&
         Want.Evicted == Got.Evicted && Want.GcPasses == Got.GcPasses;
}

ExplorePin corrupted(ExplorePin P, bool Corrupt) {
  if (Corrupt)
    ++P.EndStates;
  return P;
}

ExplorePin answersOf(const ExplorerStats &S, uint64_t Digest) {
  return {S.EndStates, S.Outputs, S.ExploreCalls, S.SwapsApplied, Digest};
}

uint64_t digestStep(const History &H) {
  return splitmix64(H.hashIgnoringOrder());
}

//===----------------------------------------------------------------------===//
// Explore workloads
//===----------------------------------------------------------------------===//

struct RosterProgram {
  AppKind App;
  unsigned Client; ///< 1-based client seed.
  Program Prog;
};

/// Builds the roster (setup). The visit order is the one input the seed
/// varies: the programs, and so every pinned answer, are the paper's.
std::vector<RosterProgram> buildRoster(bool Tiny) {
  std::vector<RosterProgram> Roster;
  for (AppKind App : PaperApps)
    for (unsigned Client = 1; Client <= 5; ++Client) {
      ClientSpec Spec;
      Spec.Sessions = Tiny ? 2 : 3;
      Spec.TxnsPerSession = Tiny ? 2 : 4;
      Spec.Seed = Client;
      Roster.push_back({App, Client, makeClientProgram(App, Spec)});
    }
  return Roster;
}

std::vector<size_t> visitOrder(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I != N; ++I)
    Order[I] = I;
  Rng R(Seed);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);
  return Order;
}

Program buildTpcc(bool Tiny) {
  ClientSpec Spec;
  Spec.Sessions = 5;
  Spec.TxnsPerSession = 3;
  Spec.Seed = Tiny ? 1 : 7;
  return makeClientProgram(AppKind::Tpcc, Spec);
}

/// (wall s, CPU s) of each work unit of one pass: a roster program, a
/// trace segment, or the whole tpcc run. Units recur identically in every
/// pass, which is what lets endToEnd reduce each unit across passes.
using UnitTimes = std::vector<std::pair<double, double>>;

struct Pass {
  double WallS = 0, CpuS = 0;
  UnitTimes Units;
  uint64_t Events = 0;
  ExplorerStats Stats;                 ///< Merged over the pass's programs.
  std::vector<ExplorerStats> PerProgram; ///< Roster order.
  std::vector<ExplorePin> Answers;     ///< Roster order.
};

Deadline budgetDeadline() {
  return Deadline::afterMillis(
      static_cast<int64_t>(std::max(1.0, secondsLeft()) * 1000));
}

std::string programName(const RosterProgram &P) {
  return std::string(appName(P.App)) + "-" + std::to_string(P.Client);
}

/// Checks one exploration against its pin and the theorems' invariants.
void checkExplore(Verdicts &V, const std::string &What, const ExplorePin &Pin,
                  const ExplorePin &Got, const ExplorerStats &S,
                  bool Unfiltered) {
  bool Ok = matches(Pin, Got) && !S.TimedOut && S.BlockedReads == 0 &&
            (!Unfiltered || S.Outputs == S.EndStates) &&
            S.Outputs <= S.EndStates;
  V.check(Ok, What + ": got " + pinRow(Got) + " want " + pinRow(Pin) +
                  (S.TimedOut ? " (timed out)" : "") + " blocked " +
                  std::to_string(S.BlockedReads));
}

/// Depth-first walk of one program's tree over the public engine, in
/// exactly drainDepthFirst's LIFO order, timing each expandItem call into
/// \p ExpandS. \p After runs after every expansion with the running count.
template <typename Fn>
void walkDepthFirst(const ExplorationEngine &Engine, ExplorationSink &S,
                    double &ExpandS, Fn &&After) {
  std::vector<WorkItem> Stack, Children;
  Stack.push_back(Engine.initialItem());
  uint64_t Expanded = 0;
  while (!Stack.empty() && !Engine.shouldStop(S)) {
    WorkItem Item = std::move(Stack.back());
    Stack.pop_back();
    Children.clear();
    double T0 = wallNow();
    Engine.expandItem(std::move(Item), Children, S);
    ExpandS += wallNow() - T0;
    for (size_t I = Children.size(); I-- > 0;)
      Stack.push_back(std::move(Children[I]));
    After(++Expanded);
  }
}

/// Expansions per timed unit of a roster pass (see UnitTimes).
constexpr uint64_t RosterChunk = 4096;

/// One untraced roster pass: explore-ce*(CC, SER) per program through the
/// library's sequential explorer, in the seeded order. OnExplore, called
/// once per expansion, closes a timed unit every RosterChunk expansions.
Pass rosterPass(const std::vector<RosterProgram> &Roster,
                const std::vector<size_t> &Order) {
  Pass P;
  P.Answers.resize(Roster.size());
  P.PerProgram.resize(Roster.size());
  double W0 = wallNow(), C0 = cpuNow();
  double UnitW = W0, UnitC = C0;
  auto CloseUnit = [&] {
    double W = wallNow(), C = cpuNow();
    P.Units.push_back({W - UnitW, C - UnitC});
    UnitW = W;
    UnitC = C;
  };
  for (size_t Idx : Order) {
    ExplorerConfig Config = ExplorerConfig::exploreCEStar(
        IsolationLevel::CausalConsistency, IsolationLevel::Serializability);
    Config.TimeBudget = budgetDeadline();
    uint64_t Expanded = 0;
    Config.OnExplore = [&](const History &) {
      if (++Expanded % RosterChunk == 0)
        CloseUnit();
    };
    uint64_t Digest = 0;
    ExplorerStats S = exploreProgram(
        Roster[Idx].Prog, std::move(Config),
        [&](const History &H) { Digest += digestStep(H); });
    CloseUnit();
    P.Answers[Idx] = answersOf(S, Digest);
    P.PerProgram[Idx] = S;
    P.Stats.merge(S);
  }
  P.WallS = wallNow() - W0;
  P.CpuS = cpuNow() - C0;
  P.Events = P.Stats.EventsAdded;
  return P;
}

/// One untraced tpcc pass on the parallel explorer. The explorer
/// serializes its visitor under one mutex, which costs ~15% wall at 4
/// workers, so timed passes collect no outputs (\p WithDigest false) and
/// their digest stays 0; one untimed pass per run checks the output set.
Pass tpccPass(const Program &Prog, unsigned Threads, bool WithDigest) {
  Pass P;
  ExplorerConfig Config =
      ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency);
  Config.Threads = Threads;
  Config.TimeBudget = budgetDeadline();
  uint64_t Digest = 0;
  HistoryVisitor Visit;
  if (WithDigest)
    Visit = [&](const History &H) { Digest += digestStep(H); };
  double W0 = wallNow(), C0 = cpuNow();
  P.Stats = exploreProgramParallel(Prog, Config, Visit);
  P.WallS = wallNow() - W0;
  P.CpuS = cpuNow() - C0;
  P.Events = P.Stats.EventsAdded;
  P.Units = {{P.WallS, P.CpuS}};
  P.Answers.push_back(answersOf(P.Stats, Digest));
  return P;
}

/// The traced roster walk: the same LIFO order as drainDepthFirst over
/// the public engine, with no FilterLevel; the SER filter runs here, on
/// every end state, under its own timer. Spans are drained every
/// DrainEvery expansions, between calls, so no span is open meanwhile.
void rosterTraced(const std::vector<RosterProgram> &Roster,
                  const std::vector<size_t> &Order, const Pass &Untraced,
                  Verdicts &V, LayerReport &L) {
  constexpr unsigned DrainEvery = 64; // Far below a ring's capacity.
  const ConsistencyChecker &Ser =
      checkerFor(IsolationLevel::Serializability);
  SpanAggregator Agg;
  trace::resetCounters();
  trace::start(trace::AllCategories);
  double W0 = wallNow();
  for (size_t Idx : Order) {
    ExplorationEngine Engine(
        Roster[Idx].Prog,
        ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency));
    ExplorationSink S;
    S.TimeBudget = budgetDeadline();
    uint64_t Digest = 0, Survivors = 0;
    S.Visit = [&](const History &H) {
      double T0 = wallNow();
      bool Pass = Ser.isConsistent(H);
      double T1 = wallNow();
      L.FilterS += T1 - T0;
      ++L.FilterCalls;
      if (!Pass)
        return;
      ++Survivors;
      Digest += digestStep(H);
      L.DigestS += wallNow() - T1;
    };
    walkDepthFirst(Engine, S, L.ExpandS, [&](uint64_t Expanded) {
      if (Expanded % DrainEvery == 0)
        Agg.drain();
    });
    Agg.drain();
    L.FilterPass += Survivors;
    // The filtered set must be the untraced CC+SER run's output set.
    ExplorerStats Got = S.Stats;
    Got.Outputs = Survivors;
    V.check(!Engine.shouldStop(S) &&
                matches(Untraced.Answers[Idx], answersOf(Got, Digest)),
            "traced " + programName(Roster[Idx]) + " differs from untraced");
    L.Stats.merge(S.Stats);
  }
  L.TracedS = wallNow() - W0;
  trace::stop();
  Agg.drain();
  readCounters(L);

  L.Spans = SpanSelf::of(Agg, /*Workers=*/false);
  // The visitor runs inside the `expand` span: move the filter and the
  // digest out of core's self time into their own layers.
  L.Spans[trace::Name::ExpandItem] -= L.FilterS + L.DigestS;
  // Time inside expandItem but outside its span (argument teardown) is
  // still core's.
  L.ShareCore = L.Spans.core() + (L.ExpandS - Agg.expandS(/*Workers=*/false));
  L.ShareConsistency = L.Spans.consistency() + L.FilterS;
  L.ShareSemantics = L.Spans.semantics();
  L.ShareHistory = L.DigestS;
  L.ShareTrace = Agg.DrainS;
  L.DroppedRecords = Agg.Dropped;
  L.TraceRecords = Agg.Records;
  L.DrainS = Agg.DrainS;
}

/// The traced tpcc run: the parallel explorer with every span category
/// on, drained by one consumer thread while the workers emit. Layer
/// shares of the wall clock: the split phase counts as it ran (one
/// thread); worker thread-time is scaled onto the worker phase's wall.
void tpccTraced(const Program &Prog, unsigned Threads, const Pass &Untraced,
                Verdicts &V, LayerReport &L) {
  SpanAggregator Agg;
  trace::resetCounters();
  trace::start(trace::AllCategories);
  std::atomic<bool> Done{false};
  std::thread Drainer([&] {
    while (!Done.load(std::memory_order_acquire)) {
      Agg.drain();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  ExplorerConfig Config =
      ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency);
  Config.Threads = Threads;
  Config.TimeBudget = budgetDeadline();
  double W0 = wallNow();
  ExplorerStats S = exploreProgramParallel(Prog, Config);
  L.TracedS = wallNow() - W0;
  // The workers are joined; retire the consumer before stopping the
  // session (stop must not race with a consuming snapshot).
  Done.store(true, std::memory_order_release);
  Drainer.join();
  trace::stop();
  Agg.drain();
  readCounters(L);
  V.check(matches(Untraced.Answers[0], answersOf(S, 0)) && !S.TimedOut,
          "traced tpcc differs from untraced: " + pinRow(answersOf(S, 0)));
  L.Stats = S;

  double SplitNs = 0, WorkerNs = 0;
  uint64_t First = UINT64_MAX, Last = 0;
  for (const auto &[Tid, T] : Agg.Threads) {
    SplitNs += T.SplitNs;
    WorkerNs += T.WorkerNs;
    First = std::min(First, T.FirstWorkerStart);
    Last = std::max(Last, T.LastWorkerEnd);
  }
  double MainExpand = Agg.expandS(/*Workers=*/false);
  double WorkerExpand = Agg.expandS(/*Workers=*/true);
  double WorkerS = nsToS(WorkerNs);
  double PhaseS = Last > First ? nsToS(double(Last - First)) : 0;
  double Scale = WorkerS > 0 ? PhaseS / WorkerS : 0;
  SpanSelf Main = SpanSelf::of(Agg, /*Workers=*/false);
  SpanSelf Work = SpanSelf::of(Agg, /*Workers=*/true);
  L.Spans = Main;
  L.Spans.addScaled(Work, 1.0);
  L.ExpandS = MainExpand + WorkerExpand;
  L.SplitS = nsToS(SplitNs);
  L.ParallelRunS = PhaseS;
  L.WorkerBusyS = WorkerExpand;
  L.IdleS = WorkerS - WorkerExpand;
  SpanSelf Wall = Main;
  Wall.addScaled(Work, Scale);
  L.ShareCore = Wall.core();
  L.ShareConsistency = Wall.consistency();
  L.ShareSemantics = Wall.semantics();
  L.ShareParallel = (L.SplitS - MainExpand) + L.IdleS * Scale;
  L.DroppedRecords = Agg.Dropped;
  L.TraceRecords = Agg.Records;
  L.DrainS = Agg.DrainS;
}

//===----------------------------------------------------------------------===//
// Stream workloads
//===----------------------------------------------------------------------===//

/// A read-only streambuf over a string, so every pass parses the same
/// serialized bytes without copying them.
class StringViewBuf : public std::streambuf {
public:
  explicit StringViewBuf(const std::string &S) {
    char *B = const_cast<char *>(S.data());
    setg(B, B, B + S.size());
  }
};

struct StreamInput {
  std::string Jsonl;
  uint64_t Txns = 0, Events = 0;
};

/// Generates and serializes the workload's trace into \p In, replacing
/// what it held. The header is written first from the generator's config
/// and corrected in place if the generator returns another, so the trace
/// is never held twice.
void buildStream(const Workload &W, uint64_t Seed, bool Tiny,
                 StreamInput &In) {
  trace_io::GenConfig Gen;
  Gen.Seed = Seed;
  Gen.Events = Tiny ? W.TinyEvents : W.Events;
  In = StreamInput();
  trace_io::TraceHeader Want;
  Want.NumVars = Gen.Vars;
  Want.NumSessions = Gen.Sessions;
  In.Jsonl = trace_io::writeTraceHeader(Want, trace_io::TraceFormat::Jsonl);
  const size_t HeaderLen = In.Jsonl.size();
  trace_io::TraceHeader H =
      trace_io::generateTrace(Gen, [&](const TransactionLog &Log) {
        In.Jsonl +=
            trace_io::writeTraceTxn(Log, trace_io::TraceFormat::Jsonl);
        ++In.Txns;
        In.Events += Log.size();
      });
  std::string Header =
      trace_io::writeTraceHeader(H, trace_io::TraceFormat::Jsonl);
  if (In.Jsonl.compare(0, HeaderLen, Header) != 0)
    In.Jsonl.replace(0, HeaderLen, Header);
}

/// Timed segments per stream pass (see UnitTimes).
constexpr uint64_t StreamSegments = 64;

struct StreamPass {
  double WallS = 0, CpuS = 0;
  UnitTimes Units;
  StreamStatus Status = StreamStatus::Malformed;
  StreamingStats Stats;
  uint64_t Records = 0;
};

/// One check-trace pass: parse the JSONL through TraceReader and feed
/// every record to StreamingChecker (CC, the workload's window). With
/// \p L the two calls are timed separately, accumulating into \p L.
StreamPass streamPass(const Workload &W, const StreamInput &In,
                      LayerReport *L) {
  StreamPass P;
  double W0 = wallNow(), C0 = cpuNow();
  StringViewBuf Buf(In.Jsonl);
  std::istream IS(&Buf);
  trace_io::TraceReader Reader(IS);
  if (!Reader.valid())
    return P; // Status stays Malformed.
  StreamingOptions Opts;
  Opts.Levels = LevelAssignment::uniform(IsolationLevel::CausalConsistency);
  Opts.NumVars = Reader.header().NumVars;
  Opts.NumSessions = Reader.header().NumSessions;
  Opts.WindowBudget = W.Window;
  StreamingChecker Checker(Opts);
  TransactionLog Log{TxnUid::init()};
  bool ReaderError = false;
  const uint64_t SegmentLen = std::max<uint64_t>(1, In.Txns / StreamSegments);
  double SegW = W0, SegC = C0;
  for (;;) {
    double T0 = L ? wallNow() : 0;
    trace_io::TraceReader::Next N = Reader.next(Log);
    double T1 = L ? wallNow() : 0;
    if (N != trace_io::TraceReader::Next::Txn) {
      ReaderError = N == trace_io::TraceReader::Next::Error;
      break;
    }
    ++P.Records;
    uint64_t Gc = L ? Checker.stats().GcPasses : 0;
    StreamStatus S = Checker.append(Log);
    if (L) {
      double T2 = wallNow();
      L->ParseS += T1 - T0;
      L->StreamAppendS += T2 - T1;
      if (Checker.stats().GcPasses != Gc)
        L->StreamAppendGcS += T2 - T1;
      L->AppendUs.push_back((T2 - T1) * 1e6);
    }
    if (S != StreamStatus::Ok)
      break;
    if (P.Records % SegmentLen == 0) {
      double W = wallNow(), C = cpuNow();
      P.Units.push_back({W - SegW, C - SegC});
      SegW = W;
      SegC = C;
    }
  }
  P.WallS = wallNow() - W0;
  P.CpuS = cpuNow() - C0;
  P.Units.push_back({P.WallS + W0 - SegW, P.CpuS + C0 - SegC});
  P.Status = ReaderError ? StreamStatus::Malformed : Checker.status();
  P.Stats = Checker.stats();
  return P;
}

void checkStream(Verdicts &V, const Options &O, const StreamInput &In,
                 const StreamPass &P, const char *What) {
  bool Ok = P.Status == StreamStatus::Ok && P.Stats.Txns == In.Txns &&
            P.Stats.Events == In.Events && P.Records == In.Txns;
  StreamPin Got{P.Stats.Txns, P.Stats.Events, P.Stats.Evicted,
                P.Stats.GcPasses};
  std::string Msg = std::string(What) + ": status " +
                    std::to_string(int(P.Status)) + " got " + pinRow(Got);
  if (O.Seed == DefaultSeed) {
    size_t I = O.W->Window == 256 ? 0 : 1;
    StreamPin Pin = (O.Tiny ? StreamTinyPins : StreamPins)[I];
    if (O.CorruptPin)
      ++Pin.Txns;
    Ok = Ok && matches(Pin, Got);
    Msg += " want " + pinRow(Pin);
  }
  V.check(Ok, Msg);
}

/// A seeded read-skew must be reported as an anomaly at the workload's
/// window: the negative control for "consistent" on the clean trace.
void checkAnomalyDetected(Verdicts &V, const Workload &W, uint64_t Seed) {
  trace_io::GenConfig Gen;
  Gen.Seed = Seed;
  Gen.Events = 20000;
  Gen.AnomalyAtTxn = 1000;
  StreamingOptions Opts;
  Opts.Levels = LevelAssignment::uniform(IsolationLevel::CausalConsistency);
  Opts.NumVars = Gen.Vars;
  Opts.NumSessions = Gen.Sessions;
  Opts.WindowBudget = W.Window;
  StreamingChecker Checker(Opts);
  trace_io::generateTrace(Gen, [&](const TransactionLog &Log) {
    if (Checker.status() == StreamStatus::Ok)
      Checker.append(Log);
  });
  V.check(Checker.status() == StreamStatus::Anomaly,
          "injected read-skew not reported as an anomaly");
}

//===----------------------------------------------------------------------===//
// Workload runners
//===----------------------------------------------------------------------===//

/// Runs \p Setup repeatedly and returns its best duration, the way
/// endToEnd takes each unit's best: at least 3 times and once per allowed
/// CPU, then until ~MinSeconds have passed. Repetition i is pinned to the
/// i-th CPU (pinForPass), so the best comes from the least contended one.
template <typename Fn> double timeSetup(Fn &&Setup, double MinSeconds) {
  std::vector<double> Times;
  double Start = wallNow();
  do {
    pinForPass(Times.size());
    double T0 = wallNow();
    Setup();
    Times.push_back(wallNow() - T0);
  } while (Times.size() < std::max<size_t>(3, allowedCpus().size()) ||
           (wallNow() - Start < MinSeconds && Times.size() < 100000));
  unpin();
  return *std::min_element(Times.begin(), Times.end());
}

/// Repeats \p RunPass for the measured phase: at least once, then while
/// the phase is shorter than \p Seconds and the hard cap allows another.
/// \p Pin rotates a single-threaded workload over the CPUs (pinForPass).
/// Peak RSS counts from the start of the phase (resetPeakRss).
template <typename Fn>
std::vector<UnitTimes> measure(double Seconds, bool Pin, Fn &&RunPass) {
  resetPeakRss();
  std::vector<UnitTimes> Passes;
  double Start = wallNow();
  for (;;) {
    if (Pin)
      pinForPass(Passes.size());
    double T0 = wallNow();
    Passes.push_back(RunPass());
    double PassS = wallNow() - T0;
    if (wallNow() - Start >= Seconds || secondsLeft() < 2 * PassS + 5) {
      unpin();
      return Passes;
    }
  }
}

/// How endToEnd reduces one unit's times across the passes.
enum class Reduce {
  /// The fastest pass (min-of-N, as bench_dedup does per cell). For the
  /// single-threaded workloads, whose passes rotate over the CPUs: on a
  /// shared host each vCPU's speed drifts by 2x over seconds, and
  /// contention only ever slows a unit down, so the fastest observation
  /// is the steadiest estimate of the work.
  Best,
  /// The median pass. For tpcc-par, whose workers occupy every CPU: there
  /// is no quieter CPU to find, and the fastest of ~70 short passes is a
  /// rare lucky window, while their median follows the run's level.
  Median,
};

/// The end-to-end metrics of a measured phase. verdict_s and cpu_s sum,
/// over the work units of a pass, each unit's wall time reduced across
/// passes by \p How, with the CPU time of the pass chosen for the wall.
/// Passes whose unit count differs (a failed pass) are skipped.
std::vector<Metric> endToEnd(double SetupS, const std::vector<UnitTimes> &P,
                             uint64_t EventsPerPass, Reduce How) {
  size_t Units = P.front().size();
  std::cout << "passes " << P.size() << ", units " << Units
            << ", events per pass " << EventsPerPass << ", pass wall s:";
  std::vector<UnitTimes> PerUnit(Units); // Unit -> its (wall, CPU) by pass.
  for (const UnitTimes &Pass : P) {
    double Total = 0;
    for (size_t U = 0; U != Pass.size(); ++U) {
      Total += Pass[U].first;
      if (Pass.size() == Units)
        PerUnit[U].push_back(Pass[U]);
    }
    std::cout << ' ' << Total;
  }
  std::cout << '\n';
  double VerdictS = 0, CpuS = 0;
  for (UnitTimes &Times : PerUnit) {
    // Sorted by wall time; a tie between walls is broken by CPU time.
    std::sort(Times.begin(), Times.end());
    const auto &[W, C] =
        How == Reduce::Best ? Times.front() : Times[(Times.size() - 1) / 2];
    VerdictS += W;
    CpuS += C;
  }
  return {
      {"setup_s", SetupS, "s"},
      {"verdict_s", VerdictS, "s"},
      {"cpu_s", CpuS, "s"},
      {"events_per_s", VerdictS > 0 ? EventsPerPass / VerdictS : 0, "1/s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };
}

int runRoster(const Options &O) {
  Verdicts V;
  std::vector<RosterProgram> Roster;
  double SetupS = timeSetup([&] { Roster = buildRoster(O.Tiny); }, 0.5);
  std::vector<size_t> Order = visitOrder(Roster.size(), O.Seed);
  const ExplorePin *Pins = O.Tiny ? RosterTinyPins : RosterPins;
  printProvenance(O, 1);

  auto Checked = [&](const Pass &P) {
    for (size_t I = 0; I != Roster.size(); ++I)
      checkExplore(V, programName(Roster[I]), corrupted(Pins[I], O.CorruptPin),
                   P.Answers[I], P.PerProgram[I], /*Unfiltered=*/false);
  };

  if (!O.Trace) {
    uint64_t Events = 0;
    auto Passes = measure(O.Seconds, /*Pin=*/true, [&] {
      Pass P = rosterPass(Roster, Order);
      Checked(P);
      Events = P.Events;
      return P.Units;
    });
    return finish(endToEnd(SetupS, Passes, Events, Reduce::Best), V);
  }
  LayerReport L;
  L.BuildS = SetupS;
  L.Threads = 1;
  Pass Untraced = rosterPass(Roster, Order);
  Checked(Untraced);
  L.UntracedS = Untraced.WallS;
  rosterTraced(Roster, Order, Untraced, V, L);
  return finishTraced(L, V);
}

int runTpcc(const Options &O) {
  Verdicts V;
  unsigned Threads = std::min(O.Tiny ? 2u : 4u, hostProcessors());
  Program Prog;
  double SetupS = timeSetup([&] { Prog = buildTpcc(O.Tiny); }, 0.5);
  ExplorePin Pin = corrupted(O.Tiny ? TpccTinyPin : TpccPin, O.CorruptPin);
  printProvenance(O, Threads);
  auto Checked = [&](const Pass &P, bool WithDigest) {
    ExplorePin Want = Pin;
    if (!WithDigest)
      Want.Digest = 0;
    checkExplore(V, "tpcc", Want, P.Answers[0], P.Stats, /*Unfiltered=*/true);
  };

  // The output set, once per run, in an untimed pass that also warms up
  // the allocator and the caches; measure() restarts the peak RSS after
  // it.
  Checked(tpccPass(Prog, Threads, /*WithDigest=*/true), true);
  if (!O.Trace) {
    uint64_t Events = 0;
    auto Passes = measure(O.Seconds, /*Pin=*/false, [&] {
      Pass P = tpccPass(Prog, Threads, /*WithDigest=*/false);
      Checked(P, false);
      Events = P.Events;
      return P.Units;
    });
    return finish(endToEnd(SetupS, Passes, Events, Reduce::Median), V);
  }
  LayerReport L;
  L.BuildS = SetupS;
  L.Threads = Threads;
  Pass Untraced = tpccPass(Prog, Threads, /*WithDigest=*/false);
  Checked(Untraced, false);
  L.UntracedS = Untraced.WallS;
  L.CpuOverWall = Untraced.WallS > 0 ? Untraced.CpuS / Untraced.WallS : 0;
  tpccTraced(Prog, Threads, Untraced, V, L);
  return finishTraced(L, V);
}

int runStream(const Options &O) {
  Verdicts V;
  const Workload &W = *O.W;
  StreamInput In;
  double SetupS = timeSetup([&] { buildStream(W, O.Seed, O.Tiny, In); }, 2);
  printProvenance(O, 1);
  checkAnomalyDetected(V, W, O.Seed);

  if (!O.Trace) {
    auto Passes = measure(O.Seconds, /*Pin=*/true, [&] {
      StreamPass P = streamPass(W, In, nullptr);
      checkStream(V, O, In, P, W.Name);
      return P.Units;
    });
    return finish(endToEnd(SetupS, Passes, In.Events, Reduce::Best), V);
  }
  LayerReport L;
  L.GenS = SetupS;
  L.Threads = 1;
  StreamPass Untraced = streamPass(W, In, nullptr);
  checkStream(V, O, In, Untraced, "untraced pass");
  L.UntracedS = Untraced.WallS;
  // StreamingChecker and TraceReader carry no spans; the ring is still
  // drained so a span added there later is counted, not lost.
  // Traced passes repeat until the p99 has >= 500 appends beyond it;
  // per-layer times are per-pass means.
  const size_t MinAppendSamples = O.Tiny ? 0 : 50000;
  SpanAggregator Agg;
  trace::start(trace::AllCategories);
  StreamPass Traced;
  unsigned TracedPasses = 0;
  do {
    Traced = streamPass(W, In, &L);
    checkStream(V, O, In, Traced, "traced pass");
    L.TracedS += Traced.WallS;
    ++TracedPasses;
  } while (L.AppendUs.size() < MinAppendSamples &&
           secondsLeft() > 2 * Traced.WallS + 5);
  trace::stop();
  Agg.drain();
  for (double *T : {&L.TracedS, &L.ParseS, &L.StreamAppendS,
                    &L.StreamAppendGcS})
    *T /= TracedPasses;
  L.Stream = Traced.Stats;
  L.Records = Traced.Records;
  L.TraceMb = static_cast<double>(In.Jsonl.size()) / 1e6;
  L.ShareTraceIo = L.ParseS;
  L.ShareConsistency = L.StreamAppendS;
  L.DroppedRecords = Agg.Dropped;
  L.TraceRecords = Agg.Records;
  return finishTraced(L, V);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  // Untraced passes record nothing. One-slot rings keep the buffer the
  // tracer registers, and never frees, for every thread that names itself
  // (each parallel worker does) out of peak RSS; traced passes resize the
  // rings when they start a session.
  trace::start(/*Mask=*/0, /*CapacityPerThread=*/1);
  trace::setThreadName("main");
  switch (O.W->K) {
  case Kind::Roster:
    return runRoster(O);
  case Kind::Tpcc:
    return runTpcc(O);
  case Kind::Stream:
    return runStream(O);
  }
  return 2;
}
