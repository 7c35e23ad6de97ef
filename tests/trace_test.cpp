//===- tests/trace_test.cpp - Tracing layer unit tests --------------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace/ layer's contracts: the SPSC ring drops (never overwrites)
/// on overflow and accounts every drop; a disabled session records
/// nothing; non-consuming snapshots may run concurrently with emitting
/// worker threads (the TSan target of this file); the Chrome trace-event
/// dump is valid JSON (parsed back with support/Json's reader) with the
/// expected phases; the process-wide counters bump and reset; and an
/// untraced parallel run registers no ring buffers.
///
//===----------------------------------------------------------------------===//

#include "apps/Applications.h"
#include "parallel/ParallelExplorer.h"
#include "trace/ChromeTrace.h"
#include "trace/Counters.h"
#include "trace/Trace.h"

#include "support/Json.h"
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <thread>

using namespace txdpor;

namespace {

/// Every test runs its own session: start() resets all registered ring
/// buffers (including those of threads from earlier tests), so record
/// counts below only see what the test itself emitted. Buffers of other
/// tests' (dead) threads stay registered but empty — single-thread tests
/// therefore locate their records rather than index Threads[0].
class TraceTest : public ::testing::Test {
protected:
  void TearDown() override { trace::stop(); }

  /// The unique thread that recorded anything (asserts there is one).
  static const trace::ThreadRecords &emitter(const trace::Snapshot &Snap) {
    const trace::ThreadRecords *Found = nullptr;
    for (const trace::ThreadRecords &T : Snap.Threads)
      if (!T.Records.empty()) {
        EXPECT_EQ(Found, nullptr) << "records on more than one thread";
        Found = &T;
      }
    EXPECT_NE(Found, nullptr) << "no thread recorded anything";
    static const trace::ThreadRecords Empty;
    return Found ? *Found : Empty;
  }
};

TEST_F(TraceTest, DisabledPathRecordsNothing) {
  trace::stop();
  trace::start(trace::AllCategories, /*CapacityPerThread=*/64);
  trace::stop();
  EXPECT_FALSE(trace::active());
  {
    TXDPOR_TRACE_SPAN(Explore, ExpandItem, 1);
    TXDPOR_TRACE_INSTANT(Parallel, Steal, 2);
    TXDPOR_TRACE_COUNTER(Parallel, Pending, 3);
  }
  trace::Snapshot Snap = trace::snapshot();
  EXPECT_EQ(Snap.totalRecords(), 0u);
  EXPECT_EQ(Snap.totalDropped(), 0u);
}

TEST_F(TraceTest, RecordsSpansInstantsAndCounters) {
  trace::start(trace::AllCategories, /*CapacityPerThread=*/64);
  {
    TXDPOR_TRACE_SPAN(Explore, ExpandItem, 7, 9);
    TXDPOR_TRACE_INSTANT(Parallel, Steal, 3);
    TXDPOR_TRACE_COUNTER(Parallel, Pending, 42);
  }
  trace::stop();
  trace::Snapshot Snap = trace::snapshot();
  ASSERT_EQ(Snap.totalRecords(), 3u);
  const std::vector<trace::Record> &Rs = emitter(Snap).Records;
  // Instant and counter are emitted before the span (which completes at
  // scope exit).
  EXPECT_EQ(Rs[0].Kind, trace::RecordKind::Instant);
  EXPECT_EQ(Rs[0].Arg0, 3u);
  EXPECT_EQ(Rs[1].Kind, trace::RecordKind::Counter);
  EXPECT_EQ(Rs[1].Arg0, 42u);
  EXPECT_EQ(Rs[2].Kind, trace::RecordKind::Span);
  EXPECT_EQ(Rs[2].Id, trace::Name::ExpandItem);
  EXPECT_EQ(Rs[2].Cat, trace::Category::Explore);
  EXPECT_EQ(Rs[2].Arg0, 7u);
  EXPECT_EQ(Rs[2].Arg1, 9u);
  EXPECT_GE(Rs[2].EndNs, Rs[2].StartNs);
}

TEST_F(TraceTest, CategoryMaskFilters) {
  trace::start(1u << static_cast<unsigned>(trace::Category::Check),
               /*CapacityPerThread=*/64);
  EXPECT_TRUE(trace::enabled(trace::Category::Check));
  EXPECT_FALSE(trace::enabled(trace::Category::Explore));
  {
    TXDPOR_TRACE_SPAN(Explore, ExpandItem); // Filtered.
    TXDPOR_TRACE_SPAN(Check, ReadsLatest);  // Recorded.
  }
  trace::stop();
  trace::Snapshot Snap = trace::snapshot();
  ASSERT_EQ(Snap.totalRecords(), 1u);
  EXPECT_EQ(emitter(Snap).Records[0].Cat, trace::Category::Check);
}

TEST_F(TraceTest, FullRingDropsNewRecordsAndCountsThem) {
  trace::start(trace::AllCategories, /*CapacityPerThread=*/8);
  for (unsigned I = 0; I != 20; ++I)
    trace::emitInstant(trace::Category::Explore, trace::Name::ExpandItem, I);
  trace::stop();
  trace::Snapshot Snap = trace::snapshot();
  ASSERT_EQ(Snap.totalRecords(), 8u);
  EXPECT_EQ(Snap.totalDropped(), 12u);
  // Drop-on-full keeps the *oldest* records: the ring never overwrites
  // slots a concurrent snapshot might be reading.
  for (unsigned I = 0; I != 8; ++I)
    EXPECT_EQ(emitter(Snap).Records[I].Arg0, I);
}

TEST_F(TraceTest, ConsumingSnapshotFreesRingSlots) {
  trace::start(trace::AllCategories, /*CapacityPerThread=*/8);
  for (unsigned I = 0; I != 8; ++I)
    trace::emitInstant(trace::Category::Explore, trace::Name::ExpandItem, I);
  trace::Snapshot First = trace::snapshot(/*Consume=*/true);
  EXPECT_EQ(First.totalRecords(), 8u);
  // The consumed slots are reusable; a second batch fits without drops.
  for (unsigned I = 8; I != 16; ++I)
    trace::emitInstant(trace::Category::Explore, trace::Name::ExpandItem, I);
  trace::stop();
  trace::Snapshot Second = trace::snapshot(/*Consume=*/true);
  ASSERT_EQ(Second.totalRecords(), 8u);
  EXPECT_EQ(Second.totalDropped(), 0u);
  EXPECT_EQ(emitter(Second).Records[0].Arg0, 8u);
  EXPECT_EQ(trace::snapshot().totalRecords(), 0u);
}

TEST_F(TraceTest, SessionRestartResetsBuffers) {
  trace::start(trace::AllCategories, /*CapacityPerThread=*/8);
  trace::emitInstant(trace::Category::Explore, trace::Name::ExpandItem);
  trace::stop();
  trace::start(trace::AllCategories, /*CapacityPerThread=*/8);
  trace::stop();
  EXPECT_EQ(trace::snapshot().totalRecords(), 0u);
}

TEST_F(TraceTest, SpanGuardEndEmitsExactlyOnce) {
  trace::start(trace::AllCategories, /*CapacityPerThread=*/8);
  {
    TXDPOR_TRACE_SPAN_NAMED(Span, Parallel, SplitPhase);
    EXPECT_TRUE(Span.armed());
    Span.setArgs(5, 6);
    Span.end();
    Span.end(); // Idempotent; the destructor must not re-emit either.
  }
  trace::stop();
  trace::Snapshot Snap = trace::snapshot();
  ASSERT_EQ(Snap.totalRecords(), 1u);
  EXPECT_EQ(emitter(Snap).Records[0].Arg0, 5u);
  EXPECT_EQ(emitter(Snap).Records[0].Arg1, 6u);
}

TEST_F(TraceTest, DisarmedGuardCapturesNothing) {
  trace::stop();
  TXDPOR_TRACE_SPAN_NAMED(Span, Explore, ExpandItem);
  EXPECT_FALSE(Span.armed());
}

/// The TSan target: worker threads emit while the main thread takes
/// non-consuming snapshots mid-flight. Drop-on-full guarantees the
/// snapshots only touch published slots; total accounting must still be
/// exact once the workers are joined.
TEST_F(TraceTest, ConcurrentEmittersWithLiveSnapshots) {
  constexpr unsigned NumThreads = 4;
  constexpr unsigned PerThread = 2000;
  trace::start(trace::AllCategories, /*CapacityPerThread=*/512);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != NumThreads; ++T)
    Pool.emplace_back([T] {
      trace::setThreadName("emitter-" + std::to_string(T));
      for (unsigned I = 0; I != PerThread; ++I) {
        TXDPOR_TRACE_SPAN(Explore, ExpandItem, I);
        trace::emitInstant(trace::Category::Parallel, trace::Name::Steal, I);
      }
    });
  for (unsigned I = 0; I != 50; ++I) {
    trace::Snapshot Live = trace::snapshot();
    EXPECT_LE(Live.totalRecords(), NumThreads * 512 + 2);
    std::this_thread::yield();
  }
  for (std::thread &Th : Pool)
    Th.join();
  trace::stop();
  trace::Snapshot Snap = trace::snapshot();
  uint64_t Accounted = Snap.totalRecords() + Snap.totalDropped();
  // 2 records per iteration per worker; the main thread emitted nothing.
  EXPECT_EQ(Accounted, uint64_t(NumThreads) * PerThread * 2);
  unsigned Named = 0;
  for (const trace::ThreadRecords &TR : Snap.Threads)
    if (TR.ThreadName.rfind("emitter-", 0) == 0)
      ++Named;
  EXPECT_EQ(Named, NumThreads);
}

// Every parallel worker names itself. An untraced run must still
// register no rings: each ring is 65,536 records and lives for the rest
// of the process, so a fuzz campaign of parallel cases used to grow by
// four rings per case. A traced run keeps its worker-N lanes.
TEST_F(TraceTest, UntracedParallelRunsRegisterNoRings) {
  trace::stop();
  ClientSpec Spec;
  Spec.Sessions = 3;
  Spec.TxnsPerSession = 2;
  Spec.Seed = 1;
  Program P = makeClientProgram(AppKind::Tpcc, Spec);
  ExplorerConfig Config =
      ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency);
  Config.Threads = 4;
  size_t Before = trace::snapshot().Threads.size();
  for (unsigned Run = 0; Run != 3; ++Run) {
    ParallelExplorer E(P, Config);
    EXPECT_GT(E.run().EndStates, 0u);
    EXPECT_EQ(trace::snapshot().Threads.size(), Before)
        << "untraced run " << Run << " registered a ring";
  }

  trace::start(trace::AllCategories, /*CapacityPerThread=*/64);
  ParallelExplorer E(P, Config);
  E.run();
  trace::stop();
  std::set<std::string> Workers;
  for (const trace::ThreadRecords &T : trace::snapshot().Threads)
    if (T.ThreadName.rfind("worker-", 0) == 0 && !T.Records.empty())
      Workers.insert(T.ThreadName);
  EXPECT_EQ(Workers.size(), 4u);
}

TEST_F(TraceTest, ParseCategoriesSpecs) {
  EXPECT_EQ(trace::parseCategories("all"), trace::AllCategories);
  std::optional<uint32_t> Two = trace::parseCategories("check,parallel");
  ASSERT_TRUE(Two.has_value());
  EXPECT_EQ(*Two, (1u << static_cast<unsigned>(trace::Category::Check)) |
                      (1u << static_cast<unsigned>(trace::Category::Parallel)));
  std::string Bad;
  EXPECT_FALSE(trace::parseCategories("check,bogus", &Bad).has_value());
  EXPECT_EQ(Bad, "bogus");
  EXPECT_FALSE(trace::parseCategories("", &Bad).has_value());
}

TEST_F(TraceTest, ChromeTraceJsonRoundTrips) {
  trace::start(trace::AllCategories, /*CapacityPerThread=*/64);
  trace::setThreadName("tester");
  {
    TXDPOR_TRACE_SPAN(Explore, ExpandItem, 1, 2);
    TXDPOR_TRACE_INSTANT(Parallel, Steal, 3);
    TXDPOR_TRACE_COUNTER(Parallel, Pending, 4);
  }
  trace::stop();
  std::ostringstream OS;
  trace::ChromeTraceOptions Opts;
  Opts.Counters = trace::counterSnapshot();
  Opts.Metadata.push_back({"command", "unit-test"});
  trace::writeChromeTrace(OS, trace::snapshot(), Opts);

  std::string Error;
  std::unique_ptr<JsonValue> Doc = parseJson(OS.str(), &Error);
  ASSERT_TRUE(Doc) << Error;
  const JsonValue *Events = Doc->find("traceEvents");
  ASSERT_TRUE(Events && Events->kind() == JsonValue::Kind::Array);
  unsigned Spans = 0, Instants = 0, Counters = 0, ThreadNames = 0;
  for (const JsonValue &Ev : Events->elements()) {
    const JsonValue *Ph = Ev.find("ph");
    ASSERT_TRUE(Ph);
    const std::string &Phase = Ph->asString();
    if (Phase == "X") {
      ++Spans;
      EXPECT_GE(Ev.find("dur")->asNumber(), 0.0);
      EXPECT_EQ(Ev.find("name")->asString(), "expand");
      EXPECT_EQ(Ev.find("cat")->asString(), "explore");
      EXPECT_EQ(Ev.find("args")->find("a0")->asNumber(), 1.0);
    } else if (Phase == "i") {
      ++Instants;
    } else if (Phase == "C") {
      ++Counters;
      EXPECT_EQ(Ev.find("args")->find("value")->asNumber(), 4.0);
    } else if (Phase == "M") {
      ++ThreadNames;
      EXPECT_EQ(Ev.find("name")->asString(), "thread_name");
    }
  }
  EXPECT_EQ(Spans, 1u);
  EXPECT_EQ(Instants, 1u);
  EXPECT_EQ(Counters, 1u);
  EXPECT_GE(ThreadNames, 1u);
  const JsonValue *Other = Doc->find("otherData");
  ASSERT_TRUE(Other);
  EXPECT_EQ(Other->find("command")->asString(), "unit-test");
  ASSERT_TRUE(Other->find("counters"));
  EXPECT_TRUE(Other->find("counters")->find("valid_writes_probes"));
}

TEST_F(TraceTest, ChromeTraceOfEmptySnapshotIsValidJson) {
  std::ostringstream OS;
  trace::writeChromeTrace(OS, trace::Snapshot());
  std::string Error;
  std::unique_ptr<JsonValue> Doc = parseJson(OS.str(), &Error);
  ASSERT_TRUE(Doc) << Error;
  const JsonValue *Events = Doc->find("traceEvents");
  ASSERT_TRUE(Events);
  EXPECT_TRUE(Events->elements().empty());
}

TEST_F(TraceTest, CountersBumpAndReset) {
  trace::resetCounters();
  EXPECT_EQ(trace::counterValue(trace::Counter::BulkRebuilds), 0u);
  trace::bump(trace::Counter::BulkRebuilds);
  trace::bump(trace::Counter::BulkRebuilds, 4);
  EXPECT_EQ(trace::counterValue(trace::Counter::BulkRebuilds), 5u);
  std::vector<std::pair<const char *, uint64_t>> Snap =
      trace::counterSnapshot();
  ASSERT_EQ(Snap.size(), trace::NumCounters);
  bool Seen = false;
  for (const auto &[CounterName, Value] : Snap)
    if (std::string(CounterName) == "bulk_rebuilds") {
      Seen = true;
      EXPECT_EQ(Value, 5u);
    }
  EXPECT_TRUE(Seen);
  trace::resetCounters();
  EXPECT_EQ(trace::counterValue(trace::Counter::BulkRebuilds), 0u);
}

} // namespace
