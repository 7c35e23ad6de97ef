//===- trace/Trace.h - Always-on tracing: spans, rings, registry ----------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime tracing layer behind `txdpor-cli --trace`: every thread that
/// emits an event owns a lock-free single-producer/single-consumer ring
/// buffer of fixed-size records, registered with a process-wide registry
/// that can snapshot all live buffers (for the Chrome trace-event dump,
/// trace/ChromeTrace.h).
///
/// **Overhead contract.** Tracing is always compiled in but gated by a
/// runtime category mask in one global atomic:
///
///   * *disabled* (the default): a span costs one relaxed atomic load and
///     one predictable branch — no clock read, no allocation, no lock;
///   * *enabled*: two steady_clock reads plus one ring-buffer store per
///     span; still no locks and no allocation on the hot path (buffers are
///     created once per thread, under the registry mutex).
///
/// The `TXDPOR_TRACE_*` macros are the instrumentation surface; defining
/// `TXDPOR_DISABLE_TRACING` compiles them away entirely.
///
/// **Ring-buffer protocol.** Each buffer is SPSC: the owning thread is the
/// only producer (plain slot store, then a release store of the write
/// index); the snapshotting thread is the only consumer (acquire load of
/// the write index, plain slot reads, optional release store of the read
/// index). A full buffer *drops* the new record and counts it — it never
/// overwrites unread slots, so concurrent non-consuming snapshots are safe
/// while workers keep emitting (exercised under TSan by trace_test).
///
/// **Session contract.** start(), stop() and consuming snapshots must not
/// race with each other; the intended use is start → run workload (any
/// number of emitting threads, optionally concurrent *non-consuming*
/// snapshots) → join/quiesce → stop → snapshot → write.
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_TRACE_TRACE_H
#define TXDPOR_TRACE_TRACE_H

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace txdpor {
namespace trace {

/// Event categories; each is one bit of the runtime enable mask, so
/// `--trace-categories=parallel,check` records exactly those layers.
enum class Category : uint8_t {
  Explore,  ///< Engine expansion: expandItem, ValidWrites fan-out.
  Swap,     ///< Commit fan-out: reorderings, swap-child construction.
  Check,    ///< Commit tests: state rebuilds, readsLatest, the filter.
  Replay,   ///< Executor: incremental cursor replay after swaps.
  Parallel, ///< Parallel driver: split phase, workers, steals, idling.
  Fuzz,     ///< Differential fuzzer: per-case spans.
};
constexpr unsigned NumCategories = 6;
constexpr uint32_t AllCategories = (1u << NumCategories) - 1;

/// Lower-case name used in the Chrome trace "cat" field and in
/// `--trace-categories` specs.
const char *categoryName(Category C);

/// Parses a `--trace-categories` spec: "all" or a comma-separated list of
/// category names. Returns the enable mask, or nullopt on any unknown
/// name (the CLI turns that into a diagnostic naming the bad token via
/// \p BadToken).
std::optional<uint32_t> parseCategories(const std::string &Spec,
                                        std::string *BadToken = nullptr);

/// Statically-interned event names: records store a 16-bit id instead of
/// a string, keeping them fixed-size and the hot path allocation-free.
enum class Name : uint16_t {
  ExpandItem,    ///< One engine expansion (arg0 = node depth).
  ValidWrites,   ///< §5.1 commit-test fan-out (arg0 = var, arg1 = probes).
  CommitFanout,  ///< Swap-candidate loop after a commit (arg0 = #cands).
  SwapChild,     ///< One swap child: applySwap + state + optimality.
  ReadsLatest,   ///< One readLatest_I evaluation (§5.3).
  BulkRebuild,   ///< ConstraintState bulk constructor (arg0 = #txns).
  PrefixReplay,  ///< Incremental continuation of a cached prefix state
                 ///< (arg0 = first replayed block, arg1 = #blocks).
  ReplayCursors, ///< replayCursorsFrom (arg0 = first dirty block).
  SplitPhase,    ///< Parallel BFS split (arg0 = frontier items).
  Worker,        ///< One worker thread's whole run (arg0 = worker id).
  Idle,          ///< A worker parked waiting for stealable work.
  Steal,         ///< Instant: successful steal (arg0 = victim worker).
  Pending,       ///< Counter: global pending-item count at sample time.
  FuzzCase,      ///< One differential-fuzz case (arg0 = case index).
  Filter,        ///< explore-ce* filter check of one end state (§6;
                 ///< arg0 = #txns, arg1 = 1 if it passed).
};

/// Display string of \p N (the Chrome trace "name" field).
const char *name(Name N);

/// What a record represents; maps onto Chrome trace-event phases.
enum class RecordKind : uint8_t {
  Span,    ///< Duration event ("ph":"X"): [StartNs, EndNs].
  Instant, ///< Point event ("ph":"i") at StartNs.
  Counter, ///< Counter sample ("ph":"C") at StartNs, value in Arg0.
};

/// One fixed-size trace record (48 bytes). Timestamps are nanoseconds of
/// steady_clock since the session epoch set by start().
struct Record {
  uint64_t StartNs = 0;
  uint64_t EndNs = 0; ///< 0 for Instant/Counter records.
  uint64_t Arg0 = 0;
  uint64_t Arg1 = 0;
  Name Id = Name::ExpandItem;
  Category Cat = Category::Explore;
  RecordKind Kind = RecordKind::Span;
};

namespace detail {
/// The global category mask; 0 = tracing disabled. Read on every
/// potential emission (relaxed — emitters may observe an enable/disable
/// a little late, which only adds/loses a borderline record).
extern std::atomic<uint32_t> EnabledMask;
} // namespace detail

/// True if events of \p C are currently recorded. The only check on the
/// disabled hot path.
inline bool enabled(Category C) {
  return detail::EnabledMask.load(std::memory_order_relaxed) &
         (1u << static_cast<unsigned>(C));
}

/// True if any category is enabled.
inline bool active() {
  return detail::EnabledMask.load(std::memory_order_relaxed) != 0;
}

/// Default per-thread ring capacity (records). 1<<16 records × 48 bytes =
/// 3 MiB per emitting thread.
constexpr size_t DefaultCapacity = size_t(1) << 16;

/// Starts a tracing session: resets every registered buffer (resizing to
/// \p CapacityPerThread), sets the session epoch, then enables \p Mask.
/// Must not race with emitters (see the session contract above).
void start(uint32_t Mask = AllCategories,
           size_t CapacityPerThread = DefaultCapacity);

/// Disables all recording; buffered records stay available to snapshot().
void stop();

/// Nanoseconds of steady_clock since the session epoch.
uint64_t nowNs();

/// Emits a completed span [\p StartNs, now]; no-op when \p C is disabled
/// at emission time.
void emitSpan(Category C, Name N, uint64_t StartNs, uint64_t EndNs,
              uint64_t Arg0 = 0, uint64_t Arg1 = 0);

/// Emits an instant event at the current time.
void emitInstant(Category C, Name N, uint64_t Arg0 = 0, uint64_t Arg1 = 0);

/// Emits a counter sample (\p Value) at the current time.
void emitCounterSample(Category C, Name N, uint64_t Value);

/// Names the calling thread in trace dumps ("worker-3"); safe to call
/// whether or not tracing is enabled. Registers no buffer: a thread that
/// never records (every thread of an untraced run) costs no ring.
void setThreadName(const std::string &ThreadName);

/// All records of one thread's buffer at snapshot time.
struct ThreadRecords {
  uint32_t Tid = 0;          ///< Sequential registration id (1-based).
  std::string ThreadName;    ///< From setThreadName(); may be empty.
  std::vector<Record> Records;
  uint64_t Dropped = 0;      ///< Records lost to a full ring.
};

/// A snapshot of every registered buffer.
struct Snapshot {
  std::vector<ThreadRecords> Threads;
  size_t CapacityPerThread = 0;
  /// Sum of all per-thread record counts.
  size_t totalRecords() const;
  /// Sum of all per-thread drop counts.
  uint64_t totalDropped() const;
};

/// Reads every registered buffer. With \p Consume the read index advances
/// (slots become reusable — the bounded-memory drain mode); without it the
/// records stay buffered, and the snapshot may run concurrently with
/// active emitters (SPSC: it only reads slots published before its
/// acquire of the write index).
Snapshot snapshot(bool Consume = false);

/// RAII span: reads the clock at construction if the category is enabled
/// and emits the completed span at destruction. Arguments can be filled
/// in late (e.g. a count only known at the end of the spanned region).
class SpanGuard {
public:
  SpanGuard(Category C, Name N, uint64_t Arg0 = 0, uint64_t Arg1 = 0) {
    if (enabled(C)) {
      Cat = C;
      Id = N;
      A0 = Arg0;
      A1 = Arg1;
      StartNs = nowNs();
      Armed = true;
    }
  }
  ~SpanGuard() { end(); }
  SpanGuard(const SpanGuard &) = delete;
  SpanGuard &operator=(const SpanGuard &) = delete;

  /// Overwrites the span's arguments (recorded at destruction).
  void setArgs(uint64_t Arg0, uint64_t Arg1 = 0) {
    A0 = Arg0;
    A1 = Arg1;
  }
  /// Emits the span now instead of at scope exit (for a named guard whose
  /// region ends mid-scope); further calls and the destructor are no-ops.
  void end() {
    if (Armed) {
      Armed = false;
      emitSpan(Cat, Id, StartNs, nowNs(), A0, A1);
    }
  }
  /// True if this guard will emit (the category was enabled at entry).
  bool armed() const { return Armed; }

private:
  uint64_t StartNs = 0, A0 = 0, A1 = 0;
  Category Cat = Category::Explore;
  Name Id = Name::ExpandItem;
  bool Armed = false;
};

/// Drop-in stand-in for SpanGuard when TXDPOR_DISABLE_TRACING compiles
/// the macros away.
struct NullSpan {
  void setArgs(uint64_t, uint64_t = 0) {}
  void end() {}
  bool armed() const { return false; }
};

} // namespace trace
} // namespace txdpor

//===----------------------------------------------------------------------===//
// Instrumentation macros
//===----------------------------------------------------------------------===//

#define TXDPOR_TRACE_CONCAT_IMPL(A, B) A##B
#define TXDPOR_TRACE_CONCAT(A, B) TXDPOR_TRACE_CONCAT_IMPL(A, B)

#ifndef TXDPOR_DISABLE_TRACING
/// Declares an RAII span for the rest of the enclosing scope:
///   TXDPOR_TRACE_SPAN(Explore, ExpandItem, Depth);
#define TXDPOR_TRACE_SPAN(CAT, NAME, ...)                                     \
  ::txdpor::trace::SpanGuard TXDPOR_TRACE_CONCAT(TxdporTraceSpan, __LINE__)(  \
      ::txdpor::trace::Category::CAT, ::txdpor::trace::Name::NAME,            \
      ##__VA_ARGS__)
/// Like TXDPOR_TRACE_SPAN but names the guard so args can be set late.
#define TXDPOR_TRACE_SPAN_NAMED(VAR, CAT, NAME, ...)                          \
  ::txdpor::trace::SpanGuard VAR(::txdpor::trace::Category::CAT,              \
                                 ::txdpor::trace::Name::NAME, ##__VA_ARGS__)
/// Emits an instant event.
#define TXDPOR_TRACE_INSTANT(CAT, NAME, ...)                                  \
  ::txdpor::trace::emitInstant(::txdpor::trace::Category::CAT,                \
                               ::txdpor::trace::Name::NAME, ##__VA_ARGS__)
/// Emits a counter sample.
#define TXDPOR_TRACE_COUNTER(CAT, NAME, VALUE)                                \
  ::txdpor::trace::emitCounterSample(::txdpor::trace::Category::CAT,          \
                                     ::txdpor::trace::Name::NAME, (VALUE))
#else
#define TXDPOR_TRACE_SPAN(CAT, NAME, ...) ((void)0)
#define TXDPOR_TRACE_SPAN_NAMED(VAR, CAT, NAME, ...)                          \
  ::txdpor::trace::NullSpan VAR
#define TXDPOR_TRACE_INSTANT(CAT, NAME, ...) ((void)0)
#define TXDPOR_TRACE_COUNTER(CAT, NAME, VALUE) ((void)0)
#endif

#endif // TXDPOR_TRACE_TRACE_H
