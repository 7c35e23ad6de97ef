//===- consistency/StreamingChecker.h - Windowed online checking ----------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Online isolation checking of unbounded traces of committed
/// transactions: a ConstraintState (the PR-5 incremental commit test)
/// wrapped in a *window* that garbage-collects the decided prefix so
/// memory stays bounded on arbitrarily long inputs.
///
/// **Window invariant.** The retained window, together with the
/// compacted constraint closure, decides every future transaction
/// exactly as the full history would — or the checker refuses with an
/// explicit stale-read instead of guessing. Eviction never creates a
/// false anomaly (window edges are a subset of full-history edges) and
/// never loses a true one (see the eviction rule), so
///
///     streaming verdict ∈ { full-history verdict, StaleRead refusal }.
///
/// **Eviction rule.** A completed non-init transaction T may leave the
/// window only when all three hold, decided in one GC pass (E2 over a
/// transitively closed relation needs no fixpoint: a candidate reached
/// from an un-evicted candidate is reached from that one's retainer):
///
///   (E1) every variable T visibly writes has a later committed
///        in-window writer (or T aborted) — T can never again be the
///        "latest" version anyone must read;
///   (E2) no *retained* non-init transaction reaches T in the maintained
///        constraint closure — every future edge targets either a writer
///        of a new read (in-window, or the read is refused) or the new
///        transaction itself, so nothing can ever point at T again and
///        no future cycle can thread through it: any full-history cycle
///        touching the evicted set would need an edge into it;
///   (E3) T is not among the YoungExempt most recently ingested
///        transactions — a GC pass firing between the transactions of a
///        short access pattern must not take the pattern's writers.
///
/// Deliberately *not* required: that T's in-window readers leave with it.
/// Co-evicting readers would pin the whole wr ancestry of the live
/// frontier (every retained reader keeps its writer, which keeps *its*
/// writer, back to the first transaction) and the window would never
/// shrink. Instead, retained readers forget their reads-from-evicted-
/// writers, edited in place (History::forgetReads): those reads'
/// axiom instances are already frozen in the constraint closure, and a
/// completed transaction's premises never grow again, so dropping the
/// events loses nothing the state needs — only Explain's re-derivation
/// over the window sees fewer edges (a subset: conservative).
///
/// The constraint closure is *compacted by submatrix restriction*, in
/// place, not rebuilt from the window history: forced edges between
/// retained transactions that were derived from evicted readers are
/// genuine constraints of the full trace and must survive
/// (ConstraintState::compact). The closure already holds paths
/// *through* evicted transactions as direct retained-to-retained edges,
/// which is what keeps cycle detection complete after their interior
/// nodes are gone.
///
/// **What is no longer decidable after GC.** A read naming an evicted
/// writer cannot be checked (its premise left the window) → StaleRead.
/// A read-from-init of variable v is only exact while no committed
/// writer of v has ever been evicted: an evicted writer in the reader's
/// premise would force an (instantly cyclic) edge into init that the
/// window cannot see, so such reads also refuse with StaleRead rather
/// than under-approximate. Every other verdict is exact.
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_CONSISTENCY_STREAMINGCHECKER_H
#define TXDPOR_CONSISTENCY_STREAMINGCHECKER_H

#include "consistency/IncrementalChecker.h"
#include "history/History.h"

#include <string>
#include <unordered_map>

namespace txdpor {

/// Configuration of one streaming run.
struct StreamingOptions {
  /// Assignment to check under; must be prefix-closed and causally
  /// extensible (true/RC/RA/CC, uniform or per-session).
  LevelAssignment Levels;
  /// Size of the variable universe (from the trace header).
  unsigned NumVars = 0;
  /// Declared session count; when set, records naming a session at or
  /// beyond it are malformed.
  std::optional<unsigned> NumSessions;
  /// Window budget in non-init transactions: GC runs whenever the window
  /// reaches it. 0 = never evict (exact, unbounded memory). The budget
  /// is a target — when eviction cannot keep up (a trace that keeps old
  /// versions premise-reachable), the window grows past it and GC backs
  /// off with hysteresis instead of thrashing.
  unsigned WindowBudget = 0;
};

/// Outcome of one append — and, once not Ok, of the whole run.
enum class StreamStatus : uint8_t {
  Ok,        ///< Consistent so far.
  Anomaly,   ///< Isolation violation: the trace is inconsistent.
  StaleRead, ///< Refusal: a read's premise left the window (see file
             ///  comment); re-run with a larger budget for a verdict.
  Malformed  ///< The record is not a valid trace transaction.
};

/// Run statistics (also mirrored into the process-wide stream counters).
struct StreamingStats {
  uint64_t Txns = 0;          ///< Transactions ingested.
  uint64_t Events = 0;        ///< Events ingested (log sizes summed).
  uint64_t ExternalReads = 0; ///< External reads checked.
  uint64_t Evicted = 0;       ///< Transactions garbage-collected.
  uint64_t GcPasses = 0;      ///< GC passes that ran (evicting or not).
  uint64_t ReadsForgotten = 0; ///< Reads dropped from retained readers
                               ///  whose writer was evicted.
  unsigned PeakWindow = 0;    ///< High-water window size (non-init txns).
};

/// The windowed online checker. Feed completed transactions in commit
/// order via append(); the first non-Ok status ends the run.
class StreamingChecker {
public:
  /// Number of most-recently-ingested transactions exempt from eviction
  /// (rule E3): writers of an in-flight multi-transaction pattern stay
  /// put even when a GC pass fires in the middle of the pattern.
  static constexpr unsigned YoungExempt = 4;

  explicit StreamingChecker(const StreamingOptions &Opts);

  /// Ingests the next completed transaction. On Malformed/StaleRead the
  /// window is left untouched (the record is rejected whole); on Anomaly
  /// the offending read is materialized in the window for reporting.
  /// \p Diag receives a description for every non-Ok status.
  StreamStatus append(const TransactionLog &Log, std::string *Diag = nullptr);

  /// Status of the run so far (the first non-Ok append sticks).
  StreamStatus status() const { return Status; }

  const StreamingStats &stats() const { return Stats; }
  const LevelAssignment &levels() const { return Opts.Levels; }
  unsigned windowBudget() const { return Opts.WindowBudget; }

  /// The current window as a history (init + retained transactions, in
  /// ingestion order). After an Anomaly this *includes* the offending
  /// transaction truncated at its violating read and committed — a
  /// standalone witness for Explain/repro, inconsistent under levels()
  /// unless the cycle threads through constraints inherited from the
  /// evicted prefix or from forgotten reads (then explainViolation
  /// reports consistent and the caller falls back to the textual
  /// diagnosis).
  const History &window() const { return Win; }

  /// Uid of the transaction whose read violated the assignment (valid
  /// after an Anomaly).
  TxnUid anomalyTxn() const { return AnomalyUid; }

private:
  StreamStatus malformed(std::string *Diag, const std::string &Message);
  StreamStatus staleRead(std::string *Diag, const std::string &Message);
  /// Grows the state capacity when the next begin would overflow it.
  void reserveCapacity();
  /// Runs one GC pass (E1-E3), compacting window + state.
  void runGc();

  StreamingOptions Opts;
  History Win;
  ConstraintState State;
  StreamStatus Status = StreamStatus::Ok;
  StreamingStats Stats;
  TxnUid AnomalyUid = TxnUid::init();
  /// Highest transaction index seen per session — distinguishes stale
  /// (seen, evicted) from unknown (never seen) writers, and enforces
  /// per-session monotonicity.
  std::unordered_map<uint32_t, uint32_t> LastIndexOfSession;
  /// Per-variable flag: some committed writer of this variable has been
  /// evicted, so reads-from-init of it are no longer decidable.
  std::vector<uint8_t> EvictedWriterOfVar;
  /// Next window size (non-init txns) at which GC fires; grows with
  /// hysteresis when a pass cannot evict enough.
  unsigned NextGcAt = 0;
  /// The window's wr edges from non-init writers, over window indices
  /// (row = reader): a GC pass edits only the readers whose row meets the
  /// evicted set. Compacted and grown along with State.
  Relation ReadsFrom;
  /// Scratch for append(): resolved writer index per event position.
  std::vector<unsigned> WriterIdxScratch;
  /// runGc scratch, reused across passes so a pass allocates nothing:
  /// per window index whether it leaves; the non-candidates and the
  /// evicted as bitsets over window indices; the evicted uids (packed,
  /// sorted for lookup); the retained indices in ascending order, and as
  /// runs.
  std::vector<uint8_t> Evict;
  std::vector<uint64_t> Retained;
  std::vector<uint64_t> EvictedMask;
  std::vector<uint64_t> EvictedUids;
  std::vector<unsigned> Keep;
  std::vector<Relation::Run> KeepRuns;
};

} // namespace txdpor

#endif // TXDPOR_CONSISTENCY_STREAMINGCHECKER_H
