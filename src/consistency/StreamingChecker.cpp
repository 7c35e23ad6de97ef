//===- consistency/StreamingChecker.cpp - Windowed online checking --------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "consistency/StreamingChecker.h"

#include "trace/Counters.h"

#include <algorithm>

using namespace txdpor;

namespace {

/// Sentinel of WriterIdxScratch slots without a resolved external writer.
constexpr unsigned NoWriter = ~0u;

/// Initial ConstraintState capacity; doubled on demand, so a tiny start
/// only costs a few O(N²) regrow copies before the window stabilizes.
constexpr unsigned InitialCapacity = 64;

} // namespace

StreamingChecker::StreamingChecker(const StreamingOptions &Opts) : Opts(Opts) {
  assert(Opts.Levels.allPrefixClosedCausallyExtensible() &&
         "streaming requires a prefix-closed causally-extensible assignment");
  Win = History::makeInitial(Opts.NumVars);
  Capacity = std::max(InitialCapacity, Win.numTxns() + 1);
  State = ConstraintState(Win, Opts.Levels, Capacity);
  EvictedWriterOfVar.assign(Opts.NumVars, 0);
  NextGcAt = Opts.WindowBudget;
}

StreamStatus StreamingChecker::malformed(std::string *Diag,
                                         const std::string &Message) {
  if (Diag)
    *Diag = Message;
  Status = StreamStatus::Malformed;
  return Status;
}

StreamStatus StreamingChecker::staleRead(std::string *Diag,
                                         const std::string &Message) {
  if (Diag)
    *Diag = Message;
  Status = StreamStatus::StaleRead;
  return Status;
}

StreamStatus StreamingChecker::append(const TransactionLog &Log,
                                      std::string *Diag) {
  assert(Status == StreamStatus::Ok && "append after a terminal status");

  // Phase 1: validate the whole record and resolve every wr writer to a
  // window index, touching nothing — a rejected record must leave the
  // window exactly as it was.
  TxnUid Uid = Log.uid();
  if (Uid.isInit())
    return malformed(Diag, "duplicate init transaction");
  if (Opts.NumSessions && Uid.Session >= *Opts.NumSessions)
    return malformed(Diag, "transaction " + Uid.str() +
                               " names an unknown session (header declares " +
                               std::to_string(*Opts.NumSessions) + ")");
  auto LastIt = LastIndexOfSession.find(Uid.Session);
  if (LastIt != LastIndexOfSession.end() && Uid.Index <= LastIt->second)
    return malformed(Diag, "duplicate or out-of-order transaction " +
                               Uid.str() + " (session already at index " +
                               std::to_string(LastIt->second) + ")");
  if (Log.size() < 2 || Log.event(0).Kind != EventKind::Begin)
    return malformed(Diag, "transaction record " + Uid.str() +
                               " must start with begin");
  if (Log.isPending())
    return malformed(Diag, "transaction record " + Uid.str() +
                               " without commit/abort");

  uint32_t Len = static_cast<uint32_t>(Log.size());
  WriterIdxScratch.assign(Len, NoWriter);
  for (uint32_t Pos = 1; Pos + 1 != Len; ++Pos) {
    const Event &E = Log.event(Pos);
    switch (E.Kind) {
    case EventKind::Begin:
    case EventKind::Commit:
    case EventKind::Abort:
      return malformed(Diag, "misplaced " +
                                 std::string(eventKindName(E.Kind)) +
                                 " event in transaction " + Uid.str());
    case EventKind::Write:
      if (E.Var >= Opts.NumVars)
        return malformed(Diag, "variable x" + std::to_string(E.Var) +
                                   " out of range in transaction " +
                                   Uid.str());
      break;
    case EventKind::Read: {
      if (E.Var >= Opts.NumVars)
        return malformed(Diag, "variable x" + std::to_string(E.Var) +
                                   " out of range in transaction " +
                                   Uid.str());
      std::optional<TxnUid> Writer = Log.writerOf(Pos);
      if (!Log.isExternalRead(Pos)) {
        if (Writer)
          return malformed(Diag, "wr dependency on an internal read in "
                                 "transaction " +
                                     Uid.str());
        break;
      }
      if (!Writer)
        return malformed(Diag, "external read of x" + std::to_string(E.Var) +
                                   " without a writer in transaction " +
                                   Uid.str());
      if (*Writer == Uid)
        return malformed(Diag, "transaction " + Uid.str() +
                                   " reads from itself");
      if (Writer->isInit()) {
        if (EvictedWriterOfVar[E.Var])
          return staleRead(
              Diag, "read of x" + std::to_string(E.Var) + " from init in " +
                        Uid.str() +
                        " is undecidable: a committed writer of x" +
                        std::to_string(E.Var) +
                        " left the window (raise the window budget)");
        WriterIdxScratch[Pos] = 0;
        break;
      }
      std::optional<unsigned> WIdx = Win.indexOf(*Writer);
      if (!WIdx) {
        auto WriterLast = LastIndexOfSession.find(Writer->Session);
        if (WriterLast != LastIndexOfSession.end() &&
            Writer->Index <= WriterLast->second)
          return staleRead(Diag,
                           "read of x" + std::to_string(E.Var) + " in " +
                               Uid.str() + " names writer " + Writer->str() +
                               ", which left the window (raise the window "
                               "budget)");
        return malformed(Diag, "read from unknown transaction " +
                                   Writer->str() + " in " + Uid.str());
      }
      if (!Win.txn(*WIdx).writesVar(E.Var))
        return malformed(Diag, "writer " + Writer->str() +
                                   " does not visibly write x" +
                                   std::to_string(E.Var) + " (read in " +
                                   Uid.str() + ")");
      WriterIdxScratch[Pos] = *WIdx;
      break;
    }
    }
  }

  // Phase 2: replay the record through the window history and the
  // constraint state. Only an anomaly can interrupt this, and an anomaly
  // is terminal — the partially-materialized transaction *is* the
  // witness.
  reserveCapacity();
  unsigned Idx = Win.beginTxn(Uid);
  State.applyBegin(Uid);
  for (uint32_t Pos = 1; Pos != Len; ++Pos) {
    const Event &E = Log.event(Pos);
    unsigned WIdx = WriterIdxScratch[Pos];
    if (E.isRead() && WIdx != NoWriter) {
      ++Stats.ExternalReads;
      Win.appendEvent(Idx, E);
      Win.setWriter(Idx, static_cast<uint32_t>(Win.txn(Idx).size()) - 1,
                    Win.txn(WIdx).uid());
      // No readAdmits probe first: an anomaly is terminal and the state is
      // never consulted after one, so applying the read and testing the
      // verdict is one edge collection instead of two.
      State.applyExternalRead(WIdx, E.Var);
      if (State.consistent())
        continue;
      // Commit the truncated transaction at the violating read: the
      // window becomes a standalone witness.
      Win.appendEvent(Idx, Event::makeCommit());
      AnomalyUid = Uid;
      Status = StreamStatus::Anomaly;
      if (Diag)
        *Diag = "isolation violation: read of x" + std::to_string(E.Var) +
                " from " + Win.txn(WIdx).uid().str() + " in " + Uid.str() +
                " closes a commit-order cycle at " +
                isolationLevelName(Opts.Levels.levelFor(Uid.Session)) +
                " (assignment " + Opts.Levels.str() + ")";
      return Status;
    }
    Win.appendEvent(Idx, E);
    if (E.Kind == EventKind::Commit)
      State.applyCommit(Win.txn(Idx));
    else if (E.Kind == EventKind::Abort)
      State.applyAbort();
  }

  LastIndexOfSession[Uid.Session] = Uid.Index;
  ++Stats.Txns;
  Stats.Events += Log.size();
  unsigned WindowSize = Win.numTxns() - 1;
  Stats.PeakWindow = std::max(Stats.PeakWindow, WindowSize);
  trace::bump(trace::Counter::StreamTxns);
  trace::bumpMax(trace::Counter::StreamPeakWindow, WindowSize);

  if (Opts.WindowBudget && WindowSize >= NextGcAt)
    runGc();
  return Status;
}

void StreamingChecker::reserveCapacity() {
  if (Win.numTxns() < Capacity)
    return;
  std::vector<unsigned> Keep(Win.numTxns());
  for (unsigned I = 0; I != Win.numTxns(); ++I)
    Keep[I] = I;
  Capacity *= 2;
  State = ConstraintState(State, Keep, Capacity);
}

void StreamingChecker::runGc() {
  ++Stats.GcPasses;
  unsigned N = Win.numTxns();

  // Latest committed in-window writer of each variable — the E1 test.
  std::vector<unsigned> LatestWriter(Opts.NumVars, 0);
  for (unsigned I = 1; I != N; ++I)
    if (Win.txn(I).isCommitted())
      for (VarId V : Win.txn(I).writtenVars())
        LatestWriter[V] = I;

  // Candidate set: E1 over the tenured generation (the YoungExempt most
  // recently ingested transactions never leave — a multi-transaction
  // access pattern must not lose its writers to a pass firing between
  // its transactions), then shrink by E2 in one pass. Un-evicting a
  // candidate makes it a retainer, but whatever it reaches is reached
  // directly from its own retaining ancestor — constrains() reads a
  // transitively closed relation — so no fixpoint iteration is needed.
  std::vector<uint8_t> Evict(N, 0);
  for (unsigned I = 1; I + YoungExempt < N; ++I) {
    const TransactionLog &L = Win.txn(I);
    if (L.isAborted()) {
      Evict[I] = 1;
      continue;
    }
    bool Superseded = true;
    for (VarId V : L.writtenVars())
      if (LatestWriter[V] == I) {
        Superseded = false;
        break;
      }
    Evict[I] = Superseded;
  }
  for (unsigned I = 1; I + YoungExempt < N; ++I) {
    if (!Evict[I])
      continue;
    for (unsigned J = 1; J != N; ++J)
      if (!Evict[J] && State.constrains(J, I)) {
        Evict[I] = 0;
        break;
      }
  }

  unsigned Evicted = 0;
  std::vector<unsigned> Keep;
  Keep.reserve(N);
  Keep.push_back(0);
  for (unsigned I = 1; I != N; ++I) {
    if (!Evict[I]) {
      Keep.push_back(I);
      continue;
    }
    ++Evicted;
    if (Win.txn(I).isCommitted())
      for (VarId V : Win.txn(I).writtenVars())
        EvictedWriterOfVar[V] = 1;
  }

  if (!Evicted) {
    // Nothing evictable at this size: back off before trying again, so a
    // window pinned by long-lived versions doesn't re-run the pass on
    // every append.
    NextGcAt = (N - 1) + std::max(Opts.WindowBudget / 4, 8u);
    return;
  }

  // Retained readers may still read from evicted writers — co-evicting
  // them instead would pin the entire wr ancestry of the live frontier
  // and the window would never shrink. The constraints those reads
  // induced are frozen in the closure (the submatrix copy below keeps
  // them), so only the dangling read *events* must go: rewrite each such
  // reader without them before dropping the writers.
  for (unsigned I = 1; I != N; ++I) {
    if (Evict[I])
      continue;
    const TransactionLog &L = Win.txn(I);
    uint32_t Len = static_cast<uint32_t>(L.size());
    bool HasStale = false;
    for (uint32_t Pos = 0; Pos != Len && !HasStale; ++Pos)
      if (L.event(Pos).isRead())
        if (std::optional<TxnUid> W = L.writerOf(Pos))
          if (!W->isInit() && Evict[*Win.indexOf(*W)])
            HasStale = true;
    if (!HasStale)
      continue;
    TransactionLog NewLog(L.uid());
    for (uint32_t Pos = 0; Pos != Len; ++Pos) {
      const Event &E = L.event(Pos);
      std::optional<TxnUid> W = L.writerOf(Pos);
      if (E.isRead() && W && !W->isInit() && Evict[*Win.indexOf(*W)]) {
        ++Stats.ReadsForgotten;
        continue;
      }
      NewLog.append(E);
      if (W)
        NewLog.setWriter(static_cast<uint32_t>(NewLog.size()) - 1, *W);
    }
    Win.replaceLog(I, std::move(NewLog));
  }

  State = ConstraintState(State, Keep, Capacity);
  Win.retainBlocks(Keep);
  Stats.Evicted += Evicted;
  trace::bump(trace::Counter::StreamEvictions, Evicted);

  unsigned NewSize = Win.numTxns() - 1;
  NextGcAt = NewSize < Opts.WindowBudget
                 ? Opts.WindowBudget
                 : NewSize + std::max(Opts.WindowBudget / 4, 8u);
}
