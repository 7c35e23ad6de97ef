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
  State = ConstraintState(Win, Opts.Levels,
                          std::max(InitialCapacity, Win.numTxns() + 1));
  ReadsFrom = Relation(State.capacity());
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
      if (!State.writesVar(*WIdx, E.Var))
        return malformed(Diag, "writer " + Writer->str() +
                                   " does not visibly write x" +
                                   std::to_string(E.Var) + " (read in " +
                                   Uid.str() + ")");
      WriterIdxScratch[Pos] = *WIdx;
      break;
    }
    }
  }

  // Phase 2: replay the record through the constraint state, then copy
  // it into the window whole. Only an anomaly can interrupt this, and an
  // anomaly is terminal — the transaction truncated at the violating
  // read and committed *is* the witness.
  reserveCapacity();
  const unsigned Idx = Win.numTxns();
  State.applyBegin(Uid);
  for (uint32_t Pos = 1; Pos != Len; ++Pos) {
    const Event &E = Log.event(Pos);
    unsigned WIdx = WriterIdxScratch[Pos];
    if (E.isRead() && WIdx != NoWriter) {
      ++Stats.ExternalReads;
      // No readAdmits probe first: an anomaly is terminal and the state is
      // never consulted after one, so applying the read and testing the
      // verdict is one edge collection instead of two.
      State.applyExternalRead(WIdx, E.Var);
      if (WIdx != 0)
        ReadsFrom.set(Idx, WIdx);
      if (State.consistent())
        continue;
      // Commit the truncated transaction at the violating read: the
      // window becomes a standalone witness.
      TransactionLog Witness = Log.truncated(Pos + 1);
      Witness.append(Event::makeCommit());
      Win.appendLog(std::move(Witness));
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
    if (E.Kind == EventKind::Commit)
      State.applyCommit(Log);
    else if (E.Kind == EventKind::Abort)
      State.applyAbort();
  }
  Win.appendLog(Log);

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
  if (Win.numTxns() < State.capacity())
    return;
  State.grow(2 * State.capacity());
  ReadsFrom.grow(State.capacity());
}

void StreamingChecker::runGc() {
  ++Stats.GcPasses;
  const unsigned N = Win.numTxns();

  // Candidate set: E3 exempts the YoungExempt most recently ingested
  // transactions (a multi-transaction access pattern must not lose its
  // writers to a pass firing between its transactions); E1 keeps the
  // latest committed in-window writer of every variable — the last
  // writer bit of the variable, since the state's writer bits list the
  // committed visible writers in block order. Aborted transactions have
  // no writer bits and stay candidates.
  Evict.assign(N, 0);
  for (unsigned I = 1; I + YoungExempt < N; ++I)
    Evict[I] = 1;
  for (VarId V = 0; V != Opts.NumVars; ++V)
    Evict[State.lastCommittedWriter(V)] = 0;

  // E2 in one pass against the non-candidates: a candidate reached from a
  // candidate that some retained transaction keeps is reached from that
  // retained one too — constrainedByAny reads a transitively closed
  // relation — so testing against the initial retained set needs no
  // fixpoint.
  const size_t MaskWords = (N + 63) / 64;
  Retained.assign(MaskWords, 0);
  for (unsigned J = 1; J != N; ++J)
    if (!Evict[J])
      Retained[J / 64] |= uint64_t(1) << (J % 64);
  EvictedMask.assign(MaskWords, 0);
  EvictedUids.clear();
  Keep.clear();
  Keep.push_back(0);
  for (unsigned I = 1; I != N; ++I) {
    if (Evict[I] && State.constrainedByAny(I, Retained))
      Evict[I] = 0;
    if (!Evict[I]) {
      Keep.push_back(I);
      continue;
    }
    EvictedMask[I / 64] |= uint64_t(1) << (I % 64);
    EvictedUids.push_back(Win.txn(I).uid().packed());
  }
  const unsigned Evicted = static_cast<unsigned>(EvictedUids.size());

  if (!Evicted) {
    // Nothing evictable at this size: back off before trying again, so a
    // window pinned by long-lived versions doesn't re-run the pass on
    // every append.
    NextGcAt = (N - 1) + std::max(Opts.WindowBudget / 4, 8u);
    return;
  }

  for (VarId V = 0; V != Opts.NumVars; ++V)
    if (State.committedWriterIn(V, EvictedMask))
      EvictedWriterOfVar[V] = 1;

  // Retained readers may still read from evicted writers — co-evicting
  // them instead would pin the entire wr ancestry of the live frontier
  // and the window would never shrink. The constraints those reads
  // induced are frozen in the closure (the compaction below keeps them),
  // so only the dangling read *events* must go: drop them from each such
  // reader, found by its ReadsFrom row, before dropping the writers.
  std::sort(EvictedUids.begin(), EvictedUids.end());
  auto EvictedWriter = [&](TxnUid W) {
    return std::binary_search(EvictedUids.begin(), EvictedUids.end(),
                              W.packed());
  };
  for (unsigned I : Keep) {
    const uint64_t *Row = ReadsFrom.rowWords(I);
    for (size_t W = 0; W != MaskWords; ++W)
      if (Row[W] & EvictedMask[W]) {
        Stats.ReadsForgotten += Win.forgetReads(I, EvictedWriter);
        break;
      }
  }

  Relation::runsOf(Keep, KeepRuns);
  State.compact(KeepRuns);
  ReadsFrom.compact(KeepRuns, N);
  Win.retainBlocks(Keep);
  Stats.Evicted += Evicted;
  trace::bump(trace::Counter::StreamEvictions, Evicted);

  unsigned NewSize = Win.numTxns() - 1;
  NextGcAt = NewSize < Opts.WindowBudget
                 ? Opts.WindowBudget
                 : NewSize + std::max(Opts.WindowBudget / 4, 8u);
}
