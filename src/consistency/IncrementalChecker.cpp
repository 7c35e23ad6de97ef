//===- consistency/IncrementalChecker.cpp - Incremental commit test -------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "consistency/IncrementalChecker.h"

#include "trace/Counters.h"
#include "trace/Trace.h"

#include <algorithm>
#include <optional>

using namespace txdpor;

namespace {

inline bool testBit(const uint64_t *Bits, unsigned I) {
  return (Bits[I / 64] >> (I % 64)) & 1;
}

inline void setBit(uint64_t *Bits, unsigned I) {
  Bits[I / 64] |= uint64_t(1) << (I % 64);
}

} // namespace

bool ConstraintState::insertClosureEdge(Relation &Preds, unsigned A,
                                        unsigned B) {
  if (A == B || Preds.get(A, B))
    return false; // The edge closes a cycle through an existing path.
  if (Preds.get(B, A))
    return true; // Already implied; the closure cannot change.
  Preds.orRow(B, A);
  Preds.set(B, A);
  // Every descendant of B gains A and A's ancestors as ancestors; one
  // that already had A as an ancestor holds A's ancestors by transitivity.
  for (unsigned I = 0; I != NumTxns; ++I)
    if (I != B && Preds.get(I, B) && !Preds.get(I, A))
      Preds.orRow(I, B);
  return true;
}

void ConstraintState::insertSinkEdge(Relation &Preds, unsigned A) {
  assert(HasOpen && A != OpenIdx && "sink edges end in the open transaction");
  // Nothing leaves the open sink, so it is the only transaction whose
  // ancestors grow: by A and A's ancestors.
  Preds.orRow(OpenIdx, A);
  Preds.set(OpenIdx, A);
}

void ConstraintState::beginBlock(unsigned Idx, TxnUid Uid) {
  assert(!Inconsistent && "extending an inconsistent state");
  assert(!HasOpen && "a transaction is already open");
  assert(!Uid.isInit() && "the initial transaction is tracked at build");
  assert(Idx == NumTxns && "blocks must be appended in order");
  assert(Idx < MaxN && "state capacity exceeded (wrong MaxTxns?)");

  NumTxns = Idx + 1;
  SessionOfTxn[Idx] = Uid.Session;
  HasOpen = true;
  OpenIdx = Idx;
  OpenLevel = Levels.levelFor(Uid.Session);
  OpenReads.clear();

  // Session-order edges end in the fresh sink, so they can never close a
  // cycle; so is transitive (§2.2.1), hence *every* earlier transaction
  // of the session is a direct predecessor, not just the last one. The
  // closures need only the edge from the latest of them: the initial
  // transaction (Def. 2.1) and every earlier one already reach it.
  unsigned Latest = 0;
  for (unsigned P = 0; P != Idx; ++P)
    if (P == 0 || SessionOfTxn[P] == Uid.Session) {
      SoWrPreds.set(Idx, P);
      Latest = P;
    }
  insertSinkEdge(CausalPreds, Latest);
  if (!TrivialOnly)
    insertSinkEdge(GPreds, Latest);
}

void ConstraintState::applyBegin(TxnUid Uid) { beginBlock(NumTxns, Uid); }

void ConstraintState::collectReadEdges(unsigned W, VarId Var,
                                       std::vector<Edge> &Out) const {
  Out.clear();
  const IsolationLevel L = OpenLevel;
  if (L == IsolationLevel::Trivial)
    return;

  // An edge the closure already implies can neither close a cycle nor
  // change the closure, so only non-implied edges are collected.
  auto AddForced = [&](unsigned From, unsigned To) {
    if (!GPreds.get(To, From))
      Out.push_back({From, To});
  };

  if (L == IsolationLevel::ReadCommitted) {
    // Event-granular premise (wr ∘ po): writers of the open transaction's
    // earlier reads. Later wr edges never grow an RC premise, so there is
    // no retroactive part.
    for (const ReadRec &R : OpenReads)
      if (R.Writer != W && writesVar(R.Writer, Var))
        AddForced(R.Writer, W);
    return;
  }

  assert((L == IsolationLevel::ReadAtomic ||
          L == IsolationLevel::CausalConsistency) &&
         "saturable levels only");
  // The premise before this read: the open transaction's direct so ∪ wr
  // predecessors (RA) resp. its causal past (CC), both one row.
  const uint64_t *Premise = L == IsolationLevel::ReadAtomic
                                ? SoWrPreds.rowWords(OpenIdx)
                                : CausalPreds.rowWords(OpenIdx);

  // (a) The new read's own axiom instances: premise ∩ writers(Var) → W.
  // The wr edge W → open also puts {W} (RA) resp. {W} ∪ causalPreds(W)
  // (CC) into the premise, but W itself is excluded (t2 ≠ t1) and a
  // causal predecessor T2 of W already reaches W in every closure, so its
  // forced edge (T2, W) is implied — those instances are skipped.
  const uint64_t *VarWriters = &WriterBits[static_cast<size_t>(Var) * Words];
  for (unsigned I = 0; I != Words; ++I) {
    uint64_t Bits = Premise[I] & VarWriters[I];
    while (Bits) {
      unsigned T2 = I * 64 + static_cast<unsigned>(__builtin_ctzll(Bits));
      Bits &= Bits - 1;
      if (T2 != W)
        AddForced(T2, W);
    }
  }

  // (b) Retroactive growth: the wr edge W → open enlarges φ(·, open) for
  // every earlier read of the open transaction (§2.2.2 quantifies over
  // the whole history's so ∪ wr, not a prefix of it) by W (RA) resp. by
  // W and W's causal past (CC), minus what the premise already held.
  auto GrownBy = [&](unsigned T2) {
    for (const ReadRec &R : OpenReads)
      if (T2 != R.Writer && writesVar(T2, R.Var))
        AddForced(T2, R.Writer);
  };
  if (testBit(Premise, W) || OpenReads.empty())
    return;
  GrownBy(W);
  if (L == IsolationLevel::ReadAtomic)
    return;
  const uint64_t *WPast = CausalPreds.rowWords(W);
  for (unsigned I = 0; I != Words; ++I) {
    uint64_t Bits = WPast[I] & ~Premise[I];
    while (Bits) {
      GrownBy(I * 64 + static_cast<unsigned>(__builtin_ctzll(Bits)));
      Bits &= Bits - 1;
    }
  }
}

namespace {

/// Cycle search over the edge graph with ≤ 64 nodes: Gray marks the DFS
/// stack, Done the finished nodes.
template <typename ArcFnT>
bool dfsCycle64(size_t K, ArcFnT Arc, size_t Node, uint64_t &Gray,
                uint64_t &Done) {
  Gray |= uint64_t(1) << Node;
  for (size_t J = 0; J != K; ++J) {
    if (J == Node || !Arc(Node, J))
      continue;
    if (Gray & (uint64_t(1) << J))
      return true;
    if (!(Done & (uint64_t(1) << J)) && dfsCycle64(K, Arc, J, Gray, Done))
      return true;
  }
  Gray &= ~(uint64_t(1) << Node);
  Done |= uint64_t(1) << Node;
  return false;
}

} // namespace

bool ConstraintState::createsCycle(const std::vector<Edge> &Edges) const {
  // A new cycle must use at least one new edge; between consecutive new
  // edges it follows (possibly empty) paths of the old acyclic graph,
  // which the maintained closure answers in O(1).
  for (const Edge &E : Edges)
    if (GPreds.get(E.From, E.To))
      return true;
  const size_t K = Edges.size();
  if (K < 2)
    return false;
  auto Arc = [&](size_t I, size_t J) {
    return Edges[I].To == Edges[J].From ||
           GPreds.get(Edges[J].From, Edges[I].To);
  };
  if (K <= 64) {
    uint64_t Gray = 0, Done = 0;
    for (size_t S = 0; S != K; ++S)
      if (!(Done & (uint64_t(1) << S)) && dfsCycle64(K, Arc, S, Gray, Done))
        return true;
    return false;
  }
  // Degenerate fallback (more than 64 forced edges from one probe).
  std::vector<uint8_t> Color(K, 0);
  std::vector<std::pair<size_t, size_t>> Stack;
  for (size_t S = 0; S != K; ++S) {
    if (Color[S])
      continue;
    Stack.push_back({S, 0});
    Color[S] = 1;
    while (!Stack.empty()) {
      auto &[Node, Next] = Stack.back();
      if (Next == K) {
        Color[Node] = 2;
        Stack.pop_back();
        continue;
      }
      size_t J = Next++;
      if (J == Node || !Arc(Node, J))
        continue;
      if (Color[J] == 1)
        return true;
      if (Color[J] == 0) {
        Color[J] = 1;
        Stack.push_back({J, 0});
      }
    }
  }
  return false;
}

bool ConstraintState::readAdmits(unsigned W, VarId Var) const {
  assert(!Inconsistent && "probing an inconsistent state");
  assert(HasOpen && "no open transaction to probe");
  assert(W != OpenIdx && "a read cannot read-from its own transaction");
  assert(W < NumTxns && writesVar(W, Var) &&
         "candidate must be a committed writer of the variable");
  if (TrivialOnly)
    return true; // No forced edges anywhere; the wr edge ends in a sink.
  // The wr edge W → open ends in a so ∪ wr sink and cannot cycle; only
  // the forced edges — all between completed transactions — can.
  collectReadEdges(W, Var, Scratch.Edges);
  return !createsCycle(Scratch.Edges);
}

void ConstraintState::applyExternalRead(unsigned W, VarId Var) {
  assert(!Inconsistent && "extending an inconsistent state");
  assert(HasOpen && "no open transaction");
  assert(W != OpenIdx && W < NumTxns && writesVar(W, Var) &&
         "wr writer must be a committed writer of the variable");
  if (!TrivialOnly)
    collectReadEdges(W, Var, Scratch.Edges);

  SoWrPreds.set(OpenIdx, W);
  insertSinkEdge(CausalPreds, W);
  if (TrivialOnly)
    return; // Premises and the forced closure are never consulted.
  insertSinkEdge(GPreds, W);

  for (const Edge &E : Scratch.Edges) {
    if (!insertClosureEdge(GPreds, E.From, E.To)) {
      // Reached by the bulk constructor and the streaming checker, which
      // apply reads unprobed and take the cycle as the verdict; the engine
      // probes readAdmits first and never applies an inadmissible writer.
      Inconsistent = true;
      return;
    }
  }
  OpenReads.push_back({Var, W});
}

void ConstraintState::applyCommit(const TransactionLog &Log) {
  assert(HasOpen && !Inconsistent);
  assert(Log.isCommitted() && "applyCommit on a non-committed log");
  for (const Event &E : Log.events())
    if (E.isWrite()) {
      assert(E.Var < NumVars && "variable out of range");
      setBit(&WriterBits[static_cast<size_t>(E.Var) * Words], OpenIdx);
    }
  HasOpen = false;
  OpenReads.clear();
}

void ConstraintState::applyAbort() {
  assert(HasOpen && !Inconsistent);
  // The aborted transaction's writes stay invisible and its so/wr/forced
  // edges are already in the graph — nothing to add.
  HasOpen = false;
  OpenReads.clear();
}

void ConstraintState::compact(const std::vector<Relation::Run> &Runs) {
  assert(!Inconsistent && "compacting an inconsistent state");
  assert(!HasOpen && "compacting with an open transaction");
  assert(!Runs.empty() && Runs.front().From == 0 &&
         "the initial transaction must be retained");
  assert(Runs.back().From + Runs.back().Len <= NumTxns &&
         "retained index out of range");
  SoWrPreds.compact(Runs, NumTxns);
  CausalPreds.compact(Runs, NumTxns);
  if (!TrivialOnly)
    GPreds.compact(Runs, NumTxns);
  for (VarId V = 0; V != NumVars; ++V)
    Relation::compactBits(&WriterBits[static_cast<size_t>(V) * Words], Words,
                          Runs);
  for (const Relation::Run &R : Runs)
    std::copy(SessionOfTxn.begin() + R.From,
              SessionOfTxn.begin() + R.From + R.Len,
              SessionOfTxn.begin() + R.To);
  NumTxns = Runs.back().To + Runs.back().Len;
}

void ConstraintState::grow(unsigned MaxTxns) {
  assert(MaxTxns >= MaxN && "grow cannot shrink the capacity");
  const unsigned NewWords = (MaxTxns + 63) / 64;
  SoWrPreds.grow(MaxTxns);
  CausalPreds.grow(MaxTxns);
  if (!TrivialOnly)
    GPreds.grow(MaxTxns);
  std::vector<uint64_t> Bits(static_cast<size_t>(NumVars) * NewWords, 0);
  for (VarId V = 0; V != NumVars; ++V)
    std::copy_n(&WriterBits[static_cast<size_t>(V) * Words], Words,
                &Bits[static_cast<size_t>(V) * NewWords]);
  WriterBits = std::move(Bits);
  SessionOfTxn.resize(MaxTxns, 0);
  MaxN = MaxTxns;
  Words = NewWords;
}

void ConstraintState::initFromHistory(const History &H, unsigned MaxTxns) {
  assert(Levels.allPrefixClosedCausallyExtensible() &&
         "the incremental commit test covers the saturable levels only");
  const unsigned N = H.numTxns();
  assert(N >= 1 && H.txn(0).isInit() &&
         "history must start with the initial transaction");
  MaxN = std::max(MaxTxns, N);
  Words = (MaxN + 63) / 64;
  TrivialOnly = Levels.strongest() == IsolationLevel::Trivial;
  SoWrPreds = Relation(MaxN);
  CausalPreds = Relation(MaxN);
  if (!TrivialOnly)
    GPreds = Relation(MaxN);
  // The initial transaction writes value 0 to every variable, so its log
  // spans the variable universe.
  std::vector<VarId> InitVars = H.txn(0).writtenVars();
  NumVars = InitVars.empty() ? 0 : InitVars.back() + 1;
  WriterBits.assign(static_cast<size_t>(NumVars) * Words, 0);
  SessionOfTxn.assign(MaxN, 0);
  SessionOfTxn[0] = TxnUid::InitSession;
  NumTxns = 1;
  for (VarId V : InitVars)
    setBit(&WriterBits[static_cast<size_t>(V) * Words], 0);
}

void ConstraintState::replayBlocks(const History &H, unsigned From,
                                   unsigned To) {
  assert(From == NumTxns && "state must track exactly the blocks below From");
  assert(From >= 1 && To <= H.numTxns() && "replay range out of bounds");
  assert(!Inconsistent && "extending an inconsistent state");
  // Only genuinely incremental continuations get their own span and
  // counter; a From == 1 replay is the body of a bulk rebuild, whose
  // constructor already emitted the BulkRebuild span around this call.
  std::optional<trace::SpanGuard> ReplaySpan;
  if (From > 1) {
    ReplaySpan.emplace(trace::Category::Check, trace::Name::PrefixReplay,
                       From, To - From);
    trace::bump(trace::Counter::PrefixReplays);
  }

  // Replay the blocks through the same appliers the explorer uses. A
  // pending block need not be last (the readLatest truncations keep the
  // truncated reader mid-order); its probe context is set aside while the
  // later blocks replay — sound because nothing ever leaves a pending
  // sink, so later blocks cannot mention it — and restored at the end.
  // Its premises are its closure rows, which later blocks leave alone.
  bool Stashed = false;
  unsigned StashIdx = 0;
  IsolationLevel StashLevel = IsolationLevel::Trivial;
  std::vector<ReadRec> StashReads;

  for (unsigned Idx = From; Idx != To && !Inconsistent; ++Idx) {
    const TransactionLog &Log = H.txn(Idx);
    if (HasOpen) {
      assert(!Stashed && "more than one pending transaction");
      Stashed = true;
      StashIdx = OpenIdx;
      StashLevel = OpenLevel;
      StashReads = std::move(OpenReads);
      OpenReads.clear();
      HasOpen = false;
    }
    beginBlock(Idx, Log.uid());
    const uint32_t Size = static_cast<uint32_t>(Log.size());
    for (uint32_t P = 1; P != Size && !Inconsistent; ++P) {
      const Event &Ev = Log.event(P);
      switch (Ev.Kind) {
      case EventKind::Read:
        if (std::optional<TxnUid> W = Log.writerOf(P)) {
          std::optional<unsigned> WIdx = H.indexOf(*W);
          assert(WIdx && "wr writer missing from history");
          applyExternalRead(*WIdx, Ev.Var);
        }
        break;
      case EventKind::Write:
        break; // Visible only at commit; a write can never cycle (§3.2).
      case EventKind::Commit:
        applyCommit(Log);
        break;
      case EventKind::Abort:
        applyAbort();
        break;
      case EventKind::Begin:
        assert(false && "begin must be the first event of a log");
        break;
      }
    }
  }

  if (Stashed && !Inconsistent) {
    assert(!HasOpen && "more than one pending transaction");
    HasOpen = true;
    OpenIdx = StashIdx;
    OpenLevel = StashLevel;
    OpenReads = std::move(StashReads);
  }
}

ConstraintState::ConstraintState(const History &H,
                                 const LevelAssignment &Levels,
                                 unsigned MaxTxns)
    : Levels(Levels) {
  TXDPOR_TRACE_SPAN(Check, BulkRebuild, H.numTxns());
  trace::bump(trace::Counter::BulkRebuilds);
  initFromHistory(H, MaxTxns);
  replayBlocks(H, 1, H.numTxns());
}

ConstraintState::ConstraintState(const History &H,
                                 const LevelAssignment &Levels,
                                 unsigned MaxTxns, unsigned PrefixLen)
    : Levels(Levels) {
  assert(PrefixLen >= 1 && PrefixLen <= H.numTxns() &&
         "prefix length out of range");
  // A from-scratch build, just one that stops early — counted as a bulk
  // rebuild so the trace totals stay honest about non-incremental work.
  TXDPOR_TRACE_SPAN(Check, BulkRebuild, PrefixLen);
  trace::bump(trace::Counter::BulkRebuilds);
  initFromHistory(H, MaxTxns);
  replayBlocks(H, 1, PrefixLen);
}

bool ConstraintState::equivalentTo(const ConstraintState &O) const {
  if (Inconsistent != O.Inconsistent)
    return false;
  if (Inconsistent)
    return true; // Replays stop at the first cycle; only the verdict holds.
  if (NumTxns != O.NumTxns || NumVars != O.NumVars ||
      TrivialOnly != O.TrivialOnly || HasOpen != O.HasOpen)
    return false;
  for (unsigned I = 0; I != NumTxns; ++I) {
    if (SessionOfTxn[I] != O.SessionOfTxn[I])
      return false;
    for (unsigned J = 0; J != NumTxns; ++J) {
      if (SoWrPreds.get(I, J) != O.SoWrPreds.get(I, J) ||
          CausalPreds.get(I, J) != O.CausalPreds.get(I, J))
        return false;
      if (!TrivialOnly && GPreds.get(I, J) != O.GPreds.get(I, J))
        return false;
    }
    for (VarId V = 0; V != NumVars; ++V)
      if (writesVar(I, V) != O.writesVar(I, V))
        return false;
  }
  if (!HasOpen)
    return true;
  if (OpenIdx != O.OpenIdx || OpenLevel != O.OpenLevel)
    return false;
  if (OpenReads.size() != O.OpenReads.size())
    return false;
  for (size_t I = 0; I != OpenReads.size(); ++I)
    if (OpenReads[I].Var != O.OpenReads[I].Var ||
        OpenReads[I].Writer != O.OpenReads[I].Writer)
      return false;
  return true;
}

const ConstraintState &PrefixStateCache::stateFor(unsigned PrefixLen) {
  assert(PrefixLen >= 1 && PrefixLen <= H.numTxns() &&
         "prefix length out of range");
  auto It = ByLen.lower_bound(PrefixLen);
  if (It != ByLen.end() && It->first == PrefixLen)
    return It->second;
  ConstraintState State;
  if (It == ByLen.begin()) {
    // No shorter checkpoint yet: build this one from scratch.
    State = ConstraintState(H, Levels, MaxTxns, PrefixLen);
  } else {
    const auto &Prev = *std::prev(It);
    assert(Prev.second.consistent() && !Prev.second.hasOpenTxn() &&
           "prefixes of the expanded history are complete and consistent");
    State = Prev.second;
    State.replayBlocks(H, Prev.first, PrefixLen);
  }
  return ByLen.emplace_hint(It, PrefixLen, std::move(State))->second;
}
