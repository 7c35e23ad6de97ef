//===- core/Dedup.cpp - Subtree dedup & session-symmetry reduction --------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "core/Dedup.h"

#include "support/Hash.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace txdpor;

namespace {

/// Two independently-seeded order-sensitive chains over one element
/// stream; finalized into a 128-bit fingerprint.
struct Mix128 {
  uint64_t A;
  uint64_t B;

  Mix128(uint64_t SeedA, uint64_t SeedB) : A(SeedA), B(SeedB) {}

  void add(uint64_t V) {
    A = hashCombine64(A, V);
    B = hashCombine64(B, V ^ 0x5bf0f5e383bd9a1bULL);
  }

  Fingerprint done() const { return {splitmix64(A), splitmix64(B)}; }
};

//===----------------------------------------------------------------------===//
// Structural session classes
//===----------------------------------------------------------------------===//

bool exprEq(const Expr::NodeRef &A, const Expr::NodeRef &B) {
  if (!A || !B)
    return !A && !B;
  if (A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case ExprKind::Const:
    return A->constVal() == B->constVal();
  case ExprKind::Local:
    return A->localId() == B->localId();
  case ExprKind::Unary:
    return A->unaryOp() == B->unaryOp() && exprEq(A->lhs(), B->lhs());
  case ExprKind::Binary:
    return A->binaryOp() == B->binaryOp() && exprEq(A->lhs(), B->lhs()) &&
           exprEq(A->rhs(), B->rhs());
  }
  return false;
}

bool instrEq(const Instr &A, const Instr &B) {
  return A.Kind == B.Kind && A.Target == B.Target && A.Var == B.Var &&
         exprEq(A.Guard.Node, B.Guard.Node) && exprEq(A.Rhs.Node, B.Rhs.Node);
}

/// Structural equality of two sessions' code (names are metadata and do
/// not participate: renaming a session must not change its class).
bool sessionStructEq(const Program &P, uint32_t S1, uint32_t S2) {
  if (P.numTxns(S1) != P.numTxns(S2))
    return false;
  for (unsigned T = 0, E = P.numTxns(S1); T != E; ++T) {
    const std::vector<Instr> &A = P.txn({S1, T}).body();
    const std::vector<Instr> &B = P.txn({S2, T}).body();
    if (A.size() != B.size())
      return false;
    for (size_t I = 0, N = A.size(); I != N; ++I)
      if (!instrEq(A[I], B[I]))
        return false;
  }
  return true;
}

void mixExpr(Mix128 &M, const Expr::NodeRef &E) {
  if (!E) {
    M.add(0);
    return;
  }
  M.add(static_cast<uint64_t>(E->kind()) + 1);
  switch (E->kind()) {
  case ExprKind::Const:
    M.add(static_cast<uint64_t>(E->constVal()));
    break;
  case ExprKind::Local:
    M.add(E->localId());
    break;
  case ExprKind::Unary:
    M.add(static_cast<uint64_t>(E->unaryOp()));
    mixExpr(M, E->lhs());
    break;
  case ExprKind::Binary:
    M.add(static_cast<uint64_t>(E->binaryOp()));
    mixExpr(M, E->lhs());
    mixExpr(M, E->rhs());
    break;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// DedupTable
//===----------------------------------------------------------------------===//

DedupTable::DedupTable(const Program &Prog, const LevelAssignment &Levels,
                       uint64_t MaxEntries)
    : NumSessions(Prog.numSessions()),
      MaxPerShard(MaxEntries == 0
                      ? 0
                      : std::max<uint64_t>(
                            1, (MaxEntries + NumShards - 1) / NumShards)) {
  // Partition sessions into structural classes: same base level, same
  // transaction count, structurally equal bodies. Class ids ascend with
  // first occurrence, so the layout is a pure function of the program —
  // identical across every item of one run.
  ClassOf.assign(NumSessions, 0);
  std::vector<uint32_t> Reps;
  for (uint32_t S = 0; S != NumSessions; ++S) {
    uint32_t Class = static_cast<uint32_t>(Reps.size());
    for (uint32_t C = 0; C != Reps.size(); ++C)
      if (Levels.levelFor(Reps[C]) == Levels.levelFor(S) &&
          sessionStructEq(Prog, Reps[C], S)) {
        Class = C;
        break;
      }
    if (Class == Reps.size())
      Reps.push_back(S);
    ClassOf[S] = Class;
  }
  NumClasses = static_cast<unsigned>(Reps.size());

  // Salt: the program text plus the resolved assignment, so fingerprints
  // from different semantics can never alias (tables are per-run anyway;
  // this is defense in depth for serialized fingerprints in dumps).
  Mix128 M(0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL);
  M.add(NumSessions);
  for (uint32_t S = 0; S != NumSessions; ++S) {
    M.add(static_cast<uint64_t>(Levels.levelFor(S)));
    M.add(Prog.numTxns(S));
    for (unsigned T = 0, E = Prog.numTxns(S); T != E; ++T) {
      const std::vector<Instr> &Body = Prog.txn({S, T}).body();
      M.add(Body.size());
      for (const Instr &I : Body) {
        M.add(static_cast<uint64_t>(I.Kind));
        M.add(I.Target);
        M.add(I.Var);
        mixExpr(M, I.Guard.Node);
        mixExpr(M, I.Rhs.Node);
      }
    }
  }
  Fingerprint Salt = M.done();
  Salt0 = Salt.Lo;
  Salt1 = Salt.Hi;
}

namespace {

/// The canonical name of \p U under permutation \p Pi.
/// The initial transaction renames to itself, so a renamed uid can never
/// alias it (InitSession is above every real session id).
uint64_t renamedUid(const std::vector<uint32_t> &Pi, TxnUid U) {
  if (U.isInit())
    return U.packed();
  assert(U.Session < Pi.size() && "item names an unknown session");
  return (static_cast<uint64_t>(Pi[U.Session]) << 32) | U.Index;
}

} // namespace

/// Position-bound contribution of one renamed occurrence: block position,
/// hole slot and the canonical rank fill a structured key, avalanched per
/// chain. Summed commutatively into the block's content chains.
uint64_t mentionKey(unsigned BlockPos, uint32_t Slot, uint32_t Rank) {
  return (static_cast<uint64_t>(BlockPos) << 40) |
         (static_cast<uint64_t>(Slot & DedupFp::OwnerSlot) << 20) | Rank;
}

void DedupTable::refreshBlock(DedupFp &Fp, const History &H,
                              unsigned I) const {
  const TransactionLog &Log = H.txn(I);
  TxnUid U = Log.uid();
  DedupFp::BlockEntry &E = Fp.Blocks[I];
  E.Session = U.isInit() ? TxnUid::InitSession : U.Session;
  E.NumMentions = 0;
  assert((U.isInit() || U.Session < NumSessions) &&
         "history names an unknown session");
  auto Mention = [&](uint32_t Slot, uint32_t Session) {
    if (E.NumMentions < DedupFp::MaxMentions)
      E.Mentions[E.NumMentions++] = {Slot, Session};
    else
      E.NumMentions = 0xff; // Overflow: refolds re-walk the log.
  };
  // π-invariant digest: block position, index within the session, events,
  // and writers by (class, index) — renaming any session leaves it fixed,
  // so the D0 colors built from these sums are renaming-invariant. The
  // same walk folds the content chains (everything except renamed session
  // names, whose position-bound holes become mentions), so a π move later
  // refolds from the cache without touching the log.
  uint64_t D = hashCombine64(0x9e3779b97f4a7c15ULL, I);
  D = hashCombine64(D, U.isInit() ? ~0ull : static_cast<uint64_t>(U.Index));
  D = hashCombine64(D, Log.size());
  Mix128 M(Salt0, Salt1);
  M.add(I);
  if (U.isInit()) {
    M.add(U.packed());
  } else {
    M.add(U.Index);
    Mention(DedupFp::OwnerSlot, U.Session);
  }
  M.add(Log.size());
  uint64_t Mask = !U.isInit() && U.Session < 64 ? 1ull << U.Session : 0;
  for (uint32_t P = 0, Sz = static_cast<uint32_t>(Log.size()); P != Sz; ++P) {
    const Event &Ev = Log.event(P);
    D = hashCombine64(D, static_cast<uint64_t>(Ev.Kind));
    D = hashCombine64(D, Ev.Var);
    D = hashCombine64(D, static_cast<uint64_t>(Ev.Val));
    M.add(static_cast<uint64_t>(Ev.Kind));
    M.add(Ev.Var);
    M.add(static_cast<uint64_t>(Ev.Val));
    if (std::optional<TxnUid> W = Log.writerOf(P)) {
      D = hashCombine64(D, classOf(W->Session));
      D = hashCombine64(D, W->Index);
      if (W->isInit()) {
        M.add(1);
        M.add(W->packed());
      } else {
        M.add(2);
        M.add(W->Index);
        Mention(P, W->Session);
        if (W->Session < 64)
          Mask |= 1ull << W->Session;
      }
    } else {
      M.add(0);
    }
  }
  E.InvDig = D;
  E.Mask = Mask;
  Fingerprint F = M.done();
  E.CntA = F.Lo;
  E.CntB = F.Hi;
}

void DedupTable::refoldPiDigest(DedupFp &Fp, const History &H,
                                unsigned I) const {
  DedupFp::BlockEntry &E = Fp.Blocks[I];
  if (E.NumMentions != 0xff) {
    // Fast path: the content chains already bind everything π-invariant;
    // fold each mention's (position, slot, rank) key per chain.
    uint64_t A = E.CntA, B = E.CntB;
    for (unsigned K = 0; K != E.NumMentions; ++K) {
      const DedupFp::Mention &Mn = E.Mentions[K];
      uint32_t Rank = Fp.Pi[Mn.Session];
      uint64_t Key = mentionKey(I, Mn.Slot, Rank);
      A += splitmix64(Key ^ Salt0 ^ 0x2545f4914f6cdd1dULL);
      B += splitmix64(Key ^ Salt1 ^ 0x9e6c63d0873084c5ULL);
    }
    E.PiA = A;
    E.PiB = B;
    return;
  }
  // Overflowed mention list (> MaxMentions renamed occurrences): re-walk
  // the log, folding the renamed occurrences exactly as the fast path
  // would, so both paths agree bit-for-bit.
  const TransactionLog &Log = H.txn(I);
  TxnUid U = Log.uid();
  uint64_t A = E.CntA, B = E.CntB;
  auto Fold = [&](uint32_t Slot, uint32_t Session) {
    uint32_t Rank = Fp.Pi[Session];
    uint64_t Key = mentionKey(I, Slot, Rank);
    A += splitmix64(Key ^ Salt0 ^ 0x2545f4914f6cdd1dULL);
    B += splitmix64(Key ^ Salt1 ^ 0x9e6c63d0873084c5ULL);
  };
  if (!U.isInit())
    Fold(DedupFp::OwnerSlot, U.Session);
  for (uint32_t P = 0, Sz = static_cast<uint32_t>(Log.size()); P != Sz; ++P)
    if (std::optional<TxnUid> W = Log.writerOf(P))
      if (!W->isInit())
        Fold(P, W->Session);
  E.PiA = A;
  E.PiB = B;
}

/// π-invariant digest of one cursor's content: the uid *index* plus the
/// execution state. The session name composes in at fold time.
void refreshCursorEntry(DedupFp::CursorEntry &E, const TxnCursor &Cur) {
  Mix128 C(0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL);
  C.add(static_cast<uint32_t>(E.Packed)); // uid index
  C.add(Cur.NextInstr);
  C.add(Cur.Finished ? 1 : 0);
  C.add(Cur.Locals.size());
  for (Value V : Cur.Locals)
    C.add(static_cast<uint64_t>(V));
  Fingerprint F = C.done();
  E.InvA = F.Lo;
  E.InvB = F.Hi;
}

void DedupTable::syncCursors(DedupFp &Fp, const CursorMap &Cursors) const {
  auto IsDirty = [&](uint64_t K) {
    for (uint64_t D : Fp.DirtyCursors)
      if (D == K)
        return true;
    return false;
  };
  // Both sides iterate uid-packed ascending (the CursorMap is a key-sorted
  // flat map) and cursors are never removed, so one merge walk suffices;
  // new keys splice in at their sort position.
  std::vector<DedupFp::CursorEntry> &Ents = Fp.CursorEnts;
  size_t J = 0;
  for (const auto &Entry : Cursors) {
    uint64_t K = Entry.first;
    assert((J == Ents.size() || Ents[J].Packed >= K) &&
           "carried cursor entry for a vanished cursor");
    if (J == Ents.size() || Ents[J].Packed != K) {
      Ents.insert(Ents.begin() + J, DedupFp::CursorEntry{K, 0, 0});
      refreshCursorEntry(Ents[J], Entry.second);
    } else if (IsDirty(K)) {
      refreshCursorEntry(Ents[J], Entry.second);
    }
    ++J;
  }
  assert(Ents.size() == Cursors.size() && "carried entry per cursor");
  Fp.DirtyCursors.clear();
}

Fingerprint DedupTable::itemFingerprint(const History &H,
                                        const CursorMap &Cursors,
                                        DedupFp *Carried) const {
  DedupFp Local;
  DedupFp &Fp = Carried ? *Carried : Local;
  unsigned N = H.numTxns();

  // Refresh the π-invariant layer: everything when the carried state is
  // invalid (swap children, first probe, >64-session fallback), only the
  // dirty blocks otherwise. ReadPairs are engine-maintained on the
  // carried path and re-derived from H on the rebuild path.
  bool Rebuild = !Fp.Valid || NumSessions > 64 || Fp.Blocks.size() != N;
  if (Rebuild) {
    Fp.Blocks.assign(N, DedupFp::BlockEntry());
    Fp.Pi.clear();
    Fp.ReadPairs.clear();
    for (unsigned I = 0; I != N; ++I) {
      refreshBlock(Fp, H, I);
      const TransactionLog &Log = H.txn(I);
      if (!Log.uid().isInit())
        for (uint32_t P = 0, Sz = static_cast<uint32_t>(Log.size()); P != Sz;
             ++P)
          if (std::optional<TxnUid> W = Log.writerOf(P))
            if (!W->isInit())
              Fp.ReadPairs.emplace_back(Log.uid().Session, W->Session);
    }
    Fp.CursorEnts.clear();
    Fp.CursorEnts.reserve(Cursors.size());
    for (const auto &Entry : Cursors) {
      Fp.CursorEnts.push_back({Entry.first, 0, 0});
      refreshCursorEntry(Fp.CursorEnts.back(), Entry.second);
    }
    Fp.DirtyCursors.clear();
  } else {
    assert(Fp.Blocks.size() == N && "carried entry per block");
    for (unsigned I = 0; I != N; ++I)
      if (Fp.Blocks[I].Dirty)
        refreshBlock(Fp, H, I);
    if (!Fp.DirtyCursors.empty() || Fp.CursorEnts.size() != Cursors.size())
      syncCursors(Fp, Cursors);
  }

  // Canonical session permutation: sessions are renamed to their rank
  // under a sort by (structural class, refined color, original id). The
  // class blocks of the sort are a pure function of the program, so the
  // composed difference between any two items' permutations stays
  // *within* classes — fingerprint equality therefore certifies equality
  // modulo a structural-class renaming, never across classes. ChangedMask
  // collects the sessions whose rank moved since the carried state's last
  // probe: only blocks touching those sessions need their π digests
  // redone.
  //
  // Round 0 colors: the class plus the renaming-invariant digests of
  // the session's blocks and cursors, summed commutatively so the
  // per-block and per-cursor layers above are reusable as-is. The
  // refinement scratch lives on the stack for the (mask-supported)
  // ≤ 64-session fast path — this runs on every probe, so four heap
  // allocations here were measurable.
  uint64_t D0Stack[64], D1Stack[64];
  uint32_t SortStack[64], PiStack[64];
  std::vector<uint64_t> D0Heap, D1Heap;
  std::vector<uint32_t> SortHeap, PiHeap;
  uint64_t *D0 = D0Stack, *D1 = D1Stack;
  uint32_t *Sorted = SortStack, *NewPi = PiStack;
  if (NumSessions > 64) {
    D0Heap.resize(NumSessions);
    D1Heap.resize(NumSessions);
    SortHeap.resize(NumSessions);
    PiHeap.resize(NumSessions);
    D0 = D0Heap.data();
    D1 = D1Heap.data();
    Sorted = SortHeap.data();
    NewPi = PiHeap.data();
  }
  for (uint32_t S = 0; S != NumSessions; ++S)
    D0[S] = hashCombine64(0x9159015a3070dd17ULL, ClassOf[S]);
  for (const DedupFp::BlockEntry &E : Fp.Blocks)
    if (E.Session != TxnUid::InitSession)
      D0[E.Session] += splitmix64(E.InvDig);
  for (const DedupFp::CursorEntry &E : Fp.CursorEnts) {
    uint32_t S = static_cast<uint32_t>(E.Packed >> 32);
    if (S == TxnUid::InitSession)
      continue;
    assert(S < NumSessions && "cursor names an unknown session");
    D0[S] += splitmix64(E.InvA ^ 0x452821e638d01377ULL);
  }
  // Round 1: refine with the round-0 colors of each read's writer
  // session, so same-class sessions distinguished only through whom
  // they read from still sort apart.
  for (uint32_t S = 0; S != NumSessions; ++S)
    D1[S] = D0[S];
  for (const auto &[Reader, Writer] : Fp.ReadPairs)
    D1[Reader] += splitmix64(D0[Writer]);
  std::iota(Sorted, Sorted + NumSessions, 0u);
  std::sort(Sorted, Sorted + NumSessions, [&](uint32_t A, uint32_t B) {
    if (ClassOf[A] != ClassOf[B])
      return ClassOf[A] < ClassOf[B];
    if (D1[A] != D1[B])
      return D1[A] < D1[B];
    return A < B;
  });
  for (uint32_t Rank = 0; Rank != NumSessions; ++Rank)
    NewPi[Sorted[Rank]] = Rank;
  uint64_t ChangedMask = ~0ull;
  if (NumSessions <= 64 && Fp.Pi.size() == NumSessions) {
    ChangedMask = 0;
    for (uint32_t S = 0; S != NumSessions; ++S)
      if (NewPi[S] != Fp.Pi[S])
        ChangedMask |= 1ull << S;
  }
  Fp.Pi.assign(NewPi, NewPi + NumSessions);

  // Refresh the π-renamed layer and fold the commutative sums. Depth and
  // ConstraintState are excluded: Depth is driver bookkeeping and the
  // constraint state is a pure function of the history and the levels.
  uint64_t SumA = 0, SumB = 0;
  for (unsigned I = 0; I != N; ++I) {
    DedupFp::BlockEntry &E = Fp.Blocks[I];
    if (E.Dirty || (E.Mask & ChangedMask))
      refoldPiDigest(Fp, H, I);
    E.Dirty = false;
    SumA += E.PiA;
    SumB += E.PiB;
  }
  // Cursors fold as carried content digests composed with the renamed
  // uid; the commutative sum makes their order irrelevant, so no renamed
  // re-sort is needed. The content seeds differ from the block digests',
  // so a cursor contribution can never alias a block contribution.
  for (const DedupFp::CursorEntry &E : Fp.CursorEnts) {
    TxnUid U{static_cast<uint32_t>(E.Packed >> 32),
             static_cast<uint32_t>(E.Packed)};
    uint64_t R = renamedUid(Fp.Pi, U);
    SumA += splitmix64(E.InvA ^ hashCombine64(0xb5c0fbcfec4d3b2fULL, R));
    SumB += splitmix64(E.InvB ^ hashCombine64(0x3c6ef372fe94f82bULL, R));
  }
  Fp.Valid = true;

  Mix128 Head(Salt0, Salt1);
  Head.add(N);
  Head.add(Cursors.size());
  return {splitmix64(Head.A + SumA), splitmix64(Head.B + SumB)};
}

bool DedupTable::insertIfNew(const Fingerprint &F) const {
  const Shard &Sh = Shards[F.Hi & (NumShards - 1)];
  std::lock_guard<std::mutex> Guard(Sh.M);
  if (!MaxPerShard)
    return Sh.Set.insert(F).second;
  auto It = Sh.Map.find(F);
  if (It != Sh.Map.end()) {
    // Probe hit: re-arm the CLOCK reference bit so hot subtrees survive
    // the next sweep.
    Sh.Ref[It->second] = 1;
    return false;
  }
  if (Sh.Slots.size() < MaxPerShard) {
    uint32_t Slot = static_cast<uint32_t>(Sh.Slots.size());
    Sh.Slots.push_back(F);
    Sh.Ref.push_back(1);
    Sh.Map.emplace(F, Slot);
    return true;
  }
  // Full shard: sweep the hand, clearing reference bits, until a cold
  // victim turns up (at worst one full revolution). Evicting only ever
  // costs re-exploration of the victim's subtree — an absent fingerprint
  // can never cause a wrong skip.
  while (Sh.Ref[Sh.Hand]) {
    Sh.Ref[Sh.Hand] = 0;
    Sh.Hand = (Sh.Hand + 1) % static_cast<uint32_t>(Sh.Slots.size());
  }
  uint32_t Victim = Sh.Hand;
  Sh.Hand = (Sh.Hand + 1) % static_cast<uint32_t>(Sh.Slots.size());
  Sh.Map.erase(Sh.Slots[Victim]);
  Sh.Slots[Victim] = F;
  Sh.Ref[Victim] = 1;
  Sh.Map.emplace(F, Victim);
  ++Sh.Evictions;
  return true;
}

uint64_t DedupTable::evictions() const {
  uint64_t Total = 0;
  for (const Shard &Sh : Shards) {
    std::lock_guard<std::mutex> Guard(Sh.M);
    Total += Sh.Evictions;
  }
  return Total;
}
