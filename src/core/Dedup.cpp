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
uint64_t renamedUid(const uint32_t *Pi, TxnUid U) {
  if (U.isInit())
    return U.packed();
  return (static_cast<uint64_t>(Pi[U.Session]) << 32) | U.Index;
}

/// Renaming-invariant digest of one cursor's content: the uid *index*
/// plus the execution state. The session name composes in at fold time.
Fingerprint cursorDigest(uint64_t Packed, const TxnCursor &Cur) {
  Mix128 C(0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL);
  C.add(static_cast<uint32_t>(Packed)); // uid index
  C.add(Cur.NextInstr);
  C.add(Cur.Finished ? 1 : 0);
  C.add(Cur.Locals.size());
  for (Value V : Cur.Locals)
    C.add(static_cast<uint64_t>(V));
  return C.done();
}

/// Per-probe scratch array: on the stack for up to 64 elements (a probe
/// runs per expanded item, and heap allocations here were measurable), on
/// the heap beyond.
template <typename T> class Scratch {
public:
  explicit Scratch(size_t N) {
    if (N > 64) {
      Heap.resize(N);
      Ptr = Heap.data();
    }
  }
  T *begin() { return Ptr; }
  T &operator[](size_t I) { return Ptr[I]; }

private:
  T Stack[64];
  std::vector<T> Heap;
  T *Ptr = Stack;
};

/// Hole slot of a block's own uid; event positions fill the other slots.
constexpr uint32_t OwnerSlot = 0xfffffu;

/// Position-bound key of one renamed session occurrence: block position,
/// hole slot and the canonical rank fill a structured key, avalanched per
/// chain and summed commutatively beside the block's content chains.
uint64_t mentionKey(unsigned BlockPos, uint32_t Slot, uint32_t Rank) {
  return (static_cast<uint64_t>(BlockPos) << 40) |
         (static_cast<uint64_t>(Slot & OwnerSlot) << 20) | Rank;
}

} // namespace

Fingerprint DedupTable::itemFingerprint(const History &H,
                                        const CursorMap &Cursors) const {
  unsigned N = H.numTxns();

  Scratch<uint64_t> D0(NumSessions), D1(NumSessions);
  Scratch<uint32_t> Sorted(NumSessions), Pi(NumSessions);
  Scratch<Fingerprint> CursorDigests(Cursors.size());

  // The item hashes as a commutative sum of per-block and per-cursor
  // digests. Each block contributes two π-invariant content chains (event
  // payloads, uid *indices*, init uids) plus one position-bound mention
  // key per renamed session name; the mentions wait for the canonical
  // ranks below. Depth and ConstraintState are excluded: Depth is walk
  // bookkeeping and the constraint state is a pure function of the
  // history and the levels.
  //
  // The same walk builds the round-0 colors: the class plus the
  // renaming-invariant digests of the session's blocks and cursors,
  // summed commutatively. A block's digest binds its position, its index
  // within the session, its events, and its writers by (class, index) —
  // renaming any session leaves it fixed.
  uint64_t SumA = 0, SumB = 0;
  for (uint32_t S = 0; S != NumSessions; ++S)
    D0[S] = hashCombine64(0x9159015a3070dd17ULL, ClassOf[S]);
  for (unsigned I = 0; I != N; ++I) {
    const TransactionLog &Log = H.txn(I);
    TxnUid U = Log.uid();
    assert((U.isInit() || U.Session < NumSessions) &&
           "history names an unknown session");
    uint64_t D = hashCombine64(0x9e3779b97f4a7c15ULL, I);
    D = hashCombine64(D, U.Index);
    D = hashCombine64(D, Log.size());
    Mix128 M(Salt0, Salt1);
    M.add(I);
    M.add(U.isInit() ? U.packed() : U.Index);
    M.add(Log.size());
    for (uint32_t P = 0, Sz = static_cast<uint32_t>(Log.size()); P != Sz;
         ++P) {
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
        M.add(W->isInit() ? 1 : 2);
        M.add(W->isInit() ? W->packed() : W->Index);
      } else {
        M.add(0);
      }
    }
    Fingerprint Content = M.done();
    SumA += Content.Lo;
    SumB += Content.Hi;
    if (!U.isInit())
      D0[U.Session] += splitmix64(D);
  }
  size_t C = 0;
  for (const auto &[Packed, Cur] : Cursors) {
    CursorDigests[C] = cursorDigest(Packed, Cur);
    uint32_t S = static_cast<uint32_t>(Packed >> 32);
    if (S != TxnUid::InitSession) {
      assert(S < NumSessions && "cursor names an unknown session");
      D0[S] += splitmix64(CursorDigests[C].Lo ^ 0x452821e638d01377ULL);
    }
    ++C;
  }

  // Round 1: refine with the round-0 colors of each non-init read's
  // writer session, so same-class sessions distinguished only through
  // whom they read from still sort apart.
  std::copy(D0.begin(), D0.begin() + NumSessions, D1.begin());
  for (unsigned I = 0; I != N; ++I) {
    const TransactionLog &Log = H.txn(I);
    if (Log.uid().isInit())
      continue;
    for (uint32_t P = 0, Sz = static_cast<uint32_t>(Log.size()); P != Sz;
         ++P)
      if (std::optional<TxnUid> W = Log.writerOf(P))
        if (!W->isInit())
          D1[Log.uid().Session] += splitmix64(D0[W->Session]);
  }

  // Canonical session permutation: sessions are renamed to their rank
  // under a sort by (structural class, refined color, original id). The
  // class blocks of the sort are a pure function of the program, so the
  // composed difference between any two items' permutations stays
  // *within* classes — fingerprint equality therefore certifies equality
  // modulo a structural-class renaming, never across classes.
  std::iota(Sorted.begin(), Sorted.begin() + NumSessions, 0u);
  std::sort(Sorted.begin(), Sorted.begin() + NumSessions,
            [&](uint32_t A, uint32_t B) {
              if (ClassOf[A] != ClassOf[B])
                return ClassOf[A] < ClassOf[B];
              if (D1[A] != D1[B])
                return D1[A] < D1[B];
              return A < B;
            });
  for (uint32_t Rank = 0; Rank != NumSessions; ++Rank)
    Pi[Sorted[Rank]] = Rank;

  // The renamed session names: each block's owner and non-init writers.
  for (unsigned I = 0; I != N; ++I) {
    const TransactionLog &Log = H.txn(I);
    auto Mention = [&](uint32_t Slot, uint32_t Session) {
      uint64_t Key = mentionKey(I, Slot, Pi[Session]);
      SumA += splitmix64(Key ^ Salt0 ^ 0x2545f4914f6cdd1dULL);
      SumB += splitmix64(Key ^ Salt1 ^ 0x9e6c63d0873084c5ULL);
    };
    if (!Log.uid().isInit())
      Mention(OwnerSlot, Log.uid().Session);
    for (uint32_t P = 0, Sz = static_cast<uint32_t>(Log.size()); P != Sz;
         ++P)
      if (std::optional<TxnUid> W = Log.writerOf(P))
        if (!W->isInit())
          Mention(P, W->Session);
  }

  // Cursors fold as content digests composed with the renamed uid; the
  // commutative sum makes their order irrelevant, so no renamed re-sort
  // is needed. The content seeds differ from the block digests', so a
  // cursor contribution can never alias a block contribution.
  C = 0;
  for (const auto &Entry : Cursors) {
    TxnUid U{static_cast<uint32_t>(Entry.first >> 32),
             static_cast<uint32_t>(Entry.first)};
    uint64_t R = renamedUid(Pi.begin(), U);
    const Fingerprint &D = CursorDigests[C++];
    SumA += splitmix64(D.Lo ^ hashCombine64(0xb5c0fbcfec4d3b2fULL, R));
    SumB += splitmix64(D.Hi ^ hashCombine64(0x3c6ef372fe94f82bULL, R));
  }

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
