//===- history/History.cpp - Histories and ordered histories --------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "history/History.h"

#include "support/Hash.h"

#include <algorithm>
#include <sstream>

using namespace txdpor;

const char *txdpor::eventKindName(EventKind Kind) {
  switch (Kind) {
  case EventKind::Begin:
    return "begin";
  case EventKind::Read:
    return "read";
  case EventKind::Write:
    return "write";
  case EventKind::Commit:
    return "commit";
  case EventKind::Abort:
    return "abort";
  }
  return "?";
}

std::string TxnUid::str() const {
  if (isInit())
    return "init";
  return "t" + std::to_string(Session) + "." + std::to_string(Index);
}

std::vector<VarId> TransactionLog::writtenVars() const {
  std::vector<VarId> Result;
  if (isAborted())
    return Result;
  for (const Event &E : Events)
    if (E.isWrite())
      Result.push_back(E.Var);
  std::sort(Result.begin(), Result.end());
  Result.erase(std::unique(Result.begin(), Result.end()), Result.end());
  return Result;
}

History History::makeInitial(unsigned NumVars) {
  History H;
  TransactionLog Init(TxnUid::init());
  Init.append(Event::makeBegin());
  for (VarId V = 0; V != NumVars; ++V)
    Init.append(Event::makeWrite(V, 0));
  Init.append(Event::makeCommit());
  H.appendLog(std::move(Init));
  return H;
}

std::optional<unsigned> History::indexOf(TxnUid Uid) const {
  auto It = IndexByUid.find(Uid.packed());
  if (It == IndexByUid.end())
    return std::nullopt;
  return It->second;
}

std::optional<unsigned> History::pendingTxn() const {
  std::optional<unsigned> Result;
  for (unsigned I = 0, E = numTxns(); I != E; ++I) {
    if (!Logs[I]->isPending())
      continue;
    assert(!Result && "more than one pending transaction");
    Result = I;
  }
  return Result;
}

size_t History::numEvents() const {
  size_t N = 0;
  for (const LogPtr &Log : Logs)
    N += Log->size();
  return N;
}

unsigned History::beginTxn(TxnUid Uid) {
  TransactionLog Log(Uid);
  Log.append(Event::makeBegin());
  return appendLog(std::move(Log));
}

void History::appendEvent(unsigned Idx, const Event &E) {
  assert(Idx < Logs.size() && "transaction index out of range");
  mutableLog(Idx).append(E);
}

void History::setWriter(unsigned Idx, uint32_t Pos, TxnUid Writer) {
  assert(Idx < Logs.size() && "transaction index out of range");
  assert(contains(Writer) && "wr writer must be part of the history");
  assert(Logs[Idx]->uid() != Writer && "a read cannot read-from its own log");
  assert(txn(*indexOf(Writer)).writesVar(Logs[Idx]->event(Pos).Var) &&
         "wr writer must visibly write the read variable");
  mutableLog(Idx).setWriter(Pos, Writer);
}

unsigned History::appendLog(TransactionLog Log) {
  assert(!contains(Log.uid()) && "duplicate transaction uid");
  invalidateRelationCaches();
  unsigned Idx = numTxns();
  IndexByUid.emplace(Log.uid().packed(), Idx);
  Logs.push_back(std::make_shared<TransactionLog>(std::move(Log)));
  return Idx;
}

unsigned History::appendLogShared(const History &Other, unsigned Idx) {
  assert(Idx < Other.Logs.size() && "transaction index out of range");
  assert(!contains(Other.txn(Idx).uid()) && "duplicate transaction uid");
  invalidateRelationCaches();
  unsigned NewIdx = numTxns();
  IndexByUid.emplace(Other.txn(Idx).uid().packed(), NewIdx);
  Logs.push_back(Other.Logs[Idx]); // Refcount bump only; no event copy.
  return NewIdx;
}

void History::retainBlocks(const std::vector<unsigned> &Keep) {
  assert(!Keep.empty() && Keep.front() == 0 &&
         "the initial transaction must be retained");
  invalidateRelationCaches();
  const unsigned K = static_cast<unsigned>(Keep.size());
  // Evicted uids leave the index first, while their logs are still here.
  for (unsigned Old = 0, J = 0, E = numTxns(); Old != E; ++Old) {
    if (J != K && Keep[J] == Old) {
      ++J;
      continue;
    }
    IndexByUid.erase(Logs[Old]->uid().packed());
  }
  // Keep ascends, so every retained log moves down (or stays) and never
  // onto a slot a later one still has to be read from.
  for (unsigned I = 0; I != K; ++I) {
    assert(Keep[I] < Logs.size() && "retained index out of range");
    assert((I == 0 || Keep[I - 1] < Keep[I]) &&
           "retained indices must be strictly ascending");
    if (Keep[I] != I)
      Logs[I] = std::move(Logs[Keep[I]]);
    IndexByUid.find(Logs[I]->uid().packed())->second = I;
  }
  Logs.resize(K);
  checkWellFormed(); // Debug: every retained wr writer is still present.
}

TransactionLog &History::mutableLog(unsigned Idx) {
  assert(Idx < Logs.size() && "transaction index out of range");
  invalidateRelationCaches();
  LogPtr &P = Logs[Idx];
  // use_count() == 1 proves this history is the sole owner: any other
  // owner would hold its own reference. Under the single-owner mutation
  // discipline no other thread can be concurrently bumping the count
  // through *this* history, so the check cannot race.
  if (P.use_count() != 1)
    P = std::make_shared<TransactionLog>(*P); // Copy-on-write clone.
  return *P;
}

bool History::soLess(unsigned A, unsigned B) const {
  if (A == B)
    return false;
  const TxnUid UA = Logs[A]->uid(), UB = Logs[B]->uid();
  if (UA.isInit())
    return !UB.isInit();
  if (UB.isInit())
    return false;
  return UA.Session == UB.Session && UA.Index < UB.Index;
}

Relation History::soRelation() const {
  unsigned N = numTxns();
  Relation R(N);
  // Bucket by session instead of testing all N² pairs: within a bucket so
  // relates exactly the Index-ascending pairs, and the initial
  // transaction precedes everything else.
  std::unordered_map<uint32_t, std::vector<unsigned>> BySession;
  unsigned InitIdx = N; // N = no initial transaction present.
  for (unsigned I = 0; I != N; ++I) {
    const TxnUid U = Logs[I]->uid();
    if (U.isInit()) {
      InitIdx = I;
      continue;
    }
    BySession[U.Session].push_back(I);
  }
  if (InitIdx != N)
    for (unsigned B = 0; B != N; ++B)
      if (B != InitIdx)
        R.set(InitIdx, B);
  for (auto &[Session, Txns] : BySession) {
    (void)Session;
    std::sort(Txns.begin(), Txns.end(), [this](unsigned A, unsigned B) {
      return Logs[A]->uid().Index < Logs[B]->uid().Index;
    });
    for (size_t I = 0; I != Txns.size(); ++I)
      for (size_t J = I + 1; J != Txns.size(); ++J)
        R.set(Txns[I], Txns[J]);
  }
  return R;
}

Relation History::wrRelation() const {
  Relation R(numTxns());
  for (unsigned B = 0, E = numTxns(); B != E; ++B) {
    const TransactionLog &Log = *Logs[B];
    for (uint32_t P = 0, PE = static_cast<uint32_t>(Log.size()); P != PE; ++P) {
      std::optional<TxnUid> W = Log.writerOf(P);
      if (!W)
        continue;
      std::optional<unsigned> A = indexOf(*W);
      assert(A && "wr writer missing from history");
      R.set(*A, B);
    }
  }
  return R;
}

const Relation &History::soWrRelation() const {
  if (!CachedSoWr)
    CachedSoWr = std::make_shared<const Relation>(
        Relation::unionOf(soRelation(), wrRelation()));
  return *CachedSoWr;
}

const Relation &History::causalRelation() const {
  if (!CachedCausal) {
    Relation R = soWrRelation();
    R.closeTransitively();
    CachedCausal = std::make_shared<const Relation>(std::move(R));
  }
  return *CachedCausal;
}

Value History::readValue(unsigned Idx, uint32_t Pos) const {
  const TransactionLog &Log = txn(Idx);
  const Event &E = Log.event(Pos);
  assert(E.isRead() && "readValue on a non-read event");
  // Read-local rule (§2.2.1): a read po-preceded by a write to the same
  // variable returns the last such write's value.
  if (std::optional<uint32_t> P = Log.lastWriteBefore(E.Var, Pos))
    return Log.event(*P).Val;
  std::optional<TxnUid> W = Log.writerOf(Pos);
  assert(W && "external read without an assigned wr writer");
  std::optional<unsigned> WIdx = indexOf(*W);
  assert(WIdx && "wr writer missing from history");
  std::optional<Value> V = txn(*WIdx).lastWriteValue(E.Var);
  assert(V && "wr writer does not write the read variable");
  return *V;
}

std::vector<unsigned> History::committedWriters(VarId Var) const {
  std::vector<unsigned> Result;
  for (unsigned I = 0, E = numTxns(); I != E; ++I)
    if (Logs[I]->isCommitted() && Logs[I]->writesVar(Var))
      Result.push_back(I);
  return Result;
}

bool History::sameHistory(const History &Other) const {
  if (Logs.size() != Other.Logs.size())
    return false;
  for (unsigned I = 0, E = numTxns(); I != E; ++I) {
    const TransactionLog &Log = *Logs[I];
    std::optional<unsigned> OIdx = Other.indexOf(Log.uid());
    if (!OIdx)
      return false;
    // Physically shared storage is equal by construction (copy-on-write
    // aliasing); skip the structural comparison for that common case.
    if (Other.Logs[*OIdx].get() == &Log)
      continue;
    if (!(Other.txn(*OIdx) == Log))
      return false;
  }
  return true;
}

static uint64_t hashCombine(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}

static uint64_t hashLog(const TransactionLog &Log) {
  uint64_t H = Log.uid().packed();
  for (uint32_t P = 0, E = static_cast<uint32_t>(Log.size()); P != E; ++P) {
    const Event &Ev = Log.event(P);
    H = hashCombine(H, static_cast<uint64_t>(Ev.Kind));
    H = hashCombine(H, Ev.Var);
    H = hashCombine(H, static_cast<uint64_t>(Ev.Val));
    if (std::optional<TxnUid> W = Log.writerOf(P))
      H = hashCombine(H, W->packed() ^ 0xabcdef0123456789ULL);
  }
  return H;
}

uint64_t txdpor::hashTransactionLog(const TransactionLog &Log) {
  return hashLog(Log);
}

uint64_t History::hashIgnoringOrder() const {
  // Per-log hashes are combined commutatively so block order is ignored.
  // Each one goes through the splitmix64 finalizer first: with the old
  // `H += hashLog(L) * C` the constant factored out of the sum, so any
  // two histories whose per-log hashes had equal sums collided.
  uint64_t H = 0x12345678u;
  for (const LogPtr &Log : Logs)
    H += splitmix64(hashLog(*Log));
  return H;
}

std::string History::canonicalKey() const {
  std::vector<unsigned> Order(numTxns());
  for (unsigned I = 0; I != numTxns(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](unsigned A, unsigned B) {
    return Logs[A]->uid() < Logs[B]->uid();
  });
  std::ostringstream OS;
  for (unsigned I : Order) {
    const TransactionLog &Log = *Logs[I];
    OS << Log.uid().str() << '[';
    for (uint32_t P = 0, E = static_cast<uint32_t>(Log.size()); P != E; ++P) {
      const Event &Ev = Log.event(P);
      OS << eventKindName(Ev.Kind);
      if (Ev.isRead() || Ev.isWrite())
        OS << '_' << Ev.Var;
      if (Ev.isWrite())
        OS << '=' << Ev.Val;
      if (std::optional<TxnUid> W = Log.writerOf(P))
        OS << '<' << W->str() << '>';
      OS << ';';
    }
    OS << ']';
  }
  return OS.str();
}

std::string History::str(const VarNameFn *VarNames) const {
  auto VarName = [&](VarId V) {
    return VarNames ? (*VarNames)(V) : ("x" + std::to_string(V));
  };
  std::ostringstream OS;
  for (const LogPtr &LP : Logs) {
    const TransactionLog &Log = *LP;
    OS << Log.uid().str() << ": ";
    for (uint32_t P = 0, E = static_cast<uint32_t>(Log.size()); P != E; ++P) {
      const Event &Ev = Log.event(P);
      if (P)
        OS << ' ';
      switch (Ev.Kind) {
      case EventKind::Begin:
        OS << "begin";
        break;
      case EventKind::Commit:
        OS << "commit";
        break;
      case EventKind::Abort:
        OS << "abort";
        break;
      case EventKind::Write:
        OS << "write(" << VarName(Ev.Var) << "," << Ev.Val << ")";
        break;
      case EventKind::Read:
        OS << "read(" << VarName(Ev.Var) << ")";
        if (std::optional<TxnUid> W = Log.writerOf(P))
          OS << "<-" << W->str();
        break;
      }
    }
    OS << '\n';
  }
  return OS.str();
}

void History::checkWellFormed() const {
#ifndef NDEBUG
  assert(!Logs.empty() && Logs[0]->isInit() &&
         "history must start with the initial transaction");
  for (unsigned I = 0, E = numTxns(); I != E; ++I) {
    const TransactionLog &Log = *Logs[I];
    assert(!Log.events().empty() && "empty transaction log");
    assert(Log.event(0).Kind == EventKind::Begin &&
           "transaction log must start with begin");
    for (uint32_t P = 1, PE = static_cast<uint32_t>(Log.size()); P != PE; ++P) {
      assert(Log.event(P).Kind != EventKind::Begin && "duplicate begin");
      assert((P + 1 == PE || (Log.event(P).Kind != EventKind::Commit &&
                              Log.event(P).Kind != EventKind::Abort)) &&
             "commit/abort must be the last event");
      if (std::optional<TxnUid> W = Log.writerOf(P)) {
        assert(Log.event(P).isRead() && "writer attached to non-read");
        assert(Log.isExternalRead(P) && "writer attached to internal read");
        std::optional<unsigned> WIdx = indexOf(*W);
        assert(WIdx && "wr writer missing from history");
        assert(*WIdx != I && "read-from own transaction");
        assert(txn(*WIdx).writesVar(Log.event(P).Var) &&
               "wr writer does not visibly write the variable");
      }
    }
  }
  assert(soWrRelation().isAcyclic() && "so ∪ wr must be acyclic (Def. 2.1)");
#endif
}

void History::checkOrderConsistent() const {
#ifndef NDEBUG
  checkWellFormed();
  // Block order must extend so ∪ wr (paper: < is consistent with po, so,
  // wr; footnote 7 strengthens wr-consistency to all reachable histories).
  Relation SoWr = soWrRelation();
  for (unsigned A = 0, E = numTxns(); A != E; ++A)
    for (unsigned B = 0; B != E; ++B)
      if (SoWr.get(A, B))
        assert(A < B && "block order must extend so ∪ wr");
  for (unsigned I = 0, E = numTxns(); I != E; ++I)
    assert((Logs[I]->isPending() ? I + 1 == E : true) &&
           "only the last block may be pending");
#endif
}
