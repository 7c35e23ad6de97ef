//===- consistency/SerializabilityChecker.cpp - SER: saturate, then search ===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "consistency/SerializabilityChecker.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

using namespace txdpor;

namespace {

constexpr uint64_t bit(unsigned I) { return uint64_t(1) << I; }

/// Precomputed per-history facts, the saturated predecessor masks and the
/// DFS state of the search.
class SerSearch {
public:
  explicit SerSearch(const History &H) : N(H.numTxns()) {
    assert(N <= 64 && "histories beyond 64 transactions are out of scope");
    buildMasks(H);
    if (!Cyclic)
      closeTransitively();
    if (!Cyclic)
      saturate();
  }

  /// True if the history is serializable. Saturation has already rejected
  /// the cyclic ones; the others are searched.
  bool run() {
    if (Cyclic)
      return false;
    LastWriter.assign(NumDense, kNoWriter);
    return extend(/*Placed=*/0);
  }

  bool rejectedBySaturation() const { return Cyclic; }
  uint64_t statesVisited() const { return States; }
  size_t memoEntries() const { return Failed.size(); }

  /// Commit sequence of the successful search (valid after run() returned
  /// true).
  const std::vector<unsigned> &sequence() const { return Sequence; }

private:
  static constexpr uint8_t kNoWriter = 0xff;
  static constexpr unsigned kNoDense = ~0u;

  /// One external read: the dense id of its variable, its transaction and
  /// its wr writer.
  struct ReadRec {
    unsigned Dense;
    unsigned Reader;
    unsigned Writer;
  };

  /// so ∪ wr predecessor masks straight from the logs, the reads (CSR by
  /// reader) and the visible writers of every read variable.
  void buildMasks(const History &H) {
    Pred.assign(N, 0);
    // One uid→index array serves so and wr: sorted by packed uid, a
    // session's transactions are adjacent and ascend by index, so each
    // one's so-predecessor is the entry before it. The initial
    // transaction (session InitSession) sorts last and precedes all.
    std::vector<std::pair<uint64_t, unsigned>> ByUid(N);
    for (unsigned T = 0; T != N; ++T)
      ByUid[T] = {H.txn(T).uid().packed(), T};
    std::sort(ByUid.begin(), ByUid.end());
    for (unsigned K = 0; K != N; ++K) {
      unsigned T = ByUid[K].second;
      if (H.txn(T).isInit()) {
        for (unsigned B = 0; B != N; ++B)
          if (B != T)
            Pred[B] |= bit(T);
      } else if (K > 0 &&
                 (ByUid[K - 1].first >> 32) == (ByUid[K].first >> 32)) {
        Pred[T] |= bit(ByUid[K - 1].second);
      }
    }
    auto indexOf = [&](TxnUid U) {
      auto It = std::lower_bound(ByUid.begin(), ByUid.end(),
                                 std::make_pair(U.packed(), 0u));
      assert(It != ByUid.end() && It->first == U.packed() &&
             "wr writer missing from history");
      return It->second;
    };

    // Dense ids for the variables that occur in some wr dependency: only
    // their last-writer entries influence appendability.
    std::vector<unsigned> DenseOf;
    ReadBegin.assign(N + 1, 0);
    for (unsigned T = 0; T != N; ++T) {
      const TransactionLog &Log = H.txn(T);
      ReadBegin[T] = static_cast<unsigned>(Reads.size());
      for (uint32_t P = 0, PE = static_cast<uint32_t>(Log.size()); P != PE;
           ++P) {
        std::optional<TxnUid> W = Log.writerOf(P);
        if (!W)
          continue;
        VarId X = Log.event(P).Var;
        if (X >= DenseOf.size())
          DenseOf.resize(X + 1, kNoDense);
        if (DenseOf[X] == kNoDense)
          DenseOf[X] = NumDense++;
        unsigned WIdx = indexOf(*W);
        Pred[T] |= bit(WIdx);
        Reads.push_back({DenseOf[X], T, WIdx});
      }
    }
    ReadBegin[N] = static_cast<unsigned>(Reads.size());

    // Visible writes (a write event in a log without abort) of the read
    // variables, per transaction and per variable.
    WriterMask.assign(NumDense, 0);
    WriteBegin.assign(N + 1, 0);
    for (unsigned T = 0; T != N; ++T) {
      const TransactionLog &Log = H.txn(T);
      WriteBegin[T] = static_cast<unsigned>(Writes.size());
      if (Log.isAborted())
        continue;
      for (const Event &E : Log.events()) {
        if (!E.isWrite() || E.Var >= DenseOf.size() ||
            DenseOf[E.Var] == kNoDense)
          continue;
        unsigned D = DenseOf[E.Var];
        if (WriterMask[D] & bit(T))
          continue;
        WriterMask[D] |= bit(T);
        Writes.push_back(D);
      }
    }
    WriteBegin[N] = static_cast<unsigned>(Writes.size());
  }

  void closeTransitively() {
    for (unsigned K = 0; K != N; ++K)
      for (unsigned I = 0; I != N; ++I)
        if (Pred[I] & bit(K))
          Pred[I] |= Pred[K];
    for (unsigned I = 0; I != N; ++I)
      if (Pred[I] & bit(I))
        Cyclic = true;
  }

  /// Adds the edges From → \p To for every From in \p From to the closed
  /// masks. Returns false, changing nothing, if one would close a cycle.
  bool addEdges(uint64_t From, unsigned To) {
    uint64_t Add = From;
    for (uint64_t M = From; M; M &= M - 1)
      Add |= Pred[__builtin_ctzll(M)];
    // Pred is closed, so To reaching any source shows up in Add.
    if (Add & bit(To))
      return false;
    for (unsigned C = 0; C != N; ++C)
      if (C == To || (Pred[C] & bit(To)))
        Pred[C] |= Add;
    return true;
  }

  /// Closes the masks under the two orderings every serialization must
  /// respect: for a read of x by t3 from t1 and another visible writer t2
  /// of x, t2 lies outside (t1, t3), so t2 < t3 forces t2 < t1 and t1 < t2
  /// forces t3 < t2. Sets Cyclic if they contradict.
  void saturate() {
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (const ReadRec &R : Reads) {
        uint64_t Others =
            WriterMask[R.Dense] & ~(bit(R.Writer) | bit(R.Reader));
        if (uint64_t Before = Others & Pred[R.Reader] & ~Pred[R.Writer]) {
          if (!addEdges(Before, R.Writer)) {
            Cyclic = true;
            return;
          }
          Changed = true;
        }
        for (uint64_t M = Others; M; M &= M - 1) {
          unsigned T2 = static_cast<unsigned>(__builtin_ctzll(M));
          if (!(Pred[T2] & bit(R.Writer)) || (Pred[T2] & bit(R.Reader)))
            continue;
          if (!addEdges(bit(R.Reader), T2)) {
            Cyclic = true;
            return;
          }
          Changed = true;
        }
      }
    }
  }

  bool canAppend(unsigned T, uint64_t Placed) const {
    if ((Pred[T] & ~Placed) != 0)
      return false;
    for (unsigned I = ReadBegin[T]; I != ReadBegin[T + 1]; ++I)
      if (LastWriter[Reads[I].Dense] != Reads[I].Writer)
        return false;
    return true;
  }

  std::string stateKey(uint64_t Placed) const {
    std::string Key(reinterpret_cast<const char *>(&Placed), sizeof(Placed));
    Key.append(reinterpret_cast<const char *>(LastWriter.data()),
               LastWriter.size());
    return Key;
  }

  /// Depth-first over appendable transactions, least index first, so the
  /// first complete sequence is the lexicographically least one. Failed
  /// states are memoized on (placed-set, last-writer map), the entire
  /// relevant state of a prefix; the memo stays empty, and no key is
  /// built, until the search first backtracks.
  bool extend(uint64_t Placed) {
    ++States;
    if (Placed == (N == 64 ? ~uint64_t(0) : bit(N) - 1))
      return true;
    if (!Failed.empty() && Failed.count(stateKey(Placed)))
      return false;

    for (unsigned T = 0; T != N; ++T) {
      if ((Placed >> T) & 1)
        continue;
      if (!canAppend(T, Placed))
        continue;
      // Place T, saving the overwritten last-writer entries.
      for (unsigned I = WriteBegin[T]; I != WriteBegin[T + 1]; ++I) {
        Saved.push_back(LastWriter[Writes[I]]);
        LastWriter[Writes[I]] = static_cast<uint8_t>(T);
      }
      Sequence.push_back(T);
      if (extend(Placed | bit(T)))
        return true;
      Sequence.pop_back();
      for (unsigned I = WriteBegin[T + 1]; I-- > WriteBegin[T];) {
        LastWriter[Writes[I]] = Saved.back();
        Saved.pop_back();
      }
    }
    Failed.insert(stateKey(Placed));
    return false;
  }

  unsigned N;
  bool Cyclic = false;
  /// Per transaction: the transactions every serialization places before
  /// it — (so ∪ wr)+ after build, saturated after saturate().
  std::vector<uint64_t> Pred;
  std::vector<ReadRec> Reads;  ///< Grouped by reader, ascending.
  std::vector<unsigned> ReadBegin; ///< Reads of T: [ReadBegin[T], [T+1]).
  /// Dense variables each transaction visibly writes (read variables
  /// only), grouped by writer: [WriteBegin[T], WriteBegin[T+1]).
  std::vector<unsigned> Writes;
  std::vector<unsigned> WriteBegin;
  std::vector<uint64_t> WriterMask; ///< Visible writers per dense var.
  unsigned NumDense = 0;
  std::vector<uint8_t> LastWriter;
  std::vector<uint8_t> Saved; ///< Last-writer entries overwritten so far.
  std::vector<unsigned> Sequence;
  std::unordered_set<std::string> Failed;
  uint64_t States = 0;
};

} // namespace

bool SerializabilityChecker::isConsistent(const History &H) const {
  H.checkWellFormed();
  SerSearch Search(H);
  return Search.run();
}

std::optional<std::vector<unsigned>>
SerializabilityChecker::findCommitOrder(const History &H,
                                        SearchReport *Report) const {
  H.checkWellFormed();
  SerSearch Search(H);
  bool Found = Search.run();
  if (Report) {
    Report->RejectedBySaturation = Search.rejectedBySaturation();
    Report->StatesVisited = Search.statesVisited();
    Report->MemoEntries = Search.memoEntries();
  }
  if (!Found)
    return std::nullopt;
  return Search.sequence();
}
