//===- history/TransactionLog.h - Per-transaction event sequences ---------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A transaction log (paper §2.2.1) is an identifier plus a sequence of
/// events ordered by program order po. The first event is always begin; a
/// commit or abort, when present, is last. The log also stores, aligned
/// with the event vector, the writer transaction of every external read
/// (the restriction of the history's write-read relation to this log),
/// which makes copying and truncating histories trivial.
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_HISTORY_TRANSACTIONLOG_H
#define TXDPOR_HISTORY_TRANSACTIONLOG_H

#include "history/Event.h"

#include <cassert>
#include <optional>
#include <vector>

namespace txdpor {

/// Completion status of a transaction log.
enum class TxnStatus : uint8_t { Pending, Committed, Aborted };

/// A transaction log: a po-ordered event sequence with a stable identifier.
class TransactionLog {
public:
  TransactionLog(TxnUid Uid) : Uid(Uid) {}

  TxnUid uid() const { return Uid; }

  /// Empties the log and renames it \p NewUid, keeping the event storage:
  /// a reader that refills one record per line allocates nothing once the
  /// record has grown to its longest.
  void reset(TxnUid NewUid) {
    Uid = NewUid;
    Events.clear();
    Writers.clear();
  }
  bool isInit() const { return Uid.isInit(); }

  /// Events in program order. events()[0] is begin (for non-init logs).
  const std::vector<Event> &events() const { return Events; }
  size_t size() const { return Events.size(); }
  const Event &event(uint32_t Pos) const {
    assert(Pos < Events.size() && "event position out of range");
    return Events[Pos];
  }

  TxnStatus status() const {
    if (Events.empty())
      return TxnStatus::Pending;
    switch (Events.back().Kind) {
    case EventKind::Commit:
      return TxnStatus::Committed;
    case EventKind::Abort:
      return TxnStatus::Aborted;
    default:
      return TxnStatus::Pending;
    }
  }
  bool isCommitted() const { return status() == TxnStatus::Committed; }
  bool isAborted() const { return status() == TxnStatus::Aborted; }
  bool isPending() const { return status() == TxnStatus::Pending; }

  /// Appends an event; commit/abort must stay maximal (paper §2.2.1).
  void append(const Event &E) {
    assert(status() == TxnStatus::Pending &&
           "cannot extend a complete transaction log");
    Events.push_back(E);
    Writers.push_back(std::nullopt);
  }

  /// Sets the write-read dependency of the read at \p Pos.
  void setWriter(uint32_t Pos, TxnUid Writer) {
    assert(Pos < Events.size() && Events[Pos].isRead() &&
           "writer can only be attached to a read event");
    Writers[Pos] = Writer;
  }

  /// Returns the writer transaction of the read at \p Pos, if assigned.
  std::optional<TxnUid> writerOf(uint32_t Pos) const {
    assert(Pos < Events.size() && "event position out of range");
    return Writers[Pos];
  }

  /// True if the event at \p Pos is an external read of its variable, i.e.
  /// a read not preceded in po by a write to the same variable (§2.2.1,
  /// reads(t)). Only external reads participate in the wr relation.
  bool isExternalRead(uint32_t Pos) const {
    const Event &E = event(Pos);
    if (!E.isRead())
      return false;
    for (uint32_t P = 0; P != Pos; ++P)
      if (Events[P].isWrite() && Events[P].Var == E.Var)
        return false;
    return true;
  }

  /// Positions of all external reads, ascending.
  std::vector<uint32_t> externalReads() const {
    std::vector<uint32_t> Result;
    for (uint32_t P = 0, E = static_cast<uint32_t>(Events.size()); P != E; ++P)
      if (isExternalRead(P))
        Result.push_back(P);
    return Result;
  }

  /// True if this log writes \p Var visibly (§2.2.1, writes(t)): it has a
  /// write to \p Var and does not contain an abort event.
  bool writesVar(VarId Var) const {
    if (isAborted())
      return false;
    for (const Event &E : Events)
      if (E.isWrite() && E.Var == Var)
        return true;
    return false;
  }

  /// All variables visibly written by this log, ascending and unique.
  std::vector<VarId> writtenVars() const;

  /// Value of the last po-write to \p Var, if any (ignores abort status;
  /// used both for visible writes and for same-transaction read-local).
  std::optional<Value> lastWriteValue(VarId Var) const {
    for (size_t P = Events.size(); P-- > 0;)
      if (Events[P].isWrite() && Events[P].Var == Var)
        return Events[P].Val;
    return std::nullopt;
  }

  /// Position of the last po-write to \p Var strictly before \p Before.
  std::optional<uint32_t> lastWriteBefore(VarId Var, uint32_t Before) const {
    for (uint32_t P = Before; P-- > 0;)
      if (Events[P].isWrite() && Events[P].Var == Var)
        return P;
    return std::nullopt;
  }

  /// Removes, in place, every read whose assigned writer satisfies
  /// \p Drop; the other events keep their order. Returns how many went.
  template <typename PredT> unsigned eraseReadsFrom(PredT Drop) {
    size_t Out = 0;
    for (size_t P = 0, E = Events.size(); P != E; ++P) {
      if (Events[P].isRead() && Writers[P] && Drop(*Writers[P]))
        continue;
      Events[Out] = Events[P];
      Writers[Out] = Writers[P];
      ++Out;
    }
    unsigned Erased = static_cast<unsigned>(Events.size() - Out);
    Events.resize(Out);
    Writers.resize(Out);
    return Erased;
  }

  /// Returns a copy truncated to the first \p Len events (a po-prefix).
  TransactionLog truncated(uint32_t Len) const {
    assert(Len <= Events.size() && "truncation beyond log length");
    TransactionLog Result(Uid);
    Result.Events.assign(Events.begin(), Events.begin() + Len);
    Result.Writers.assign(Writers.begin(), Writers.begin() + Len);
    return Result;
  }

  /// Structural equality: same uid, same events, same wr dependencies.
  bool operator==(const TransactionLog &O) const {
    return Uid == O.Uid && Events == O.Events && Writers == O.Writers;
  }
  bool operator!=(const TransactionLog &O) const { return !(*this == O); }

private:
  TxnUid Uid;
  std::vector<Event> Events;
  /// Writer transaction per event; engaged only for external reads with an
  /// assigned wr dependency.
  std::vector<std::optional<TxnUid>> Writers;
};

} // namespace txdpor

#endif // TXDPOR_HISTORY_TRANSACTIONLOG_H
