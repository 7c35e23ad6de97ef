//===- trace_io/TraceFormat.cpp - Trace record grammar --------------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "trace_io/TraceFormat.h"

#include "history/Serialize.h"
#include "support/Json.h"

#include <cmath>
#include <sstream>

using namespace txdpor;
using namespace txdpor::trace_io;

namespace {

bool fail(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
  return false;
}

/// "init" or "<session>.<index>" — the compact uid spelling of jsonl
/// records (parseUidToken accepts both this and the "t"-prefixed form).
std::string uidToken(TxnUid Uid) {
  if (Uid.isInit())
    return "init";
  return std::to_string(Uid.Session) + "." + std::to_string(Uid.Index);
}

/// A non-negative integer below \p Limit, checked the way a JSON reader
/// sees it: a double that must be integral and in range.
bool inRange(double N, uint64_t Limit) {
  return N >= 0 && N < static_cast<double>(Limit) && N == std::floor(N);
}

/// True if \p C can start a JSON number.
bool startsNumber(char C) { return C == '-' || (C >= '0' && C <= '9'); }

std::string levelSpecText(const LevelAssignment &Levels, unsigned Sessions) {
  std::string Text = isolationLevelName(Levels.defaultLevel());
  for (unsigned S = 0; S != Sessions; ++S)
    if (Levels.levelFor(S) != Levels.defaultLevel())
      Text += " S" + std::to_string(S) + "=" +
              isolationLevelName(Levels.levelFor(S));
  return Text;
}

} // namespace

std::string trace_io::writeTraceHeader(const TraceHeader &H, TraceFormat F) {
  std::ostringstream OS;
  unsigned Sessions = H.NumSessions.value_or(0);
  if (F == TraceFormat::Litmus) {
    OS << "# txdpor trace\n";
    if (H.NumSessions)
      OS << "sessions " << *H.NumSessions << '\n';
    if (H.Levels)
      OS << "level " << levelSpecText(*H.Levels, Sessions) << '\n';
    OS << writeTxnLine(History::makeInitial(H.NumVars).txn(0)) << '\n';
    return OS.str();
  }
  // The jsonl header is hand-formatted: JsonWriter pretty-prints, and a
  // jsonl record must stay on one line. Every string here is a fixed
  // token or a level name, so no escaping is needed.
  OS << "{\"trace\":\"txdpor-v1\",\"vars\":" << H.NumVars;
  if (H.NumSessions)
    OS << ",\"sessions\":" << *H.NumSessions;
  if (H.Levels) {
    OS << ",\"level\":\"" << isolationLevelName(H.Levels->defaultLevel())
       << '"';
    if (H.Levels->hasExplicit() && H.NumSessions) {
      OS << ",\"session_levels\":[";
      for (unsigned S = 0; S != Sessions; ++S)
        OS << (S ? "," : "") << '"'
           << isolationLevelName(H.Levels->levelFor(S)) << '"';
      OS << ']';
    }
  }
  OS << "}\n";
  return OS.str();
}

std::string trace_io::writeTraceTxn(const TransactionLog &Log, TraceFormat F) {
  assert(!Log.isInit() && "the init transaction lives in the header");
  if (F == TraceFormat::Litmus)
    return writeTxnLine(Log) + "\n";
  std::ostringstream OS;
  OS << "{\"s\":" << Log.uid().Session << ",\"i\":" << Log.uid().Index
     << ",\"ops\":[";
  bool First = true;
  for (uint32_t P = 0, PE = static_cast<uint32_t>(Log.size()); P != PE; ++P) {
    const Event &Ev = Log.event(P);
    if (!Ev.isRead() && !Ev.isWrite())
      continue; // begin/commit/abort are implicit in jsonl.
    if (!First)
      OS << ',';
    First = false;
    if (Ev.isWrite()) {
      OS << "[\"w\"," << Ev.Var << ',' << Ev.Val << ']';
    } else {
      OS << "[\"r\"," << Ev.Var;
      if (std::optional<TxnUid> W = Log.writerOf(P))
        OS << ",\"" << uidToken(*W) << '"';
      OS << ']';
    }
  }
  OS << "],\"st\":\"" << (Log.isAborted() ? 'a' : 'c') << "\"}\n";
  return OS.str();
}

namespace {

/// Reads a record's "ops" array into \p Out, after its begin event.
bool readOps(JsonLexer &L, TransactionLog &Out, std::string *Error) {
  auto BadJson = [&] { return fail(Error, "bad JSON: " + L.error()); };
  if (!L.consume('['))
    return fail(Error, "missing \"ops\" array");
  Out.append(Event::makeBegin());
  double Var, Val;
  std::string_view Code;
  for (bool First = true; L.nextItem(']', First);) {
    if (!L.consume('[') || L.peek() != '"')
      return fail(Error, "malformed op (expected [\"r\"|\"w\", ...])");
    if (!L.readString(Code))
      return BadJson();
    if (Code == "w") {
      if (!L.consume(',') || !startsNumber(L.peek()) || !L.readNumber(Var) ||
          !inRange(Var, uint64_t(1) << 32) || !L.consume(',') ||
          !startsNumber(L.peek()) || !L.readNumber(Val))
        return fail(Error, "malformed write op");
      // JSON numbers are doubles: beyond 2^53 they no longer name one
      // integer, and a fraction or an infinity has no Value at all.
      if (!(std::fabs(Val) <= 9007199254740992.0) || Val != std::floor(Val))
        return fail(Error, "write value must be an integer in [-2^53, 2^53]");
      if (!L.consume(']'))
        return fail(Error, "malformed write op");
      Out.append(
          Event::makeWrite(static_cast<VarId>(Var), static_cast<Value>(Val)));
    } else if (Code == "r") {
      if (!L.consume(',') || !startsNumber(L.peek()) || !L.readNumber(Var) ||
          !inRange(Var, uint64_t(1) << 32))
        return fail(Error, "malformed read op");
      Out.append(Event::makeRead(static_cast<VarId>(Var)));
      if (L.consume(',')) {
        std::string_view Uid;
        if (L.peek() != '"')
          return fail(Error, "read writer must be a uid string");
        if (!L.readString(Uid))
          return BadJson();
        TxnUid Writer;
        if (!parseUidToken(Uid, Writer, Error))
          return false;
        Out.setWriter(static_cast<uint32_t>(Out.size()) - 1, Writer);
      }
      if (!L.consume(']'))
        return fail(Error, "malformed read op");
    } else {
      return fail(Error, "unknown op code '" + std::string(Code) + "'");
    }
  }
  return !L.failed() || BadJson();
}

} // namespace

bool trace_io::readJsonlTxn(std::string_view Line, TransactionLog &Out,
                            std::string *Error) {
  JsonLexer L(Line);
  auto BadJson = [&] { return fail(Error, "bad JSON: " + L.error()); };
  if (L.peek() != '{') {
    if (L.skipValue(0) && !L.atEnd())
      L.fail("trailing characters after the document");
    return L.failed() ? BadJson()
                      : fail(Error, "trace record is not a JSON object");
  }
  L.consume('{');
  bool HaveS = false, HaveI = false, HaveOps = false, HaveSt = false;
  bool Abort = false;
  double S = 0, I = 0;
  // "ops" is read straight into Out once the uid is known; an "ops" that
  // precedes "s" or "i" is only syntax-checked, then re-read at the end.
  size_t DeferredOps = std::string_view::npos;
  for (bool First = true; L.nextItem('}', First);) {
    std::string_view Key;
    if (!L.readKey(Key))
      return BadJson();
    // Only the first of duplicate keys counts; the rest are skipped.
    if (Key == "s" && !HaveS) {
      HaveS = true;
      if (!startsNumber(L.peek()))
        return fail(Error, "session \"s\" must be a number");
      if (!L.readNumber(S))
        return BadJson();
      if (!inRange(S, TxnUid::InitSession))
        return fail(Error, "session \"s\" out of range");
    } else if (Key == "i" && !HaveI) {
      HaveI = true;
      if (!startsNumber(L.peek()))
        return fail(Error, "index \"i\" must be a number");
      if (!L.readNumber(I))
        return BadJson();
      if (!inRange(I, uint64_t(1) << 32))
        return fail(Error, "index \"i\" out of range");
    } else if (Key == "ops" && !HaveOps) {
      HaveOps = true;
      if (HaveS && HaveI) {
        Out.reset(TxnUid{static_cast<uint32_t>(S), static_cast<uint32_t>(I)});
        if (!readOps(L, Out, Error))
          return false;
      } else {
        DeferredOps = L.offset();
        if (!L.skipValue(1))
          return BadJson();
      }
    } else if (Key == "st" && !HaveSt) {
      HaveSt = true;
      std::string_view St;
      if (L.peek() != '"' || !L.readString(St) || (St != "c" && St != "a"))
        return L.failed() ? BadJson()
                          : fail(Error, "\"st\" must be \"c\" or \"a\"");
      Abort = St == "a";
    } else if (!L.skipValue(1)) {
      return BadJson();
    }
  }
  if (L.failed())
    return BadJson();
  if (!L.atEnd()) {
    L.fail("trailing characters after the document");
    return BadJson();
  }
  if (!HaveS || !HaveI)
    return fail(Error,
                std::string("missing \"") + (!HaveS ? "s" : "i") + "\" field");
  if (!HaveOps)
    return fail(Error, "missing \"ops\" array");
  if (DeferredOps != std::string_view::npos) {
    L.seek(DeferredOps);
    Out.reset(TxnUid{static_cast<uint32_t>(S), static_cast<uint32_t>(I)});
    if (!readOps(L, Out, Error))
      return false;
  }
  Out.append(Abort ? Event::makeAbort() : Event::makeCommit());
  return true;
}

void trace_io::writeTrace(std::ostream &OS, const TraceHeader &H,
                          const std::vector<TransactionLog> &Txns,
                          TraceFormat F) {
  OS << writeTraceHeader(H, F);
  for (const TransactionLog &Log : Txns)
    OS << writeTraceTxn(Log, F);
}

bool trace_io::traceFromHistory(const History &H,
                                const LevelAssignment &Levels,
                                TraceHeader &HeaderOut,
                                std::vector<TransactionLog> &TxnsOut,
                                std::string *Error) {
  if (H.numTxns() == 0 || !H.txn(0).isInit())
    return fail(Error, "history must start with the init transaction");
  std::vector<VarId> InitVars = H.txn(0).writtenVars();
  HeaderOut = TraceHeader();
  HeaderOut.NumVars = InitVars.empty() ? 0 : InitVars.back() + 1;
  unsigned MaxSession = 0;
  TxnsOut.clear();
  for (unsigned I = 1, E = H.numTxns(); I != E; ++I) {
    const TransactionLog &Log = H.txn(I);
    if (Log.isPending())
      return fail(Error,
                  "pending transaction " + Log.uid().str() + " in history");
    MaxSession = std::max(MaxSession, Log.uid().Session);
    TxnsOut.push_back(Log);
  }
  HeaderOut.NumSessions = TxnsOut.empty() ? 0 : MaxSession + 1;
  HeaderOut.Levels = Levels;
  return true;
}
