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

/// Extracts a non-negative integer below \p Limit from a JSON number.
bool asUnsigned(const JsonValue &V, uint64_t Limit, unsigned &Out,
                std::string *Error, const char *What) {
  if (V.kind() != JsonValue::Kind::Number)
    return fail(Error, std::string(What) + " must be a number");
  double N = V.asNumber();
  if (N < 0 || N >= static_cast<double>(Limit) || N != std::floor(N))
    return fail(Error, std::string(What) + " out of range");
  Out = static_cast<unsigned>(N);
  return true;
}

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

std::optional<TransactionLog> trace_io::parseJsonlTxn(const std::string &Line,
                                                      std::string *Error) {
  std::string JsonError;
  std::unique_ptr<JsonValue> Doc = parseJson(Line, &JsonError);
  if (!Doc) {
    fail(Error, "bad JSON: " + JsonError);
    return std::nullopt;
  }
  if (Doc->kind() != JsonValue::Kind::Object) {
    fail(Error, "trace record is not a JSON object");
    return std::nullopt;
  }
  const JsonValue *S = Doc->find("s"), *I = Doc->find("i"),
                  *Ops = Doc->find("ops");
  unsigned Session = 0, Index = 0;
  if (!S || !I) {
    fail(Error, std::string("missing \"") + (!S ? "s" : "i") + "\" field");
    return std::nullopt;
  }
  if (!asUnsigned(*S, TxnUid::InitSession, Session, Error, "session \"s\"") ||
      !asUnsigned(*I, uint64_t(1) << 32, Index, Error, "index \"i\""))
    return std::nullopt;
  if (!Ops || Ops->kind() != JsonValue::Kind::Array) {
    fail(Error, "missing \"ops\" array");
    return std::nullopt;
  }
  TransactionLog Log(TxnUid{Session, Index});
  Log.append(Event::makeBegin());
  for (const JsonValue &Op : Ops->elements()) {
    const auto &E = Op.elements();
    if (Op.kind() != JsonValue::Kind::Array || E.empty() ||
        E[0].kind() != JsonValue::Kind::String) {
      fail(Error, "malformed op (expected [\"r\"|\"w\", ...])");
      return std::nullopt;
    }
    const std::string &Code = E[0].asString();
    unsigned Var = 0;
    if (Code == "w") {
      if (E.size() != 3 ||
          !asUnsigned(E[1], uint64_t(1) << 32, Var, Error, "write var") ||
          E[2].kind() != JsonValue::Kind::Number) {
        fail(Error, "malformed write op");
        return std::nullopt;
      }
      // JSON numbers are doubles: beyond 2^53 they no longer name one
      // integer, and a fraction or an infinity has no Value at all.
      double Val = E[2].asNumber();
      if (!(std::fabs(Val) <= 9007199254740992.0) || Val != std::floor(Val)) {
        fail(Error, "write value must be an integer in [-2^53, 2^53]");
        return std::nullopt;
      }
      Log.append(Event::makeWrite(Var, static_cast<Value>(Val)));
    } else if (Code == "r") {
      if ((E.size() != 2 && E.size() != 3) ||
          !asUnsigned(E[1], uint64_t(1) << 32, Var, Error, "read var")) {
        fail(Error, "malformed read op");
        return std::nullopt;
      }
      Log.append(Event::makeRead(Var));
      if (E.size() == 3) {
        if (E[2].kind() != JsonValue::Kind::String) {
          fail(Error, "read writer must be a uid string");
          return std::nullopt;
        }
        TxnUid Writer;
        if (!parseUidToken(E[2].asString(), Writer, Error))
          return std::nullopt;
        Log.setWriter(static_cast<uint32_t>(Log.size()) - 1, Writer);
      }
    } else {
      fail(Error, "unknown op code '" + Code + "'");
      return std::nullopt;
    }
  }
  const JsonValue *St = Doc->find("st");
  bool Abort = false;
  if (St) {
    if (St->kind() != JsonValue::Kind::String ||
        (St->asString() != "c" && St->asString() != "a")) {
      fail(Error, "\"st\" must be \"c\" or \"a\"");
      return std::nullopt;
    }
    Abort = St->asString() == "a";
  }
  Log.append(Abort ? Event::makeAbort() : Event::makeCommit());
  return Log;
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
