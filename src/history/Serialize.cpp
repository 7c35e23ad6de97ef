//===- history/Serialize.cpp - Textual history round-tripping -------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "history/Serialize.h"

#include "support/Parse.h"

#include <sstream>

using namespace txdpor;

std::string txdpor::writeTxnLine(const TransactionLog &Log) {
  std::ostringstream OS;
  OS << "txn " << Log.uid().str();
  for (uint32_t P = 0, PE = static_cast<uint32_t>(Log.size()); P != PE; ++P) {
    const Event &Ev = Log.event(P);
    switch (Ev.Kind) {
    case EventKind::Begin:
      OS << " begin";
      break;
    case EventKind::Commit:
      OS << " commit";
      break;
    case EventKind::Abort:
      OS << " abort";
      break;
    case EventKind::Write:
      OS << " write x" << Ev.Var << " = " << Ev.Val;
      break;
    case EventKind::Read:
      OS << " read x" << Ev.Var << " <- ";
      if (std::optional<TxnUid> W = Log.writerOf(P))
        OS << W->str();
      else
        OS << "_";
      break;
    }
  }
  return OS.str();
}

std::string txdpor::writeHistory(const History &H) {
  std::ostringstream OS;
  for (unsigned I = 0, E = H.numTxns(); I != E; ++I)
    OS << writeTxnLine(H.txn(I)) << '\n';
  return OS.str();
}

namespace {

bool fail(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
  return false;
}

} // namespace

bool txdpor::parseUidToken(std::string_view Token, TxnUid &Out,
                           std::string *Error) {
  if (Token == "init") {
    Out = TxnUid::init();
    return true;
  }
  std::string_view Body = Token;
  if (!Body.empty() && Body[0] == 't')
    Body.remove_prefix(1);
  size_t Dot = Body.find('.');
  std::optional<uint32_t> Session, Index;
  if (Dot != std::string_view::npos) {
    Session = parseDecimalU32(Body.substr(0, Dot));
    Index = parseDecimalU32(Body.substr(Dot + 1));
  }
  if (!Session || !Index || *Session == TxnUid::InitSession)
    return fail(Error, "bad transaction uid '" + std::string(Token) + "'");
  Out = TxnUid{*Session, *Index};
  return true;
}

namespace {

bool parseUid(const std::string &Token, TxnUid &Out, std::string *Error) {
  return parseUidToken(Token, Out, Error);
}

bool parseVar(const std::string &Token, VarId &Out, std::string *Error) {
  std::optional<uint32_t> Var;
  if (!Token.empty() && Token[0] == 'x')
    Var = parseDecimalU32(std::string_view(Token).substr(1));
  if (!Var)
    return fail(Error, "bad variable '" + Token + "'");
  Out = *Var;
  return true;
}

} // namespace

std::optional<TransactionLog> txdpor::parseTxnLine(const std::string &Line,
                                                   std::string *Error) {
  std::istringstream Tokens(Line);
  std::string Token;
  if (!(Tokens >> Token) || Token != "txn") {
    fail(Error, "expected 'txn'");
    return std::nullopt;
  }
  if (!(Tokens >> Token)) {
    fail(Error, "missing transaction uid");
    return std::nullopt;
  }
  TxnUid Uid;
  if (!parseUid(Token, Uid, Error))
    return std::nullopt;
  TransactionLog Log(Uid);
  while (Tokens >> Token) {
    // Guard before every append: TransactionLog::append asserts on
    // extending a complete log, but hand-written input must be rejected
    // with a diagnostic, not an abort.
    if (!Log.isPending()) {
      fail(Error, "event after commit/abort");
      return std::nullopt;
    }
    if (Token == "begin") {
      if (!Log.events().empty()) {
        fail(Error, "duplicate begin");
        return std::nullopt;
      }
      Log.append(Event::makeBegin());
    } else if (Token == "commit") {
      Log.append(Event::makeCommit());
    } else if (Token == "abort") {
      Log.append(Event::makeAbort());
    } else if (Token == "write") {
      std::string VarTok, Eq;
      Value Val;
      if (!(Tokens >> VarTok >> Eq >> Val) || Eq != "=") {
        fail(Error, "malformed write");
        return std::nullopt;
      }
      VarId Var;
      if (!parseVar(VarTok, Var, Error))
        return std::nullopt;
      Log.append(Event::makeWrite(Var, Val));
    } else if (Token == "read") {
      std::string VarTok, Arrow, WriterTok;
      if (!(Tokens >> VarTok >> Arrow >> WriterTok) || Arrow != "<-") {
        fail(Error, "malformed read");
        return std::nullopt;
      }
      VarId Var;
      if (!parseVar(VarTok, Var, Error))
        return std::nullopt;
      Log.append(Event::makeRead(Var));
      if (WriterTok != "_") {
        TxnUid Writer;
        if (!parseUid(WriterTok, Writer, Error))
          return std::nullopt;
        Log.setWriter(static_cast<uint32_t>(Log.size()) - 1, Writer);
      }
    } else {
      fail(Error, "unknown event '" + Token + "'");
      return std::nullopt;
    }
  }
  if (Log.events().empty()) {
    fail(Error, "transaction without events");
    return std::nullopt;
  }
  if (Log.event(0).Kind != EventKind::Begin) {
    fail(Error, "transaction must start with begin");
    return std::nullopt;
  }
  return Log;
}

std::optional<History> txdpor::parseHistory(const std::string &Text,
                                            std::string *Error) {
  History Result;
  std::istringstream Lines(Text);
  std::string Line;
  unsigned LineNo = 0;

  while (std::getline(Lines, Line)) {
    ++LineNo;
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue; // Blank line.
    std::string Where = " at line " + std::to_string(LineNo);
    std::optional<TransactionLog> Log = parseTxnLine(Line, Error);
    if (!Log) {
      if (Error)
        *Error += Where;
      return std::nullopt;
    }
    if (Result.contains(Log->uid())) {
      fail(Error, "duplicate transaction " + Log->uid().str() + Where);
      return std::nullopt;
    }
    Result.appendLog(std::move(*Log));
  }

  if (Result.numTxns() == 0 || !Result.txn(0).isInit()) {
    fail(Error, "history must start with the init transaction");
    return std::nullopt;
  }
  // Validate the deferred wr hookups: block order puts writers first
  // (footnote 7) for explorer output, but the format does not require it,
  // so every read's writer is only resolvable after all lines parsed.
  for (unsigned I = 0, E = Result.numTxns(); I != E; ++I) {
    const TransactionLog &Log = Result.txn(I);
    for (uint32_t P = 0, PE = static_cast<uint32_t>(Log.size()); P != PE;
         ++P) {
      std::optional<TxnUid> W = Log.writerOf(P);
      if (!W)
        continue;
      if (!Result.contains(*W)) {
        fail(Error, "read from unknown transaction " + W->str());
        return std::nullopt;
      }
      if (*W == Log.uid() ||
          !Result.txn(*Result.indexOf(*W)).writesVar(Log.event(P).Var)) {
        fail(Error, "invalid wr dependency on " + W->str());
        return std::nullopt;
      }
    }
  }
  Result.checkWellFormed();
  return Result;
}
