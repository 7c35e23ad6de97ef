//===- trace_io/TraceReader.cpp - Streaming trace ingestion ---------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "trace_io/TraceReader.h"

#include "consistency/LevelParse.h"
#include "history/Serialize.h"
#include "support/Json.h"
#include "support/Parse.h"

#include <sstream>

using namespace txdpor;
using namespace txdpor::trace_io;

TraceReader::TraceReader(std::istream &In) : In(In) {
  if (!nextLine()) {
    setError("empty trace (no header)");
    return;
  }
  size_t First = Line.find_first_not_of(" \t");
  if (Line[First] == '{') {
    // jsonl: the first line is the header object.
    Format = TraceFormat::Jsonl;
    std::string JsonError;
    std::unique_ptr<JsonValue> Doc = parseJson(Line, &JsonError);
    if (!Doc) {
      setError("bad JSON header: " + JsonError);
      return;
    }
    const JsonValue *Magic = Doc->find("trace");
    if (!Magic || Magic->kind() != JsonValue::Kind::String ||
        Magic->asString() != "txdpor-v1") {
      setError("missing \"trace\":\"txdpor-v1\" header field");
      return;
    }
    const JsonValue *Vars = Doc->find("vars");
    if (!Vars || Vars->kind() != JsonValue::Kind::Number ||
        Vars->asNumber() < 0 || Vars->asNumber() > 1u << 20) {
      setError("header \"vars\" missing or out of range");
      return;
    }
    Header.NumVars = static_cast<unsigned>(Vars->asNumber());
    if (const JsonValue *Sessions = Doc->find("sessions")) {
      if (Sessions->kind() != JsonValue::Kind::Number ||
          Sessions->asNumber() < 0 || Sessions->asNumber() > 1u << 30) {
        setError("header \"sessions\" out of range");
        return;
      }
      Header.NumSessions = static_cast<unsigned>(Sessions->asNumber());
    }
    if (const JsonValue *Level = Doc->find("level")) {
      if (Level->kind() != JsonValue::Kind::String) {
        setError("header \"level\" must be a level name");
        return;
      }
      std::optional<IsolationLevel> Base =
          isolationLevelByName(Level->asString());
      if (!Base) {
        setError("unknown isolation level '" + Level->asString() + "'");
        return;
      }
      Header.Levels = LevelAssignment::uniform(*Base);
    }
    if (const JsonValue *PerSession = Doc->find("session_levels")) {
      if (PerSession->kind() != JsonValue::Kind::Array || !Header.Levels) {
        setError("\"session_levels\" needs a \"level\" and an array value");
        return;
      }
      unsigned S = 0;
      for (const JsonValue &Entry : PerSession->elements()) {
        std::optional<IsolationLevel> L =
            Entry.kind() == JsonValue::Kind::String
                ? isolationLevelByName(Entry.asString())
                : std::nullopt;
        if (!L) {
          setError("bad \"session_levels\" entry");
          return;
        }
        Header.Levels->set(S++, *L);
      }
    }
    Valid = true;
    return;
  }

  // litmus: optional "sessions" / "level" lines, then the init txn line.
  Format = TraceFormat::Litmus;
  for (;;) {
    std::istringstream Tokens(Line);
    std::string Keyword;
    Tokens >> Keyword;
    if (Keyword == "sessions") {
      std::string Count;
      if (!(Tokens >> Count)) {
        setError("missing session count");
        return;
      }
      std::optional<unsigned> N = parseBoundedUInt(Count, 1u << 30);
      if (!N) {
        setError("bad session count '" + Count + "'");
        return;
      }
      Header.NumSessions = *N;
    } else if (Keyword == "level") {
      std::string Tok;
      if (!(Tokens >> Tok)) {
        setError("missing isolation level");
        return;
      }
      std::optional<IsolationLevel> Base = isolationLevelByName(Tok);
      if (!Base) {
        setError("unknown isolation level '" + Tok + "'");
        return;
      }
      Header.Levels = LevelAssignment::uniform(*Base);
      while (Tokens >> Tok) {
        std::optional<std::pair<unsigned, IsolationLevel>> Entry =
            parseSessionLevel(Tok);
        if (!Entry) {
          setError("bad session-level entry '" + Tok + "'");
          return;
        }
        Header.Levels->set(Entry->first, Entry->second);
      }
    } else if (Keyword == "txn") {
      std::string ParseError;
      std::optional<TransactionLog> Init = parseTxnLine(Line, &ParseError);
      if (!Init) {
        setError(ParseError);
        return;
      }
      if (!Init->isInit() || !Init->isCommitted()) {
        setError("the first transaction line must be the committed init "
                 "transaction");
        return;
      }
      std::vector<VarId> InitVars = Init->writtenVars();
      Header.NumVars = InitVars.empty() ? 0 : InitVars.back() + 1;
      Valid = true;
      return;
    } else {
      setError("expected 'sessions', 'level' or 'txn', got '" + Keyword +
               "'");
      return;
    }
    if (!nextLine()) {
      setError("trace header without an init transaction line");
      return;
    }
  }
}

bool TraceReader::nextLine() {
  while (std::getline(In, Line)) {
    ++LineNo;
    // CRLF-saved traces: getline keeps the trailing '\r', which would
    // otherwise embed itself in the last token of every line.
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    size_t First = Line.find_first_not_of(" \t\r");
    if (First == std::string::npos || Line[First] == '#')
      continue;
    return true;
  }
  return false;
}

void TraceReader::setError(const std::string &Message) {
  Valid = false;
  Error = Message + " at line " + std::to_string(LineNo);
}

TraceReader::Next TraceReader::next(TransactionLog &Out) {
  assert(Valid && "next() on an invalid reader");
  if (!nextLine()) {
    if (In.bad()) {
      setError("read error");
      return Next::Error;
    }
    return Next::End;
  }
  std::string ParseError;
  if (Format == TraceFormat::Jsonl) {
    if (!readJsonlTxn(Line, Out, &ParseError)) {
      setError(ParseError);
      return Next::Error;
    }
  } else {
    std::optional<TransactionLog> Log = parseTxnLine(Line, &ParseError);
    if (!Log) {
      setError(ParseError);
      return Next::Error;
    }
    Out = std::move(*Log);
  }
  if (Out.isInit()) {
    setError("duplicate init transaction");
    return Next::Error;
  }
  if (Out.isPending()) {
    // Litmus lines may omit commit/abort in history dumps; a *trace*
    // record must be a completed transaction.
    setError("transaction record without commit/abort");
    return Next::Error;
  }
  return Next::Txn;
}
