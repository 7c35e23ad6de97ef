//===- tests/trace_reader_equivalence_test.cpp - JSONL reader vs reference -===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TraceReader reads JSONL records straight off the pull lexer
/// (readJsonlTxn), with no JSON tree. This suite keeps the tree reading —
/// parseJson, then a walk over the JsonValue with JsonValue::find — as
/// the reference, and demands that both readers agree on every file of
/// tests/traces and on deterministic mutations of generated records:
/// the same accept/reject, identical TransactionLogs and the same error
/// line. The mutations are structured (key order, whitespace, \u-escaped
/// keys and op codes, exponent-form integers, duplicate and unknown keys)
/// and byte-level (flip, delete, insert), each case drawn from its own
/// Rng substream so a failing case reproduces from its number alone.
///
//===----------------------------------------------------------------------===//

#include "trace_io/TraceReader.h"

#include "history/Serialize.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "trace_io/TraceGen.h"
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace txdpor;
using namespace txdpor::trace_io;

namespace {

//===----------------------------------------------------------------------===//
// The reference: one JSON tree per record
//===----------------------------------------------------------------------===//

bool fail(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
  return false;
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

/// The tree-based reading of one record line.
std::optional<TransactionLog> parseJsonlTxn(const std::string &Line,
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

//===----------------------------------------------------------------------===//
// Running both readers over one trace text
//===----------------------------------------------------------------------===//

/// What a reader made of a trace: its records up to the first error, and
/// the line of that error (0 = read to the end).
struct Outcome {
  bool HeaderValid = false;
  std::vector<TransactionLog> Records;
  unsigned ErrorLine = 0;
  std::string Error;
};

Outcome readWithTraceReader(const std::string &Text) {
  Outcome O;
  std::istringstream In(Text);
  TraceReader Reader(In);
  O.HeaderValid = Reader.valid();
  if (!O.HeaderValid)
    return O;
  TransactionLog Log{TxnUid::init()};
  for (;;) {
    TraceReader::Next N = Reader.next(Log);
    if (N == TraceReader::Next::End)
      return O;
    if (N == TraceReader::Next::Error) {
      O.ErrorLine = Reader.lineNo();
      O.Error = Reader.error();
      return O;
    }
    O.Records.push_back(Log);
  }
}

/// The reference reader: TraceReader reads the header (one shared code
/// path), then the records go line by line through parseJsonlTxn (jsonl)
/// or parseTxnLine (litmus) with TraceReader's line discipline.
Outcome readWithReference(const std::string &Text) {
  Outcome O;
  std::istringstream In(Text);
  TraceReader Header(In);
  O.HeaderValid = Header.valid();
  if (!O.HeaderValid)
    return O;
  unsigned LineNo = Header.lineNo();
  std::string Line;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    size_t First = Line.find_first_not_of(" \t\r");
    if (First == std::string::npos || Line[First] == '#')
      continue;
    std::optional<TransactionLog> Log =
        Header.format() == TraceFormat::Jsonl
            ? parseJsonlTxn(Line, &O.Error)
            : parseTxnLine(Line, &O.Error);
    if (!Log || Log->isInit() || Log->isPending()) {
      O.ErrorLine = LineNo;
      return O;
    }
    O.Records.push_back(std::move(*Log));
  }
  return O;
}

/// Both readers over \p Text must agree; returns whether the trace was
/// read to its end without error.
bool expectSameOutcome(const std::string &Text, const std::string &Context) {
  Outcome Ref = readWithReference(Text);
  Outcome Got = readWithTraceReader(Text);
  EXPECT_EQ(Ref.HeaderValid, Got.HeaderValid) << Context;
  EXPECT_EQ(Ref.ErrorLine, Got.ErrorLine)
      << Context << "\nreference: " << Ref.Error << "\nreader: " << Got.Error
      << "\ntext:\n"
      << Text;
  EXPECT_EQ(Ref.Records.size(), Got.Records.size()) << Context;
  for (size_t I = 0, E = std::min(Ref.Records.size(), Got.Records.size());
       I != E; ++I)
    EXPECT_TRUE(Ref.Records[I] == Got.Records[I])
        << Context << " record " << I << ": reference "
        << writeTxnLine(Ref.Records[I]) << ", reader "
        << writeTxnLine(Got.Records[I]) << "\ntext:\n"
        << Text;
  return Ref.HeaderValid && Ref.ErrorLine == 0;
}

//===----------------------------------------------------------------------===//
// Structured record mutations
//===----------------------------------------------------------------------===//

/// Characters the byte mutations draw from: JSON punctuation and the
/// record grammar's own alphabet, so mutants stay close to valid.
constexpr const char Alphabet[] = "{}[],:\"\\ \t0123456789-+.eEuabrwcsit";

char pick(Rng &R) { return Alphabet[R.nextBelow(sizeof(Alphabet) - 1)]; }

/// Optional whitespace between tokens.
std::string ws(Rng &R) {
  static const char *Spaces[] = {"", "", "", " ", "\t", "  ", " \t "};
  return Spaces[R.nextBelow(7)];
}

/// \p S as a JSON string, sometimes with every character \u-escaped.
std::string str(Rng &R, const std::string &S) {
  if (!R.chance(1, 4))
    return "\"" + S + "\"";
  std::string Out = "\"";
  for (char C : S) {
    char Buf[8];
    std::snprintf(Buf, sizeof(Buf), R.chance(1, 2) ? "\\u%04x" : "\\u%04X",
                  static_cast<unsigned char>(C));
    Out += R.chance(3, 4) ? std::string(Buf) : std::string(1, C);
  }
  return Out + "\"";
}

/// \p V as a JSON number, sometimes in an exponent or fraction form.
std::string num(Rng &R, int64_t V) {
  std::string D = std::to_string(V);
  switch (R.nextBelow(8)) {
  case 0:
    return D + "e0";
  case 1:
    return D + "E+0";
  case 2:
    return D + "0e-1";
  case 3:
    return D + ".0";
  default:
    return D;
  }
}

/// A JSON value for an unknown or duplicate key.
std::string junkValue(Rng &R) {
  switch (R.nextBelow(6)) {
  case 0:
    return "null";
  case 1:
    return "[1,{\"a\":[true,false]},\"x\"]";
  case 2:
    return "\"" + std::string(1 + R.nextBelow(3), 'z') + "\"";
  case 3:
    return "{\"ops\":[[\"q\"]],\"s\":-1}";
  case 4:
    return num(R, static_cast<int64_t>(R.nextBelow(5)));
  default:
    return "[[\"w\",0,1]]";
  }
}

/// Renders \p Log as a record with randomly drawn key order, whitespace,
/// escapes, number forms, duplicate and unknown keys.
std::string renderRecord(const TransactionLog &Log, Rng &R) {
  std::vector<std::pair<std::string, std::string>> Members;
  Members.push_back({"s", num(R, Log.uid().Session)});
  Members.push_back({"i", num(R, Log.uid().Index)});
  std::string Ops = "[";
  bool First = true;
  for (uint32_t P = 0, E = static_cast<uint32_t>(Log.size()); P != E; ++P) {
    const Event &Ev = Log.event(P);
    if (!Ev.isRead() && !Ev.isWrite())
      continue;
    Ops += (First ? "" : "," + ws(R)) + std::string("[") + ws(R);
    First = false;
    if (Ev.isWrite()) {
      Ops += str(R, "w") + "," + ws(R) + num(R, Ev.Var) + "," + ws(R) +
             num(R, Ev.Val);
    } else {
      Ops += str(R, "r") + ws(R) + "," + num(R, Ev.Var);
      if (std::optional<TxnUid> W = Log.writerOf(P))
        Ops += "," + ws(R) +
               str(R, W->isInit() ? std::string("init")
                                  : std::to_string(W->Session) + "." +
                                        std::to_string(W->Index));
    }
    Ops += ws(R) + "]";
  }
  Members.push_back({"ops", Ops + "]"});
  if (Log.isAborted() || R.chance(1, 2))
    Members.push_back({"st", str(R, Log.isAborted() ? "a" : "c")});
  for (size_t I = Members.size(); I > 1; --I)
    std::swap(Members[I - 1], Members[R.nextBelow(I)]);
  // Duplicates land anywhere: before the original they are the first and
  // win, after it they are skipped — both readers must agree either way.
  static const char *Keys[] = {"s", "i", "ops", "st", "x", "sx", "op"};
  for (uint64_t D = R.nextBelow(3); D-- > 0;)
    Members.insert(Members.begin() + R.nextBelow(Members.size() + 1),
                   {Keys[R.nextBelow(7)], junkValue(R)});
  std::string Out = ws(R) + "{";
  for (size_t I = 0; I != Members.size(); ++I)
    Out += (I ? "," : "") + ws(R) + str(R, Members[I].first) + ws(R) + ":" +
           ws(R) + Members[I].second + ws(R);
  return Out + "}" + ws(R);
}

/// One byte-level mutation: flip, delete or insert.
void mutateBytes(std::string &S, Rng &R) {
  if (S.empty())
    return;
  size_t At = R.nextBelow(S.size());
  switch (R.nextBelow(3)) {
  case 0:
    S[At] = pick(R);
    break;
  case 1:
    S.erase(At, 1 + R.nextBelow(std::min<size_t>(3, S.size() - At)));
    break;
  default:
    S.insert(At, 1, pick(R));
    break;
  }
}

std::string tracesDir() {
  return std::string(TXDPOR_SOURCE_DIR) + "/tests/traces";
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

TEST(ReaderEquivalenceTest, AgreesOnTheTraceCorpus) {
  std::vector<std::string> Files;
  for (const auto &Entry :
       std::filesystem::recursive_directory_iterator(tracesDir()))
    if (Entry.is_regular_file())
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  ASSERT_GE(Files.size(), 20u) << "tests/traces corpus went missing";
  for (const std::string &Path : Files)
    expectSameOutcome(slurp(Path), Path);
}

TEST(ReaderEquivalenceTest, AgreesOnMutatedRecords) {
  // Ten short generated traces supply the records; every case renders one
  // of them in a drawn style, half the time mutates its bytes, and reads
  // it as the middle of three records.
  std::vector<TransactionLog> Txns;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    GenConfig C;
    C.Seed = Seed;
    C.Sessions = 1 + Seed % 3;
    C.Vars = 3;
    C.Events = 60;
    C.AbortPercent = 20;
    generateTrace(C, [&](const TransactionLog &Log) { Txns.push_back(Log); });
  }
  const std::string Header = "{\"trace\":\"txdpor-v1\",\"vars\":3}\n";
  const std::string Before = writeTraceTxn(Txns.front(), TraceFormat::Jsonl);
  const std::string After = writeTraceTxn(Txns.back(), TraceFormat::Jsonl);
  const uint64_t Cases = 4000;
  unsigned Accepted = 0;
  for (uint64_t Case = 0; Case != Cases; ++Case) {
    Rng R(Rng::deriveSeed(16, Case));
    std::string Record = renderRecord(Txns[R.nextBelow(Txns.size())], R);
    if (R.chance(1, 2))
      for (uint64_t M = 1 + R.nextBelow(2); M-- > 0;)
        mutateBytes(Record, R);
    // A mutation may split the record; the line structure is part of
    // what both readers must agree on.
    Accepted += expectSameOutcome(Header + Before + Record + "\n" + After,
                                  "case " + std::to_string(Case));
    if (HasFailure())
      return; // One reproducible case is enough.
  }
  // Both sides of the grammar must be exercised, not just rejections.
  EXPECT_GT(Accepted, Cases / 4);
  EXPECT_LT(Accepted, Cases * 3 / 4);
}
