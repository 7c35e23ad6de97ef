//===- tests/trace_io_test.cpp - Trace grammar round-trips and rejection --===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace grammar of src/trace_io/: JSONL and litmus round-trip
/// properties over generated traces (write -> re-read -> identical
/// records), a rejection table for malformed JSONL records, and the
/// semantic-rejection corpus in tests/traces/malformed/ — every file
/// must be refused with a line-anchored diagnostic, mirroring the CLI's
/// exit-1 contract.
///
//===----------------------------------------------------------------------===//

#include "trace_io/TraceFormat.h"

#include "consistency/StreamingChecker.h"
#include "history/Serialize.h"
#include "trace_io/TraceGen.h"
#include "trace_io/TraceReader.h"
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace txdpor;
using namespace txdpor::trace_io;

namespace {

std::string malformedPath(const std::string &Name) {
  return std::string(TXDPOR_SOURCE_DIR) + "/tests/traces/malformed/" + Name;
}

/// Structural equality of two completed transaction records.
void expectSameLog(const TransactionLog &A, const TransactionLog &B,
                   const std::string &Context) {
  ASSERT_EQ(A.uid(), B.uid()) << Context;
  ASSERT_EQ(A.size(), B.size()) << Context;
  for (uint32_t P = 0, E = static_cast<uint32_t>(A.size()); P != E; ++P) {
    EXPECT_EQ(A.event(P), B.event(P)) << Context << " at position " << P;
    EXPECT_EQ(A.writerOf(P), B.writerOf(P)) << Context << " at position " << P;
  }
}

/// Writes \p Txns in \p F and reads the stream back, comparing records
/// and header fields.
void roundTrip(const TraceHeader &Header,
               const std::vector<TransactionLog> &Txns, TraceFormat F,
               const std::string &Context) {
  std::stringstream SS;
  writeTrace(SS, Header, Txns, F);
  TraceReader Reader(SS);
  ASSERT_TRUE(Reader.valid()) << Context << ": " << Reader.error();
  EXPECT_EQ(Reader.format(), F) << Context;
  EXPECT_EQ(Reader.header().NumVars, Header.NumVars) << Context;
  EXPECT_EQ(Reader.header().NumSessions, Header.NumSessions) << Context;
  if (Header.Levels) {
    // The writer serializes the assignment resolved over the declared
    // sessions, so compare resolved-to-resolved.
    unsigned Sessions = Header.NumSessions.value_or(0);
    ASSERT_TRUE(Reader.header().Levels.has_value()) << Context;
    EXPECT_EQ(Reader.header().Levels->resolved(Sessions).str(),
              Header.Levels->resolved(Sessions).str())
        << Context;
  }

  TransactionLog Log{TxnUid::init()};
  size_t N = 0;
  for (;;) {
    TraceReader::Next Next = Reader.next(Log);
    if (Next == TraceReader::Next::End)
      break;
    ASSERT_EQ(Next, TraceReader::Next::Txn)
        << Context << ": " << Reader.error();
    ASSERT_LT(N, Txns.size()) << Context << ": reader yielded extra records";
    expectSameLog(Txns[N], Log, Context + " record " + std::to_string(N));
    ++N;
  }
  EXPECT_EQ(N, Txns.size()) << Context << ": reader dropped records";
}

} // namespace

TEST(TraceRoundTripTest, GeneratedTracesSurviveBothFormats) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    GenConfig C;
    C.Seed = Seed;
    C.Sessions = 1 + Seed % 4;
    C.Vars = 2 + Seed % 5;
    C.Events = 300;
    C.AbortPercent = 15;
    if (Seed % 2 == 0)
      C.AnomalyAtTxn = 10;
    std::vector<TransactionLog> Txns;
    TraceHeader Header = generateTrace(
        C, [&](const TransactionLog &Log) { Txns.push_back(Log); });
    std::string Context = "seed " + std::to_string(Seed);
    roundTrip(Header, Txns, TraceFormat::Jsonl, Context + " jsonl");
    roundTrip(Header, Txns, TraceFormat::Litmus, Context + " litmus");
  }
}

TEST(TraceRoundTripTest, HeaderCarriesAssignment) {
  GenConfig C;
  C.Seed = 4;
  C.Sessions = 3;
  C.Events = 120;
  std::vector<TransactionLog> Txns;
  TraceHeader Header = generateTrace(
      C, [&](const TransactionLog &Log) { Txns.push_back(Log); });
  LevelAssignment Mix = LevelAssignment::uniform(IsolationLevel::ReadCommitted);
  Mix.set(1, IsolationLevel::CausalConsistency);
  Header.Levels = Mix;
  roundTrip(Header, Txns, TraceFormat::Jsonl, "mixed header jsonl");
  roundTrip(Header, Txns, TraceFormat::Litmus, "mixed header litmus");
}

TEST(TraceRejectionTest, MalformedJsonlRecords) {
  // Syntactic rejection: every record is refused by the record parser
  // with a non-empty diagnostic.
  const char *Records[] = {
      // Truncated JSON.
      "{\"s\":0,\"i\":0,\"ops\":[[\"w\",0,",
      // Not an object.
      "[1,2,3]",
      // Missing session.
      "{\"i\":0,\"ops\":[[\"w\",0,1]],\"st\":\"c\"}",
      // Unknown op code.
      "{\"s\":0,\"i\":0,\"ops\":[[\"x\",0,1]],\"st\":\"c\"}",
      // Read with a malformed writer uid.
      "{\"s\":0,\"i\":0,\"ops\":[[\"r\",0,\"nonsense\"]],\"st\":\"c\"}",
      // Unknown completion status.
      "{\"s\":0,\"i\":0,\"ops\":[[\"w\",0,1]],\"st\":\"q\"}",
      // Wrong type for a variable id.
      "{\"s\":0,\"i\":0,\"ops\":[[\"w\",\"zero\",1]],\"st\":\"c\"}",
      // Write values a Value cannot hold: overflow to infinity, a
      // fraction, and an integer beyond 2^53 that a double rounds.
      "{\"s\":0,\"i\":0,\"ops\":[[\"w\",0,1e400]],\"st\":\"c\"}",
      "{\"s\":0,\"i\":0,\"ops\":[[\"w\",0,2.5]],\"st\":\"c\"}",
      "{\"s\":0,\"i\":0,\"ops\":[[\"w\",0,9223372036854775807]],"
      "\"st\":\"c\"}",
  };
  TransactionLog Log{TxnUid::init()};
  for (const char *Record : Records) {
    std::string Error;
    EXPECT_FALSE(readJsonlTxn(Record, Log, &Error)) << Record;
    EXPECT_FALSE(Error.empty()) << Record;
  }
  // The largest exactly representable magnitudes still parse.
  for (const char *V : {"9007199254740992", "-9007199254740992"}) {
    std::string Record = std::string("{\"s\":0,\"i\":0,\"ops\":[[\"w\",0,") +
                         V + "]],\"st\":\"c\"}";
    ASSERT_TRUE(readJsonlTxn(Record, Log, nullptr)) << Record;
    EXPECT_EQ(std::to_string(Log.event(1).Val), V);
  }
}

TEST(TraceRejectionTest, StrictUidTokens) {
  // Session and index are decimal digits only, each at most 2^32 - 1,
  // and init is spelled only "init": strtoul once read every rejected
  // token here as some other transaction.
  const char *Bad[] = {"1junk.2",  "1.2junk",      "+1.2",       "-1.5",
                       "1.-2",     " 1.2",         "1 .2",       "1.2 ",
                       "1.",       ".2",           "12",         "t",
                       "tt1.2",    "0x1.2",        "1.2.3",      "",
                       "INIT",     "4294967295.0", "t4294967295.3",
                       "0.4294967296", "0.4294967297", "99999999999.0"};
  for (const char *Token : Bad) {
    TxnUid Uid;
    std::string Error;
    EXPECT_FALSE(parseUidToken(Token, Uid, &Error)) << "'" << Token << "'";
    EXPECT_NE(Error.find("bad transaction uid"), std::string::npos) << Token;
  }
  struct Good {
    const char *Token;
    TxnUid Want;
  } Goods[] = {{"init", TxnUid::init()},
               {"0.0", {0, 0}},
               {"t1.2", {1, 2}},
               {"007.010", {7, 10}},
               {"4294967294.4294967295", {4294967294u, 4294967295u}}};
  for (const Good &G : Goods) {
    TxnUid Uid;
    EXPECT_TRUE(parseUidToken(G.Token, Uid)) << G.Token;
    EXPECT_EQ(Uid, G.Want) << G.Token;
  }
  // The same tokens in both trace syntaxes: a JSONL writer and a litmus
  // writer or variable.
  TransactionLog Log{TxnUid::init()};
  for (const char *Writer : {"1junk.2", "-1.7", "4294967295.0"}) {
    std::string Record = std::string("{\"s\":0,\"i\":0,\"ops\":[[\"r\",0,\"") +
                         Writer + "\"]]}";
    std::string Error;
    EXPECT_FALSE(readJsonlTxn(Record, Log, &Error)) << Record;
  }
  for (const char *Line :
       {"txn t0.0junk begin commit", "txn t0.1 begin read x0 <- -1.5 commit",
        "txn t0.1 begin write x1junk = 1 commit",
        "txn t0.1 begin write x4294967296 = 1 commit",
        "txn t0.1 begin read x+1 <- init commit"})
    EXPECT_FALSE(parseTxnLine(Line).has_value()) << Line;
  EXPECT_TRUE(parseTxnLine("txn t0.1 begin write x4294967295 = 1 commit"));
}

TEST(TraceRejectionTest, MalformedCorpusIsRefusedWithDiagnostics) {
  // Semantic rejection through the same reader + checker pipeline the
  // CLI drives; every corpus file must end Malformed, never Ok or a
  // crash, with a diagnostic naming the problem.
  const char *Files[] = {
      "truncated.jsonl",         "unknown_session.jsonl",
      "unknown_writer.jsonl",    "duplicate_commit.jsonl",
      "out_of_order.jsonl",      "write_value_overflow.jsonl",
      "write_value_fraction.jsonl", "write_value_int64.jsonl",
      "uid_junk_suffix.jsonl",   "uid_plus_sign.jsonl",
      "uid_negative.jsonl",      "uid_init_session.jsonl",
      "uid_overflow.jsonl",      "uid_junk.litmus",
  };
  for (const char *Name : Files) {
    std::ifstream In(malformedPath(Name));
    ASSERT_TRUE(In.is_open()) << "missing corpus file " << Name;
    TraceReader Reader(In);
    ASSERT_TRUE(Reader.valid()) << Name << ": " << Reader.error();

    StreamingOptions Opts;
    Opts.Levels = LevelAssignment::uniform(IsolationLevel::CausalConsistency);
    Opts.NumVars = Reader.header().NumVars;
    Opts.NumSessions = Reader.header().NumSessions;
    StreamingChecker Checker(Opts);

    bool Refused = false;
    std::string Diag;
    TransactionLog Log{TxnUid::init()};
    for (;;) {
      TraceReader::Next N = Reader.next(Log);
      if (N == TraceReader::Next::End)
        break;
      if (N == TraceReader::Next::Error) {
        Refused = true;
        Diag = Reader.error();
        break;
      }
      StreamStatus S = Checker.append(Log, &Diag);
      if (S != StreamStatus::Ok) {
        EXPECT_EQ(S, StreamStatus::Malformed) << Name << ": " << Diag;
        Refused = true;
        break;
      }
    }
    EXPECT_TRUE(Refused) << Name << " was accepted";
    EXPECT_FALSE(Diag.empty()) << Name;
  }
}

TEST(TraceRejectionTest, CrlfTraceParsesLikeLf) {
  // tests/traces/clean_tiny_crlf.litmus is the golden clean_tiny trace
  // with Windows line endings. nextLine used to leave the trailing '\r'
  // on every line, so the first record failed to tokenize; now both
  // variants must yield identical headers and records.
  std::string Dir = std::string(TXDPOR_SOURCE_DIR) + "/tests/traces/";
  std::ifstream LfIn(Dir + "clean_tiny.litmus");
  std::ifstream CrlfIn(Dir + "clean_tiny_crlf.litmus");
  ASSERT_TRUE(LfIn.is_open() && CrlfIn.is_open());

  TraceReader Lf(LfIn), Crlf(CrlfIn);
  ASSERT_TRUE(Lf.valid()) << Lf.error();
  ASSERT_TRUE(Crlf.valid()) << "CRLF golden rejected: " << Crlf.error();
  EXPECT_EQ(Crlf.header().NumVars, Lf.header().NumVars);
  EXPECT_EQ(Crlf.header().NumSessions, Lf.header().NumSessions);

  TransactionLog A{TxnUid::init()}, B{TxnUid::init()};
  unsigned Records = 0;
  for (;;) {
    TraceReader::Next NA = Lf.next(A);
    TraceReader::Next NB = Crlf.next(B);
    ASSERT_EQ(NA, NB) << "readers diverged after " << Records << " records ("
                      << Lf.error() << " / " << Crlf.error() << ")";
    if (NA != TraceReader::Next::Txn)
      break;
    ++Records;
    expectSameLog(A, B, "CRLF record " + std::to_string(Records));
  }
  EXPECT_GT(Records, 0u) << "golden trace parsed as empty";
}
