//===- tests/support_test.cpp - Relation / RNG / table utilities ----------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "support/Deadline.h"
#include "support/Json.h"
#include "support/Relation.h"
#include "support/Rng.h"
#include "support/TablePrinter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

using namespace txdpor;

TEST(RelationTest, SetGetClear) {
  Relation R(5);
  EXPECT_FALSE(R.get(1, 2));
  R.set(1, 2);
  EXPECT_TRUE(R.get(1, 2));
  EXPECT_FALSE(R.get(2, 1));
  R.clear(1, 2);
  EXPECT_FALSE(R.get(1, 2));
}

TEST(RelationTest, UnionAndEquality) {
  Relation A(4), B(4);
  A.set(0, 1);
  B.set(2, 3);
  Relation U = Relation::unionOf(A, B);
  EXPECT_TRUE(U.get(0, 1));
  EXPECT_TRUE(U.get(2, 3));
  EXPECT_EQ(U.countPairs(), 2u);
  EXPECT_NE(A, B);
  A.unionWith(B);
  EXPECT_EQ(A, U);
}

TEST(RelationTest, TransitiveClosureChain) {
  Relation R(4);
  R.set(0, 1);
  R.set(1, 2);
  R.set(2, 3);
  Relation C = R.transitiveClosure();
  EXPECT_TRUE(C.get(0, 3));
  EXPECT_TRUE(C.get(1, 3));
  EXPECT_FALSE(C.get(3, 0));
  EXPECT_FALSE(C.get(0, 0)) << "closure of an acyclic chain is irreflexive";
}

TEST(RelationTest, TransitiveClosureCycleIsReflexiveOnCycle) {
  Relation R(3);
  R.set(0, 1);
  R.set(1, 0);
  Relation C = R.transitiveClosure();
  EXPECT_TRUE(C.get(0, 0));
  EXPECT_TRUE(C.get(1, 1));
  EXPECT_FALSE(C.get(2, 2));
}

TEST(RelationTest, Composition) {
  Relation A(4), B(4);
  A.set(0, 1);
  A.set(2, 3);
  B.set(1, 2);
  Relation AB = A.composeWith(B);
  EXPECT_TRUE(AB.get(0, 2));
  EXPECT_EQ(AB.countPairs(), 1u);
}

TEST(RelationTest, Acyclicity) {
  Relation R(4);
  R.set(0, 1);
  R.set(1, 2);
  EXPECT_TRUE(R.isAcyclic());
  R.set(2, 0);
  EXPECT_FALSE(R.isAcyclic());
}

TEST(RelationTest, SelfLoopIsCycle) {
  Relation R(2);
  R.set(1, 1);
  EXPECT_FALSE(R.isAcyclic());
}

TEST(RelationTest, TopologicalOrderRespectsEdges) {
  Relation R(5);
  R.set(3, 1);
  R.set(1, 0);
  R.set(4, 2);
  std::vector<unsigned> Order;
  ASSERT_TRUE(R.topologicalOrder(Order));
  ASSERT_EQ(Order.size(), 5u);
  std::vector<unsigned> Pos(5);
  for (unsigned I = 0; I != 5; ++I)
    Pos[Order[I]] = I;
  EXPECT_LT(Pos[3], Pos[1]);
  EXPECT_LT(Pos[1], Pos[0]);
  EXPECT_LT(Pos[4], Pos[2]);
}

TEST(RelationTest, SuccessorsEnumeration) {
  Relation R(70); // Force multiple 64-bit words per row.
  R.set(1, 0);
  R.set(1, 63);
  R.set(1, 64);
  R.set(1, 69);
  EXPECT_EQ(R.successors(1), (std::vector<unsigned>{0, 63, 64, 69}));
}

TEST(RelationTest, TotalOrderCandidate) {
  Relation R(3);
  R.set(0, 1);
  R.set(1, 2);
  R.set(0, 2);
  EXPECT_TRUE(R.isTotalOrderCandidate());
  R.clear(0, 2);
  EXPECT_FALSE(R.isTotalOrderCandidate());
}

namespace {

/// Deterministic random relation over \p N nodes with edge probability
/// Percent/100.
txdpor::Relation randomRelation(unsigned N, unsigned Percent,
                                uint64_t Seed) {
  txdpor::Rng R(Seed);
  txdpor::Relation Rel(N);
  for (unsigned A = 0; A != N; ++A)
    for (unsigned B = 0; B != N; ++B)
      if (A != B && R.chance(Percent, 100))
        Rel.set(A, B);
  return Rel;
}

} // namespace

class RelationPropertyTest
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(RelationPropertyTest, ClosureIsIdempotentAndExtensive) {
  auto [N, Percent] = GetParam();
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    Relation R = randomRelation(N, Percent, Seed);
    Relation C = R.transitiveClosure();
    // Extensive: closure contains the base relation.
    for (unsigned A = 0; A != N; ++A)
      for (unsigned B = 0; B != N; ++B)
        if (R.get(A, B)) {
          EXPECT_TRUE(C.get(A, B));
        }
    // Idempotent.
    EXPECT_EQ(C.transitiveClosure(), C);
    // Transitive: C ∘ C ⊆ C.
    Relation CC = C.composeWith(C);
    for (unsigned A = 0; A != N; ++A)
      for (unsigned B = 0; B != N; ++B)
        if (CC.get(A, B)) {
          EXPECT_TRUE(C.get(A, B));
        }
  }
}

TEST_P(RelationPropertyTest, ClosureViaCompositionFixpoint) {
  auto [N, Percent] = GetParam();
  for (uint64_t Seed = 20; Seed <= 25; ++Seed) {
    Relation R = randomRelation(N, Percent, Seed);
    // Naive fixpoint: repeatedly union R ∘ C into C.
    Relation Expected = R;
    for (;;) {
      Relation Next = Relation::unionOf(Expected,
                                        Expected.composeWith(R));
      if (Next == Expected)
        break;
      Expected = Next;
    }
    EXPECT_EQ(R.transitiveClosure(), Expected);
  }
}

TEST_P(RelationPropertyTest, TopologicalOrderIffAcyclic) {
  auto [N, Percent] = GetParam();
  for (uint64_t Seed = 40; Seed <= 50; ++Seed) {
    Relation R = randomRelation(N, Percent, Seed);
    std::vector<unsigned> Order;
    bool HasOrder = R.topologicalOrder(Order);
    EXPECT_EQ(HasOrder, R.isAcyclic());
    if (HasOrder) {
      ASSERT_EQ(Order.size(), N);
      std::vector<unsigned> Pos(N);
      for (unsigned I = 0; I != N; ++I)
        Pos[Order[I]] = I;
      for (unsigned A = 0; A != N; ++A)
        for (unsigned B = 0; B != N; ++B)
          if (R.get(A, B)) {
            EXPECT_LT(Pos[A], Pos[B]);
          }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RelationPropertyTest,
    ::testing::Values(std::make_pair(3u, 30u), std::make_pair(8u, 15u),
                      std::make_pair(8u, 40u), std::make_pair(20u, 8u),
                      std::make_pair(70u, 3u)),
    [](const auto &Info) {
      return "n" + std::to_string(Info.param.first) + "p" +
             std::to_string(Info.param.second);
    });

TEST(RngTest, Deterministic) {
  Rng A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, BoundsRespected) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I) {
    EXPECT_LT(R.nextBelow(10), 10u);
    int64_t V = R.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  bool AnyDifferent = false;
  for (int I = 0; I != 10; ++I)
    AnyDifferent |= (A.next() != B.next());
  EXPECT_TRUE(AnyDifferent);
}

TEST(RngTest, GoldenSequence) {
  // Platform-determinism pin (see the Rng.h header comment): these exact
  // values must come out on every platform and standard library, or every
  // recorded fuzz seed stops reproducing. If this test fails, the Rng (or
  // its bounded sampling) changed — revert, or accept that all published
  // seeds and the seeded test-shape expectations are invalidated.
  Rng Raw(1);
  EXPECT_EQ(Raw.next(), 10451216379200822465ULL);
  EXPECT_EQ(Raw.next(), 13757245211066428519ULL);
  EXPECT_EQ(Raw.next(), 17911839290282890590ULL);
  EXPECT_EQ(Raw.next(), 8196980753821780235ULL);

  Rng Bounded(42);
  EXPECT_EQ(Bounded.nextBelow(100), 13u);
  EXPECT_EQ(Bounded.nextBelow(100), 91u);
  EXPECT_EQ(Bounded.nextBelow(100), 58u);
  EXPECT_EQ(Bounded.nextBelow(100), 64u);

  Rng Ranged(7);
  EXPECT_EQ(Ranged.nextInRange(-5, 5), -3);
  EXPECT_EQ(Ranged.nextInRange(-5, 5), -5);
  EXPECT_EQ(Ranged.nextInRange(-5, 5), -5);
  EXPECT_EQ(Ranged.nextInRange(-5, 5), -5);

  Rng Coin(9);
  const bool Expected[8] = {false, false, true, true,
                            false, true,  true, false};
  for (bool Want : Expected)
    EXPECT_EQ(Coin.chance(1, 3), Want);

  // Substream derivation is part of the contract too: (seed, case) pairs
  // printed by the fuzzer must replay anywhere.
  EXPECT_EQ(Rng::deriveSeed(1, 40), 15897925802583272582ULL);
}

TEST(DeadlineTest, NeverExpires) {
  Deadline D = Deadline::never();
  for (int I = 0; I != 1000; ++I)
    EXPECT_FALSE(D.expired());
}

TEST(DeadlineTest, ExpiresAfterBudget) {
  Deadline D = Deadline::afterMillis(1);
  // Burn well past 1ms; the poll is sampled so loop enough times.
  Stopwatch Timer;
  while (Timer.elapsedMillis() < 20)
    ;
  bool Expired = false;
  for (int I = 0; I != 200; ++I)
    Expired |= D.expired();
  EXPECT_TRUE(Expired);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter T({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"longer-name", "23"});
  std::ostringstream OS;
  T.print(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("longer-name"), std::string::npos);
  EXPECT_NE(Out.find("---"), std::string::npos);
}

TEST(TablePrinterTest, FormatMillis) {
  EXPECT_EQ(TablePrinter::formatMillis(0, false), "00:00.000");
  EXPECT_EQ(TablePrinter::formatMillis(61234, false), "01:01.234");
  EXPECT_EQ(TablePrinter::formatMillis(1, true), "TL");
}

TEST(JsonWriterTest, NestedStructure) {
  std::ostringstream OS;
  JsonWriter J(OS);
  J.beginObject();
  J.key("name").value("tpcc");
  J.key("threads").value(4u);
  J.key("millis").value(12.5);
  J.key("timed_out").value(false);
  J.key("runs").beginArray();
  J.value(uint64_t(1)).value(uint64_t(2));
  J.beginObject().key("k").value("v").endObject();
  J.endArray();
  J.key("empty").beginArray().endArray();
  J.endObject();

  std::string Out = OS.str();
  EXPECT_NE(Out.find("\"name\": \"tpcc\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"threads\": 4"), std::string::npos) << Out;
  EXPECT_NE(Out.find("12.5"), std::string::npos) << Out;
  EXPECT_NE(Out.find("false"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"empty\": []"), std::string::npos) << Out;
  // Balanced brackets, comma-separated array elements.
  EXPECT_EQ(std::count(Out.begin(), Out.end(), '{'),
            std::count(Out.begin(), Out.end(), '}'));
  EXPECT_EQ(std::count(Out.begin(), Out.end(), '['),
            std::count(Out.begin(), Out.end(), ']'));
}

TEST(JsonWriterTest, EscapesStrings) {
  EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriterTest, ValueFixedKeepsFractionDigits) {
  std::ostringstream OS;
  JsonWriter J(OS);
  // %.6g would render 10000000.125 as 1e+07; the trace exporter needs
  // the microsecond timestamp exact.
  J.beginArray().valueFixed(10000000.125, 3).valueFixed(0.5, 3).endArray();
  EXPECT_NE(OS.str().find("10000000.125"), std::string::npos) << OS.str();
  EXPECT_NE(OS.str().find("0.500"), std::string::npos) << OS.str();
  EXPECT_EQ(OS.str().find("e+"), std::string::npos) << OS.str();
}

TEST(JsonParseTest, Scalars) {
  EXPECT_EQ(parseJson("null")->kind(), JsonValue::Kind::Null);
  EXPECT_TRUE(parseJson("true")->asBool());
  EXPECT_FALSE(parseJson("false")->asBool());
  EXPECT_DOUBLE_EQ(parseJson("-12.5e2")->asNumber(), -1250.0);
  EXPECT_EQ(parseJson("\"hi\"")->asString(), "hi");
}

TEST(JsonParseTest, NestedContainersAndLookup) {
  std::unique_ptr<JsonValue> Doc =
      parseJson("{\"a\": [1, 2, {\"b\": true}], \"c\": \"x\"}");
  ASSERT_TRUE(Doc);
  const JsonValue *A = Doc->find("a");
  ASSERT_TRUE(A && A->kind() == JsonValue::Kind::Array);
  ASSERT_EQ(A->elements().size(), 3u);
  EXPECT_DOUBLE_EQ(A->elements()[1].asNumber(), 2.0);
  EXPECT_TRUE(A->elements()[2].find("b")->asBool());
  EXPECT_EQ(Doc->find("c")->asString(), "x");
  EXPECT_EQ(Doc->find("missing"), nullptr);
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(parseJson("\"a\\\"b\\\\c\\nd\"")->asString(), "a\"b\\c\nd");
  // \u00e9 is é (U+00E9) in UTF-8.
  EXPECT_EQ(parseJson("\"\\u00e9\"")->asString(), "\xc3\xa9");
}

TEST(JsonParseTest, RoundTripsWriterOutput) {
  std::ostringstream OS;
  JsonWriter J(OS);
  J.beginObject()
      .key("n")
      .value(uint64_t(123))
      .key("s")
      .value("a\"b")
      .key("xs")
      .beginArray()
      .value(true)
      .value(int64_t(-4))
      .endArray()
      .endObject();
  std::string Error;
  std::unique_ptr<JsonValue> Doc = parseJson(OS.str(), &Error);
  ASSERT_TRUE(Doc) << Error;
  EXPECT_DOUBLE_EQ(Doc->find("n")->asNumber(), 123.0);
  EXPECT_EQ(Doc->find("s")->asString(), "a\"b");
  EXPECT_DOUBLE_EQ(Doc->find("xs")->elements()[1].asNumber(), -4.0);
}

TEST(JsonParseTest, RejectsMalformedInput) {
  std::string Error;
  EXPECT_FALSE(parseJson("", &Error));
  EXPECT_FALSE(parseJson("{", &Error));
  EXPECT_FALSE(parseJson("[1,]", &Error));
  EXPECT_FALSE(parseJson("{\"a\" 1}", &Error));
  EXPECT_FALSE(parseJson("tru", &Error));
  EXPECT_FALSE(parseJson("1 2", &Error)); // Trailing garbage.
  EXPECT_FALSE(Error.empty());
}

TEST(JsonParseTest, DepthBounded) {
  std::string Deep(1000, '[');
  Deep += std::string(1000, ']');
  std::string Error;
  EXPECT_FALSE(parseJson(Deep, &Error));
  EXPECT_NE(Error.find("deep"), std::string::npos);
}
