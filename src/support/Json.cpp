//===- support/Json.cpp - Minimal JSON emission for bench dumps -----------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace txdpor;

std::string JsonWriter::escape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

void JsonWriter::newline() {
  OS << '\n';
  for (size_t I = 0; I != IsObject.size(); ++I)
    OS << "  ";
}

void JsonWriter::beforeValue() {
  if (IsObject.empty())
    return; // Top-level value.
  if (IsObject.back()) {
    assert(PendingKey && "object member needs a key() first");
    PendingKey = false;
    return;
  }
  if (HasElement.back())
    OS << ',';
  HasElement.back() = true;
  newline();
}

JsonWriter &JsonWriter::key(const std::string &K) {
  assert(!IsObject.empty() && IsObject.back() && "key() outside an object");
  assert(!PendingKey && "two keys in a row");
  if (HasElement.back())
    OS << ',';
  HasElement.back() = true;
  newline();
  OS << '"' << escape(K) << "\": ";
  PendingKey = true;
  return *this;
}

JsonWriter &JsonWriter::beginObject() {
  beforeValue();
  OS << '{';
  IsObject.push_back(true);
  HasElement.push_back(false);
  return *this;
}

JsonWriter &JsonWriter::endObject() {
  assert(!IsObject.empty() && IsObject.back() && "unbalanced endObject()");
  bool Empty = !HasElement.back();
  IsObject.pop_back();
  HasElement.pop_back();
  if (!Empty)
    newline();
  OS << '}';
  return *this;
}

JsonWriter &JsonWriter::beginArray() {
  beforeValue();
  OS << '[';
  IsObject.push_back(false);
  HasElement.push_back(false);
  return *this;
}

JsonWriter &JsonWriter::endArray() {
  assert(!IsObject.empty() && !IsObject.back() && "unbalanced endArray()");
  bool Empty = !HasElement.back();
  IsObject.pop_back();
  HasElement.pop_back();
  if (!Empty)
    newline();
  OS << ']';
  return *this;
}

JsonWriter &JsonWriter::value(const std::string &V) {
  beforeValue();
  OS << '"' << escape(V) << '"';
  return *this;
}

JsonWriter &JsonWriter::value(const char *V) {
  return value(std::string(V));
}

JsonWriter &JsonWriter::value(double V) {
  beforeValue();
  if (std::isfinite(V)) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.6g", V);
    OS << Buf;
  } else {
    OS << "null"; // JSON has no Inf/NaN.
  }
  return *this;
}

JsonWriter &JsonWriter::valueFixed(double V, int Decimals) {
  beforeValue();
  if (std::isfinite(V)) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.*f", Decimals, V);
    OS << Buf;
  } else {
    OS << "null"; // JSON has no Inf/NaN.
  }
  return *this;
}

JsonWriter &JsonWriter::value(uint64_t V) {
  beforeValue();
  OS << V;
  return *this;
}

JsonWriter &JsonWriter::value(int64_t V) {
  beforeValue();
  OS << V;
  return *this;
}

JsonWriter &JsonWriter::value(bool V) {
  beforeValue();
  OS << (V ? "true" : "false");
  return *this;
}

//===----------------------------------------------------------------------===//
// JsonValue / parseJson — the minimal reader
//===----------------------------------------------------------------------===//

JsonValue JsonValue::makeBool(bool B) {
  JsonValue V;
  V.K = Kind::Bool;
  V.B = B;
  return V;
}

JsonValue JsonValue::makeNumber(double N) {
  JsonValue V;
  V.K = Kind::Number;
  V.Num = N;
  return V;
}

JsonValue JsonValue::makeString(std::string S) {
  JsonValue V;
  V.K = Kind::String;
  V.Str = std::move(S);
  return V;
}

JsonValue JsonValue::makeArray() {
  JsonValue V;
  V.K = Kind::Array;
  return V;
}

JsonValue JsonValue::makeObject() {
  JsonValue V;
  V.K = Kind::Object;
  return V;
}

const JsonValue *JsonValue::find(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, Value] : Members)
    if (Name == Key)
      return &Value;
  return nullptr;
}

bool JsonLexer::fail(const char *Message) {
  if (Err.empty())
    Err = std::string(Message) + " (at offset " + std::to_string(Pos) + ")";
  return false;
}

bool JsonLexer::nextItem(char Close, bool &First) {
  char C = peek();
  if (First) {
    First = false;
    if (C == Close) {
      ++Pos;
      return false;
    }
    return true;
  }
  if (C == ',') {
    ++Pos;
    return true;
  }
  if (C == Close) {
    ++Pos;
    return false;
  }
  if (Pos == Text.size())
    return fail(Close == '}' ? "unterminated object" : "unterminated array");
  return fail(Close == '}' ? "expected ',' or '}' in object"
                           : "expected ',' or ']' in array");
}

bool JsonLexer::readString(std::string_view &Out) {
  if (peek() != '"')
    return fail("expected a string");
  const size_t Start = ++Pos;
  // Common case: no escapes, so the token is a view of the text.
  while (Pos != Text.size() && Text[Pos] != '"' && Text[Pos] != '\\') {
    if (static_cast<unsigned char>(Text[Pos]) < 0x20)
      return fail("unescaped control character in string");
    ++Pos;
  }
  if (Pos == Text.size())
    return fail("unterminated string");
  if (Text[Pos] == '"') {
    Out = Text.substr(Start, Pos++ - Start);
    return true;
  }
  Decoded.assign(Text.data() + Start, Pos - Start);
  while (Pos != Text.size() && Text[Pos] != '"') {
    char C = Text[Pos];
    if (static_cast<unsigned char>(C) < 0x20)
      return fail("unescaped control character in string");
    if (C != '\\') {
      Decoded += C;
      ++Pos;
      continue;
    }
    if (++Pos == Text.size())
      return fail("unterminated escape");
    switch (Text[Pos]) {
    case '"':
      Decoded += '"';
      break;
    case '\\':
      Decoded += '\\';
      break;
    case '/':
      Decoded += '/';
      break;
    case 'b':
      Decoded += '\b';
      break;
    case 'f':
      Decoded += '\f';
      break;
    case 'n':
      Decoded += '\n';
      break;
    case 'r':
      Decoded += '\r';
      break;
    case 't':
      Decoded += '\t';
      break;
    case 'u': {
      if (Pos + 4 >= Text.size())
        return fail("truncated \\u escape");
      unsigned Code = 0;
      for (int I = 0; I != 4; ++I) {
        char H = Text[Pos + 1 + I];
        Code <<= 4;
        if (H >= '0' && H <= '9')
          Code |= H - '0';
        else if (H >= 'a' && H <= 'f')
          Code |= H - 'a' + 10;
        else if (H >= 'A' && H <= 'F')
          Code |= H - 'A' + 10;
        else
          return fail("bad hex digit in \\u escape");
      }
      Pos += 4;
      // UTF-8-encode the code point (surrogate pairs are passed through
      // individually — the writer never emits them).
      if (Code < 0x80) {
        Decoded += static_cast<char>(Code);
      } else if (Code < 0x800) {
        Decoded += static_cast<char>(0xC0 | (Code >> 6));
        Decoded += static_cast<char>(0x80 | (Code & 0x3F));
      } else {
        Decoded += static_cast<char>(0xE0 | (Code >> 12));
        Decoded += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
        Decoded += static_cast<char>(0x80 | (Code & 0x3F));
      }
      break;
    }
    default:
      return fail("unknown escape");
    }
    ++Pos;
  }
  if (Pos == Text.size())
    return fail("unterminated string");
  ++Pos; // Closing quote.
  Out = Decoded;
  return true;
}

bool JsonLexer::readKey(std::string_view &Out) {
  if (peek() != '"')
    return fail("expected object key");
  if (!readString(Out))
    return false;
  if (!consume(':'))
    return fail("expected ':' after key");
  return true;
}

bool JsonLexer::readNumber(double &Out) {
  skipWhitespace();
  auto IsDigit = [&](size_t I) {
    return I < Text.size() && Text[I] >= '0' && Text[I] <= '9';
  };
  const size_t Start = Pos;
  bool Negative = Pos != Text.size() && Text[Pos] == '-';
  if (Negative)
    ++Pos;
  // int = "0" / digit1-9 *DIGIT: a leading zero stands alone.
  if (!IsDigit(Pos))
    return fail("malformed number");
  const size_t IntStart = Pos;
  if (Text[Pos++] != '0')
    while (IsDigit(Pos))
      ++Pos;
  const size_t IntDigits = Pos - IntStart;
  bool Integer = true;
  if (Pos != Text.size() && Text[Pos] == '.') {
    Integer = false;
    if (!IsDigit(++Pos))
      return fail("malformed number");
    while (IsDigit(Pos))
      ++Pos;
  }
  if (Pos != Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
    Integer = false;
    ++Pos;
    if (Pos != Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    if (!IsDigit(Pos))
      return fail("malformed number");
    while (IsDigit(Pos))
      ++Pos;
  }
  if (IsDigit(Pos))
    return fail("malformed number"); // A digit after a lone leading zero.
  if (Integer && IntDigits <= 19) {
    // Below 10^19 the digits fit a uint64_t, and its conversion rounds to
    // nearest-even like strtod does on the same integer.
    uint64_t V = 0;
    for (size_t I = IntStart; I != Pos; ++I)
      V = V * 10 + static_cast<uint64_t>(Text[I] - '0');
    Out = Negative ? -static_cast<double>(V) : static_cast<double>(V);
    return true;
  }
  Decoded.assign(Text.data() + Start, Pos - Start);
  Out = std::strtod(Decoded.c_str(), nullptr);
  return true;
}

bool JsonLexer::literal(std::string_view Word) {
  if (Text.substr(Pos, Word.size()) != Word)
    return fail("invalid literal");
  Pos += Word.size();
  return true;
}

bool JsonLexer::skipValue(unsigned Depth) {
  if (Depth > MaxDepth)
    return fail("nesting too deep");
  std::string_view Ignored;
  double Number;
  switch (peek()) {
  case '{':
    ++Pos;
    for (bool First = true; nextItem('}', First);)
      if (!readKey(Ignored) || !skipValue(Depth + 1))
        return false;
    return !failed();
  case '[':
    ++Pos;
    for (bool First = true; nextItem(']', First);)
      if (!skipValue(Depth + 1))
        return false;
    return !failed();
  case '"':
    return readString(Ignored);
  case 't':
    return literal("true");
  case 'f':
    return literal("false");
  case 'n':
    return literal("null");
  case '\0':
    if (Pos == Text.size())
      return fail("unexpected end of input");
    [[fallthrough]];
  default:
    return readNumber(Number);
  }
}

namespace {

/// Builds the JsonValue tree of one value at depth \p Depth, mirroring
/// JsonLexer::skipValue token for token.
bool buildValue(JsonLexer &L, JsonValue &Out, unsigned Depth) {
  if (Depth > JsonLexer::MaxDepth)
    return L.fail("nesting too deep");
  switch (L.peek()) {
  case '{': {
    L.consume('{');
    Out = JsonValue::makeObject();
    for (bool First = true; L.nextItem('}', First);) {
      std::string_view Key;
      if (!L.readKey(Key))
        return false;
      Out.members().emplace_back(std::string(Key), JsonValue());
      if (!buildValue(L, Out.members().back().second, Depth + 1))
        return false;
    }
    return !L.failed();
  }
  case '[': {
    L.consume('[');
    Out = JsonValue::makeArray();
    for (bool First = true; L.nextItem(']', First);) {
      Out.elements().emplace_back();
      if (!buildValue(L, Out.elements().back(), Depth + 1))
        return false;
    }
    return !L.failed();
  }
  case '"': {
    std::string_view S;
    if (!L.readString(S))
      return false;
    Out = JsonValue::makeString(std::string(S));
    return true;
  }
  case 't':
  case 'f': {
    bool B = L.peek() == 't';
    if (!L.skipValue(Depth))
      return false;
    Out = JsonValue::makeBool(B);
    return true;
  }
  case 'n':
    return L.skipValue(Depth); // Out stays null.
  default: {
    double N;
    if (L.atEnd())
      return L.fail("unexpected end of input");
    if (!L.readNumber(N))
      return false;
    Out = JsonValue::makeNumber(N);
    return true;
  }
  }
}

} // namespace

std::unique_ptr<JsonValue> txdpor::parseJson(std::string_view Text,
                                             std::string *Error) {
  JsonLexer L(Text);
  auto Root = std::make_unique<JsonValue>();
  if (buildValue(L, *Root, 0) && !L.atEnd())
    L.fail("trailing characters after the document");
  if (L.failed()) {
    if (Error)
      *Error = L.error();
    return nullptr;
  }
  return Root;
}
