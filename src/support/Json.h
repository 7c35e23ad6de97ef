//===- support/Json.h - Minimal JSON emission for bench dumps -------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small streaming JSON writer so the bench harnesses can dump their
/// tables in a machine-readable form next to the human-readable ones
/// (e.g. bench_parallel_scaling's BENCH_parallel.json) and future PRs can
/// track trajectories without scraping text tables — plus a matching
/// reader: a pull lexer (JsonLexer) under both the tree builder
/// (JsonValue / parseJson, which the trace tests use to validate the
/// Chrome trace-event dumps) and trace_io's tree-free JSONL records.
///
/// \code
///   JsonWriter J(OS);
///   J.beginObject();
///   J.key("runs").beginArray();
///   J.beginObject().key("app").value("tpcc").key("ms").value(12.5);
///   J.endObject();
///   J.endArray();
///   J.endObject();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_SUPPORT_JSON_H
#define TXDPOR_SUPPORT_JSON_H

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace txdpor {

/// Streaming JSON writer with automatic comma/indent management. Values
/// must be emitted in valid JSON positions (asserted in debug builds).
class JsonWriter {
public:
  explicit JsonWriter(std::ostream &OS) : OS(OS) {}

  JsonWriter &beginObject();
  JsonWriter &endObject();
  JsonWriter &beginArray();
  JsonWriter &endArray();

  /// Emits an object key; must be followed by exactly one value.
  JsonWriter &key(const std::string &K);

  JsonWriter &value(const std::string &V);
  JsonWriter &value(const char *V);
  JsonWriter &value(double V);
  /// Emits \p V with exactly \p Decimals fraction digits ("%.*f") — for
  /// values where %.6g would lose precision, e.g. the Chrome trace
  /// exporter's microsecond timestamps late in a long run.
  JsonWriter &valueFixed(double V, int Decimals);
  JsonWriter &value(uint64_t V);
  JsonWriter &value(int64_t V);
  JsonWriter &value(int V) { return value(static_cast<int64_t>(V)); }
  JsonWriter &value(unsigned V) { return value(static_cast<uint64_t>(V)); }
  JsonWriter &value(bool V);

  /// Escapes \p S per RFC 8259 (quotes, backslash, control characters).
  static std::string escape(const std::string &S);

private:
  void beforeValue();
  void newline();

  std::ostream &OS;
  /// One frame per open container: true = object, false = array.
  std::vector<bool> IsObject;
  /// Whether the current container already holds an element.
  std::vector<bool> HasElement;
  bool PendingKey = false;
};

/// A parsed JSON document node: a tagged union over the six RFC 8259
/// value kinds, with numbers held as double (ample for the trace dumps
/// and bench files this project reads back).
class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() : K(Kind::Null) {}
  static JsonValue makeBool(bool B);
  static JsonValue makeNumber(double N);
  static JsonValue makeString(std::string S);
  static JsonValue makeArray();
  static JsonValue makeObject();

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool asBool() const { return B; }
  double asNumber() const { return Num; }
  const std::string &asString() const { return Str; }

  /// Array elements (empty unless kind() == Array).
  const std::vector<JsonValue> &elements() const { return Elems; }
  std::vector<JsonValue> &elements() { return Elems; }

  /// Object members in document order (empty unless kind() == Object).
  const std::vector<std::pair<std::string, JsonValue>> &members() const {
    return Members;
  }
  std::vector<std::pair<std::string, JsonValue>> &members() {
    return Members;
  }

  /// First member named \p Key, or null when absent / not an object.
  const JsonValue *find(const std::string &Key) const;

private:
  Kind K;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Elems;
  std::vector<std::pair<std::string, JsonValue>> Members;
};

/// A pull lexer over one RFC 8259 text: the caller asks for the token it
/// expects next and the lexer checks and consumes it. parseJson builds a
/// JsonValue tree on it; tree-free readers (trace_io's JSONL records)
/// consume values straight into their own structures. The first error
/// sticks: error() holds its message and the byte offset it was found at.
///
/// \code
///   JsonLexer L(Text);
///   if (!L.consume('{')) ...
///   for (bool First = true; L.nextItem('}', First);) {
///     std::string_view Key;
///     if (!L.readKey(Key) || !L.skipValue(1)) ...
///   }
///   if (L.failed() || !L.atEnd()) ...
/// \endcode
class JsonLexer {
public:
  /// Deepest value nesting accepted (the document root is depth 0), so
  /// adversarial nesting cannot overflow the C++ stack.
  static constexpr unsigned MaxDepth = 256;

  explicit JsonLexer(std::string_view Text) : Text(Text) {}

  /// Skips whitespace and returns the next character, '\0' at the end.
  char peek() {
    skipWhitespace();
    return Pos != Text.size() ? Text[Pos] : '\0';
  }

  /// Skips whitespace; consumes \p C and returns true if it comes next.
  bool consume(char C) {
    if (peek() != C)
      return false;
    ++Pos;
    return true;
  }

  /// Steps through the items of the array or object whose opening bracket
  /// was just consumed, \p Close being its closing one. Call it before
  /// every item with \p First initially true: it consumes the ',' between
  /// items and returns true when an item follows, false once \p Close is
  /// consumed or on a syntax error (then failed() is true).
  bool nextItem(char Close, bool &First);

  /// Reads a string token. \p Out views the text when the string has no
  /// escapes, otherwise a decoded copy that the next readString or
  /// readKey call overwrites.
  bool readString(std::string_view &Out);

  /// Reads an object key and the ':' after it.
  bool readKey(std::string_view &Out);

  /// Reads a number token in the strict RFC 8259 grammar (no leading
  /// zeros, '+' or bare '.'). Integers of up to 19 digits convert without
  /// strtod, rounding to the nearest double exactly as strtod does.
  bool readNumber(double &Out);

  /// Consumes one value at nesting depth \p Depth, checking its syntax.
  bool skipValue(unsigned Depth);

  /// Skips whitespace; true when no text is left.
  bool atEnd() { return peek() == '\0' && Pos == Text.size(); }

  /// Records \p Message at the current offset (the first error wins) and
  /// returns false.
  bool fail(const char *Message);

  bool failed() const { return !Err.empty(); }
  /// The first error and its offset, "<message> (at offset N)".
  const std::string &error() const { return Err; }

  /// Byte offset of the next unread character.
  size_t offset() const { return Pos; }
  /// Moves back to \p Offset, a value start offset() reported earlier.
  void seek(size_t Offset) { Pos = Offset; }

private:
  void skipWhitespace() {
    while (Pos != Text.size() && (Text[Pos] == ' ' || Text[Pos] == '\t' ||
                                  Text[Pos] == '\n' || Text[Pos] == '\r'))
      ++Pos;
  }
  bool literal(std::string_view Word);

  std::string_view Text;
  size_t Pos = 0;
  std::string Err;
  /// Decoded text of the last escaped string.
  std::string Decoded;
};

/// Parses \p Text as one JSON document (trailing whitespace allowed,
/// trailing garbage rejected). Returns the root value, or nullptr with a
/// position-annotated message in \p Error (when non-null).
std::unique_ptr<JsonValue> parseJson(std::string_view Text,
                                     std::string *Error = nullptr);

} // namespace txdpor

#endif // TXDPOR_SUPPORT_JSON_H
