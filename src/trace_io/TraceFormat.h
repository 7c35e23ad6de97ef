//===- trace_io/TraceFormat.h - Trace record grammar ----------------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk grammar of production traces: a header describing the
/// variable universe, session count and isolation assignment, followed by
/// one record per *completed* transaction in commit order. Two concrete
/// syntaxes share the same record model:
///
///  * **litmus** — the human-editable text format. Header lines
///    (`# comment`, `sessions N`, `level CC S1=RC`) followed by the init
///    transaction's line and one `txn <uid> ...` line per transaction,
///    reusing the history/Serialize.h line grammar verbatim:
///
///      # txdpor trace
///      sessions 2
///      level CC S1=RC
///      txn init begin write x0 = 0 write x1 = 0 commit
///      txn 0.0 begin read x0 <- init write x1 = 3 commit
///
///  * **jsonl** — the compact machine format: one JSON object per line on
///    support/Json.h's lexer. The first line is the header, every later
///    line one transaction:
///
///      {"trace":"txdpor-v1","vars":2,"sessions":2,"level":"CC",
///       "session_levels":["CC","RC"]}
///      {"s":0,"i":0,"ops":[["r",0,"init"],["w",1,3]],"st":"c"}
///
///    `ops` entries are `["r",var]` (internal read), `["r",var,"uid"]`
///    (external read from the named writer) and `["w",var,val]`; `st` is
///    `"c"` (commit, the default) or `"a"` (abort).
///
/// The formats auto-detect by first significant character (`{` = jsonl),
/// and writeTraceTxn/readers round-trip exactly.
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_TRACE_IO_TRACEFORMAT_H
#define TXDPOR_TRACE_IO_TRACEFORMAT_H

#include "consistency/IsolationLevel.h"
#include "history/History.h"

#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace txdpor {
namespace trace_io {

/// Concrete trace syntax.
enum class TraceFormat : uint8_t { Litmus, Jsonl };

/// Static stream metadata, parsed before the first transaction record.
struct TraceHeader {
  /// Size of the variable universe; the init transaction writes 0 to
  /// every variable below it.
  unsigned NumVars = 0;
  /// Declared session count, when the trace pins one (enables unknown-
  /// session detection; absent = sessions are open-ended).
  std::optional<unsigned> NumSessions;
  /// Isolation assignment declared by the trace, when present. The CLI's
  /// --base/--levels flags override it.
  std::optional<LevelAssignment> Levels;
};

/// Serializes the header of \p H in \p F (one or more lines, each
/// newline-terminated; for litmus this includes the init txn line).
std::string writeTraceHeader(const TraceHeader &H, TraceFormat F);

/// Serializes one completed transaction record in \p F (one line,
/// newline-terminated). \p Log must not be the init transaction.
std::string writeTraceTxn(const TransactionLog &Log, TraceFormat F);

/// Reads one jsonl transaction record line into \p Out, reusing its
/// storage (TransactionLog::reset). The record is read straight off
/// support/Json.h's pull lexer, with no JSON tree in between, and keeps
/// the tree reading's semantics: keys in any order, unknown keys skipped,
/// the first of duplicate keys wins (as JsonValue::find does), escapes
/// decoded, numbers in RFC 8259 syntax. Returns false with a diagnostic
/// in \p Error on malformed input (bad JSON, wrong types, out-of-range
/// ids, unknown op code, bad writer uid); \p Out is then unspecified.
bool readJsonlTxn(std::string_view Line, TransactionLog &Out,
                  std::string *Error);

/// Writes a whole trace (header + records) to \p OS.
void writeTrace(std::ostream &OS, const TraceHeader &H,
                const std::vector<TransactionLog> &Txns, TraceFormat F);

/// Extracts a trace from an explored history: \p H's non-init blocks in
/// block order, with the header sized from its init transaction and
/// carrying \p Levels. Requires the ordered-history discipline (init
/// first, every transaction complete, so ∪ wr forward in block order —
/// the caller checks eligibility); returns false with a diagnostic
/// otherwise.
bool traceFromHistory(const History &H, const LevelAssignment &Levels,
                      TraceHeader &HeaderOut,
                      std::vector<TransactionLog> &TxnsOut,
                      std::string *Error = nullptr);

} // namespace trace_io
} // namespace txdpor

#endif // TXDPOR_TRACE_IO_TRACEFORMAT_H
