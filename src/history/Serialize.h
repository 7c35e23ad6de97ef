//===- history/Serialize.h - Textual history round-tripping ---------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A line-oriented textual format for histories so explorations can be
/// archived, diffed and re-checked offline (e.g. piping txdpor-cli output
/// into a consistency audit). One transaction per line, in block order:
///
///   txn 0.1 begin read x <- init write y = 3 commit
///
/// Writers are named by transaction uid ("init" or "<session>.<index>");
/// variables by id ("x<N>"). The format round-trips exactly:
/// parseHistory(writeHistory(h)) is equal to h including block order.
///
/// The per-transaction line grammar is exposed on its own
/// (writeTxnLine / parseTxnLine) because the streaming trace reader
/// (trace_io/TraceFormat.h) reuses it verbatim as the litmus trace
/// format — one transaction per line is exactly a trace record.
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_HISTORY_SERIALIZE_H
#define TXDPOR_HISTORY_SERIALIZE_H

#include "history/History.h"

#include <optional>
#include <string>
#include <string_view>

namespace txdpor {

/// Parses a transaction-uid token — "init", "<session>.<index>" or
/// "t<session>.<index>" — the spelling shared by the history format, the
/// litmus repro grammar and the jsonl trace records. Session and index are
/// decimal digits only, each at most 2^32 - 1; the init session's id is
/// not a session (init is spelled only "init"). Returns false with a
/// diagnostic in \p Error on malformed input.
bool parseUidToken(std::string_view Token, TxnUid &Out,
                   std::string *Error = nullptr);

/// Serializes one transaction to its "txn <uid> <events...>" line (no
/// trailing newline). Internal reads print "<- _"; external reads print
/// their writer uid when assigned.
std::string writeTxnLine(const TransactionLog &Log);

/// Parses one "txn ..." line into a standalone transaction log, with wr
/// writers attached to the log (not validated against any history —
/// callers resolve and validate them). Returns nullopt with a diagnostic
/// in \p Error on malformed input; events after a commit/abort are
/// rejected rather than asserted.
std::optional<TransactionLog> parseTxnLine(const std::string &Line,
                                           std::string *Error = nullptr);

/// Serializes \p H (all transactions, block order) to the textual format.
std::string writeHistory(const History &H);

/// Parses the format produced by writeHistory. Returns nullopt (with a
/// diagnostic in \p Error if provided) on malformed input. The result is
/// checked for well-formedness (Def. 2.1).
std::optional<History> parseHistory(const std::string &Text,
                                    std::string *Error = nullptr);

} // namespace txdpor

#endif // TXDPOR_HISTORY_SERIALIZE_H
