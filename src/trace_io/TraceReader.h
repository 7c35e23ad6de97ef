//===- trace_io/TraceReader.h - Streaming trace ingestion -----------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pull-based reader over a trace stream (file, pipe or string): detects
/// the format (TraceFormat.h) from the first significant character,
/// parses the header eagerly, then yields one completed TransactionLog
/// per next() call — O(record) memory, never the whole trace; jsonl
/// records go straight from the line buffer into the caller's log with
/// no JSON tree in between (readJsonlTxn). Syntactic
/// validation (grammar, types, uids) happens here with line-numbered
/// diagnostics; *semantic* validation (unknown sessions, duplicate
/// commits, reads of never-written values, stale writers) is the
/// streaming checker's job, which sees the window context.
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_TRACE_IO_TRACEREADER_H
#define TXDPOR_TRACE_IO_TRACEREADER_H

#include "trace_io/TraceFormat.h"

#include <istream>

namespace txdpor {
namespace trace_io {

/// Reads one trace stream front to back. Construction consumes the
/// header; check valid() before the first next().
class TraceReader {
public:
  explicit TraceReader(std::istream &In);

  /// False when the header was malformed; error() explains.
  bool valid() const { return Valid; }
  const std::string &error() const { return Error; }

  const TraceHeader &header() const { return Header; }
  TraceFormat format() const { return Format; }

  /// Line number of the most recently consumed line (1-based) — the
  /// position diagnostics refer to.
  unsigned lineNo() const { return LineNo; }

  enum class Next : uint8_t {
    Txn,  ///< \p Out holds the next transaction record.
    End,  ///< Clean end of stream.
    Error ///< Malformed record; error() explains, reading must stop.
  };

  /// Parses the next transaction record into \p Out. A jsonl record is
  /// written into \p Out's existing storage, so a caller that passes the
  /// same log every time allocates nothing per record.
  Next next(TransactionLog &Out);

private:
  /// Fetches the next significant line into Line (skips blanks and '#'
  /// comments).
  bool nextLine();
  void setError(const std::string &Message);

  std::istream &In;
  /// The current line; reused, so reading a line allocates only when it
  /// is the longest yet.
  std::string Line;
  TraceHeader Header;
  TraceFormat Format = TraceFormat::Litmus;
  unsigned LineNo = 0;
  bool Valid = false;
  std::string Error;
};

} // namespace trace_io
} // namespace txdpor

#endif // TXDPOR_TRACE_IO_TRACEREADER_H
