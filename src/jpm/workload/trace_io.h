// CSV trace interchange ("time_s,page,request_start[,is_write]") with
// external tooling and hand-captured disk-cache traces. The chunked,
// mmap-able "JPMC" format lives in jpm/tracefile/, whose load_any_trace
// opens either kind of file: it sniffs the format from the leading bytes —
// never the file extension — so a misnamed or binary file fails with a
// named format error instead of a garbage parse.
#pragma once

#include <iosfwd>
#include <string>

#include "jpm/workload/trace.h"

namespace jpm::workload {

// Writes the column line (unless `header` is false: a CSV stream written
// chunk by chunk), then one row per event with the timestamp fixed at 9
// decimals and both flag columns. A write failure is left in the stream's
// state for the caller to check.
void write_csv_trace(std::ostream& os, const Trace& trace, bool header = true);

// Reads CSV rows into the event lanes (the derived fields stay zero: CSV
// carries no geometry). The column line is optional. Every row is checked
// before it is kept, and CheckError names the line of the first bad one: a
// row must have three or four comma-separated fields with nothing around
// them, a finite nonnegative timestamp no earlier than the row before, a
// decimal page id, and flag columns of exactly 0 or 1.
Trace read_csv_trace(std::istream& is);

// On-disk trace flavors distinguishable from their leading bytes.
enum class TraceFormat {
  kChunked,  // "JPMC" magic (jpm/tracefile)
  kCsv,      // printable text (header line or bare numbers)
};

// Peeks at the stream's first bytes and classifies them, restoring the read
// position. Throws CheckError naming `name` when the bytes match no known
// format (e.g. a truncated or misnamed binary file).
TraceFormat sniff_trace_format(std::istream& is, const std::string& name);

}  // namespace jpm::workload
