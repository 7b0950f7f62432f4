// Trace persistence for captured traces: CSV
// ("time_s,page,request_start[,is_write]") for interchange with external
// tooling and hand-captured disk-cache traces. (The chunked, mmap-able
// "JPMC" format lives in jpm/tracefile/; load_trace recognizes its magic and
// points there.) Loading sniffs the format from the leading bytes — never
// the file extension — so a misnamed or binary file fails with a named
// format error instead of a garbage parse, and validates monotonic
// timestamps, so a corrupted or unsorted trace fails fast instead of
// corrupting a simulation.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "jpm/workload/trace.h"

namespace jpm::workload {

void write_csv_trace(std::ostream& os, const std::vector<TraceEvent>& trace);
std::vector<TraceEvent> read_csv_trace(std::istream& is);

// On-disk trace flavors distinguishable from their leading bytes.
enum class TraceFormat {
  kChunked,  // "JPMC" magic (jpm/tracefile)
  kCsv,      // printable text (header line or bare numbers)
};

// Peeks at the stream's first bytes and classifies them, restoring the read
// position. Throws CheckError naming `name` when the bytes match no known
// format (e.g. a truncated or misnamed binary file).
TraceFormat sniff_trace_format(std::istream& is, const std::string& name);

// File-path conveniences. Saving writes CSV; loading sniffs the content and
// rejects JPMC files with a pointer to jpm::tracefile (which owns the
// chunked reader). Throw CheckError on IO failure or format mismatch.
void save_trace(const std::string& path, const std::vector<TraceEvent>& trace);
std::vector<TraceEvent> load_trace(const std::string& path);

}  // namespace jpm::workload
