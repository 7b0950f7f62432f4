#include "jpm/workload/trace_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <string_view>

#include "jpm/util/check.h"

namespace jpm::workload {
namespace {

// Bytes the format sniff peeks at: enough to see past a 4-byte magic into
// the binary header that follows one.
constexpr std::streamsize kSniffBytes = 16;

// True when the whole field is one number of type T: no sign a T cannot
// carry, no blanks, no trailing characters.
template <typename T>
bool parse_number(std::string_view field, T* out) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

// Parses one CSV row into `e`; returns why the row is malformed, or nullptr.
const char* parse_row(std::string_view row, TraceEvent* e) {
  const auto commas = std::count(row.begin(), row.end(), ',');
  if (commas < 2 || commas > 3) {
    return "expected 3 or 4 comma-separated fields";
  }
  std::string_view fields[4];
  for (std::ptrdiff_t k = 0; k < commas; ++k) {
    const std::size_t comma = row.find(',');
    fields[k] = row.substr(0, comma);
    row.remove_prefix(comma + 1);
  }
  fields[commas] = row;

  if (!parse_number(fields[0], &e->time_s) || !std::isfinite(e->time_s) ||
      e->time_s < 0.0) {
    return "timestamp must be a finite nonnegative number";
  }
  if (!parse_number(fields[1], &e->page)) {
    return "page must be a decimal integer in [0, 2^64)";
  }
  // Optional 4th column (write flag); traces without it are read-only.
  e->flags = 0;
  for (std::ptrdiff_t k = 2; k <= commas; ++k) {
    if (fields[k] == "1") {
      e->flags |= k == 2 ? kTraceFlagStart : kTraceFlagWrite;
    } else if (fields[k] != "0") {
      return "flag columns must be 0 or 1";
    }
  }
  return nullptr;
}

}  // namespace

void write_csv_trace(std::ostream& os, const Trace& trace, bool header) {
  if (header) os << "time_s,page,request_start,is_write\n";
  os.precision(9);
  os << std::fixed;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    os << trace.times[i] << ',' << trace.pages[i] << ','
       << ((trace.flags[i] & kTraceFlagStart) != 0 ? 1 : 0) << ','
       << ((trace.flags[i] & kTraceFlagWrite) != 0 ? 1 : 0) << '\n';
  }
}

Trace read_csv_trace(std::istream& is) {
  Trace trace;
  std::string line;
  std::uint64_t line_no = 0;
  bool first = true;
  while (std::getline(is, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (first) {
      first = false;
      if (line.rfind("time_s", 0) == 0) continue;  // header
    }
    TraceEvent e;
    const char* why = parse_row(line, &e);
    if (why == nullptr && !trace.empty() && e.time_s < trace.times.back()) {
      why = "timestamp goes backwards (trace timestamps must be "
            "nondecreasing)";
    }
    JPM_CHECK_MSG(why == nullptr, "CSV trace line " << line_no << ": " << why
                                                    << ": \"" << line
                                                    << "\"");
    trace.push_back(e);
  }
  return trace;
}

TraceFormat sniff_trace_format(std::istream& is, const std::string& name) {
  const std::istream::pos_type start = is.tellg();
  char head[kSniffBytes] = {};
  is.read(head, sizeof head);
  const std::streamsize got = is.gcount();
  is.clear();
  is.seekg(start);
  JPM_CHECK_MSG(got > 0, name + ": empty trace file");
  if (got >= 4 && std::memcmp(head, "JPMC", 4) == 0) {
    return TraceFormat::kChunked;
  }
  // CSV starts with a header line or a bare timestamp — printable text
  // either way. Anything else is a truncated or misnamed binary file.
  bool text = true;
  for (std::streamsize i = 0; i < got; ++i) {
    const unsigned char c = static_cast<unsigned char>(head[i]);
    if (c != '\t' && c != '\n' && c != '\r' && (c < 0x20 || c > 0x7e)) {
      text = false;
    }
  }
  JPM_CHECK_MSG(text, name +
                          ": unrecognized trace format (no JPMC magic and "
                          "not CSV text)");
  return TraceFormat::kCsv;
}

}  // namespace jpm::workload
