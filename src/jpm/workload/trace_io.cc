#include "jpm/workload/trace_io.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "jpm/util/check.h"

namespace jpm::workload {
namespace {

void check_monotonic(const std::vector<TraceEvent>& trace) {
  double prev = -1.0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    JPM_CHECK_MSG(trace[i].time_s >= prev,
                  "trace timestamps must be nondecreasing (record "
                      << i << " goes backwards)");
    prev = trace[i].time_s;
  }
}

// Bytes the format sniff peeks at: enough to see past a 4-byte magic into
// the binary header that follows one.
constexpr std::streamsize kSniffBytes = 16;

}  // namespace

void write_csv_trace(std::ostream& os, const std::vector<TraceEvent>& trace) {
  os << "time_s,page,request_start,is_write\n";
  os.precision(9);
  for (const auto& e : trace) {
    os << std::fixed << e.time_s << ',' << e.page << ','
       << (e.request_start ? 1 : 0) << ',' << (e.is_write ? 1 : 0) << '\n';
  }
  JPM_CHECK_MSG(os.good(), "trace write failed");
}

std::vector<TraceEvent> read_csv_trace(std::istream& is) {
  std::vector<TraceEvent> trace;
  std::string line;
  bool first = true;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (first) {
      first = false;
      if (line.rfind("time_s", 0) == 0) continue;  // header
    }
    std::istringstream row(line);
    TraceEvent e;
    char comma1 = 0, comma2 = 0;
    int start = 0;
    row >> e.time_s >> comma1 >> e.page >> comma2 >> start;
    JPM_CHECK_MSG(!row.fail() && comma1 == ',' && comma2 == ',',
                  "malformed CSV trace line: " + line);
    e.request_start = start != 0;
    // Optional 4th column (write flag); traces without it are read-only.
    char comma3 = 0;
    int write = 0;
    if (row >> comma3 >> write) {
      JPM_CHECK_MSG(comma3 == ',', "malformed CSV trace line: " + line);
      e.is_write = write != 0;
    }
    trace.push_back(e);
  }
  check_monotonic(trace);
  return trace;
}

void save_trace(const std::string& path,
                const std::vector<TraceEvent>& trace) {
  std::ofstream os(path);
  JPM_CHECK_MSG(os.is_open(), "cannot open for writing: " + path);
  write_csv_trace(os, trace);
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

std::vector<TraceEvent> load_trace(const std::string& path) {
  std::ifstream is(path, std::ios::in | std::ios::binary);
  JPM_CHECK_MSG(is.is_open(), "cannot open for reading: " + path);
  switch (sniff_trace_format(is, path)) {
    case TraceFormat::kCsv:
      return read_csv_trace(is);
    case TraceFormat::kChunked:
      JPM_CHECK_MSG(false,
                    path + ": JPMC chunked trace — decode it with "
                           "jpm::tracefile::TraceReader (CLI: jpm trace cat)");
  }
  return {};
}

}  // namespace jpm::workload
