#include "jpm/workload/trace_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "jpm/tracefile/reader.h"
#include "jpm/tracefile/writer.h"
#include "jpm/util/check.h"
#include "jpm/workload/synthesizer.h"

namespace jpm::workload {
namespace {

std::vector<TraceEvent> sample_trace() {
  return {
      {0.5, 100, true},
      {0.502, 101, false},
      {1.25, 7, true},
      {9.75, 100, true},
  };
}

TEST(TraceIoTest, CsvRoundTrip) {
  std::stringstream ss;
  write_csv_trace(ss, sample_trace());
  const auto loaded = read_csv_trace(ss);
  const auto original = sample_trace();
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_NEAR(loaded[i].time_s, original[i].time_s, 1e-6);
    EXPECT_EQ(loaded[i].page, original[i].page);
    EXPECT_EQ(loaded[i].request_start, original[i].request_start);
  }
}

TEST(TraceIoTest, EmptyTraceRoundTrips) {
  std::stringstream csv;
  write_csv_trace(csv, std::vector<TraceEvent>{});
  EXPECT_TRUE(read_csv_trace(csv).empty());
}

// Binary input that is not JPMC — random bytes, or a file in the removed
// JPMT format (magic, u32 version, u64 count, 24-byte records) — fails the
// format sniff with a named error instead of a garbage CSV parse.
std::string jpmt_header() {
  std::string bytes = "JPMT";
  const std::uint32_t version = 2;
  const std::uint64_t count = 4;
  bytes.append(reinterpret_cast<const char*>(&version), sizeof version);
  bytes.append(reinterpret_cast<const char*>(&count), sizeof count);
  return bytes;
}

std::string write_temp(const std::string& name, const std::string& bytes) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  std::ofstream f(path, std::ios::binary);
  f << bytes;
  return path;
}

std::string load_error(const std::string& path) {
  try {
    load_trace(path);
    return "";
  } catch (const CheckError& e) {
    return e.what();
  }
}

TEST(TraceIoTest, RejectsGarbageBinary) {
  for (const std::string& bytes :
       {std::string("\x01\x02\xff garbage bytes", 17), jpmt_header()}) {
    const std::string path = write_temp("jpm_garbage.bin", bytes);
    EXPECT_NE(load_error(path).find(path + ": unrecognized trace format"),
              std::string::npos)
        << load_error(path);
    std::remove(path.c_str());
  }
}

TEST(TraceIoTest, RejectsTruncatedBinary) {
  // The binary format that remains is JPMC: a file cut short fails in the
  // tracefile reader with the defect named, never as a CSV parse.
  std::ostringstream os;
  {
    tracefile::TraceWriter writer(os, 64 * kKiB, 128, 10.0);
    for (const auto& e : sample_trace()) writer.append(e);
    writer.finish();
  }
  std::string bytes = os.str();
  bytes.resize(bytes.size() - 10);
  const std::string path = write_temp("jpm_truncated.jpmc", bytes);
  try {
    tracefile::load_any_trace(path);
    ADD_FAILURE() << "expected a truncation error";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(TraceIoTest, RejectsMalformedCsv) {
  std::stringstream ss;
  ss << "time_s,page,request_start\n1.0;4;1\n";
  EXPECT_THROW(read_csv_trace(ss), CheckError);
}

TEST(TraceIoTest, RejectsUnsortedTrace) {
  std::stringstream ss;
  ss << "2.0,1,1\n1.0,2,1\n";
  EXPECT_THROW(read_csv_trace(ss), CheckError);
}

TEST(TraceIoTest, CsvHeaderIsOptional) {
  std::stringstream ss;
  ss << "1.0,5,1\n2.0,6,0\n";
  const auto t = read_csv_trace(ss);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].page, 5u);
  EXPECT_FALSE(t[1].request_start);
}

TEST(TraceIoTest, FileRoundTripBothFormats) {
  // The two on-disk formats: CSV through save_trace/load_trace, JPMC
  // through the chunked writer, both read back by load_any_trace (the
  // `jpm trace pack` ingestion path), which sniffs rather than trusting the
  // extension.
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path();
  SynthesizerConfig cfg;
  cfg.dataset_bytes = mib(64);
  cfg.byte_rate = 20e6;
  cfg.duration_s = 10.0;
  cfg.page_bytes = 64 * kKiB;
  const auto trace = synthesize(cfg);
  ASSERT_FALSE(trace.empty());

  const std::string csv = (dir / "jpm_trace_test.dat").string();
  save_trace(csv, trace);
  const std::string jpmc = (dir / "jpm_trace_test.jpmc").string();
  {
    std::ofstream os(jpmc, std::ios::binary);
    tracefile::TraceWriter writer(os, cfg.page_bytes, 1024, cfg.duration_s);
    for (const auto& e : trace) writer.append(e);
    writer.finish();
  }
  EXPECT_EQ(load_trace(csv).size(), trace.size());
  for (const std::string& path : {csv, jpmc}) {
    const auto loaded = tracefile::load_any_trace(path);
    ASSERT_EQ(loaded.size(), trace.size()) << path;
    EXPECT_EQ(loaded.pages.front(), trace.front().page);
    EXPECT_EQ(loaded.pages.back(), trace.back().page);
    std::remove(path.c_str());
  }
}

TEST(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(load_trace("/nonexistent/path/trace.csv"), CheckError);
}

// ---- format sniffing -------------------------------------------------------
// load_trace routes on leading bytes, never on the file extension.

std::string sniff_error(const std::string& content) {
  std::stringstream ss(content);
  try {
    sniff_trace_format(ss, "t.dat");
    return "";
  } catch (const CheckError& e) {
    return e.what();
  }
}

TEST(TraceIoTest, SniffsEveryKnownFormat) {
  std::stringstream chunked("JPMC" + std::string(60, '\0'));
  EXPECT_EQ(sniff_trace_format(chunked, "t"), TraceFormat::kChunked);

  std::stringstream csv("time_s,page,request_start\n0.5,100,1\n");
  EXPECT_EQ(sniff_trace_format(csv, "t"), TraceFormat::kCsv);
  EXPECT_EQ(read_csv_trace(csv).size(), 1u);  // stream position restored
  std::stringstream headerless("0.5,100,1\n");
  EXPECT_EQ(sniff_trace_format(headerless, "t"), TraceFormat::kCsv);
}

TEST(TraceIoTest, SniffNamesUnrecognizedAndEmptyInputs) {
  EXPECT_NE(sniff_error(std::string("\xff\xfe garbage", 11))
                .find("unrecognized trace format"),
            std::string::npos);
  EXPECT_NE(sniff_error("").find("empty trace file"), std::string::npos);
}

TEST(TraceIoTest, LoadTraceRefusesChunkedFilesByName) {
  // A JPMC file needs the tracefile reader; load_trace names the right tool
  // instead of misparsing the header as CSV.
  const std::string path =
      (std::filesystem::temp_directory_path() / "jpm_sniff.jpmc").string();
  std::ofstream f(path, std::ios::binary);
  f << "JPMC" << std::string(60, '\0');
  f.close();
  try {
    load_trace(path);
    ADD_FAILURE() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("jpm::tracefile::TraceReader"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace jpm::workload
