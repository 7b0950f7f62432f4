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
#include "make_trace.h"

namespace jpm::workload {
namespace {

Trace sample_trace() {
  return test::make_trace({
      {0.5, 100, kTraceFlagStart},
      {0.502, 101},
      {1.25, 7, kTraceFlagStart | kTraceFlagWrite},
      {9.75, 100, kTraceFlagStart},
  });
}

TEST(TraceIoTest, CsvRoundTrip) {
  std::stringstream ss;
  write_csv_trace(ss, sample_trace());
  const auto loaded = read_csv_trace(ss);
  const auto original = sample_trace();
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_NEAR(loaded.times[i], original.times[i], 1e-6);
  }
  EXPECT_EQ(loaded.pages, original.pages);
  EXPECT_EQ(loaded.flags, original.flags);
}

TEST(TraceIoTest, EmptyTraceRoundTrips) {
  std::stringstream csv;
  write_csv_trace(csv, Trace{});
  EXPECT_EQ(csv.str(), "time_s,page,request_start,is_write\n");
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
    tracefile::load_any_trace(path);
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
    const auto trace = sample_trace();
    tracefile::TraceWriter writer(os, 64 * kKiB, 128, 10.0);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      writer.append(trace.times[i], trace.pages[i], trace.flags[i]);
    }
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

std::string csv_error(const std::string& csv) {
  std::stringstream ss(csv);
  try {
    read_csv_trace(ss);
    return "";
  } catch (const CheckError& e) {
    return e.what();
  }
}

TEST(TraceIoTest, RejectsMalformedCsv) {
  // Each bad row sits on line 3, after the header and one good row; the
  // error names that line.
  for (const std::string row :
       {"1.0;4;1", "1.0,5,1x", "2.0,6,0,1,garbage", "3.0,7,2,5", "4.0,-1,1,0",
        "5.0,8", "5.0,8,1,", " 5.0,8,1", "5.0,8,+1", "nan,8,1", "-1.0,8,1",
        "5.0,18446744073709551616,1"}) {
    const std::string error =
        csv_error("time_s,page,request_start,is_write\n0.5,1,1,0\n" + row +
                  "\n");
    EXPECT_NE(error.find("CSV trace line 3: "), std::string::npos)
        << row << " -> " << error;
  }
  // The largest page id still parses; only its data-set size cannot be
  // derived from it (see `jpm trace pack`).
  std::stringstream max_page("1.0,18446744073709551615,1\n");
  EXPECT_EQ(read_csv_trace(max_page).pages.front(),
            18446744073709551615ull);
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
  EXPECT_EQ(t.pages[0], 5u);
  EXPECT_EQ(t.flags[1], 0);
}

TEST(TraceIoTest, FileRoundTripBothFormats) {
  // The two on-disk formats: CSV through write_csv_trace, JPMC through the
  // chunked writer, both read back by load_any_trace (the `jpm trace pack`
  // ingestion path), which sniffs rather than trusting the extension.
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path();
  SynthesizerConfig cfg;
  cfg.dataset_bytes = mib(64);
  cfg.byte_rate = 20e6;
  cfg.duration_s = 10.0;
  cfg.page_bytes = 64 * kKiB;
  const auto trace = synthesize_trace(cfg);
  ASSERT_FALSE(trace.empty());

  const std::string csv = (dir / "jpm_trace_test.dat").string();
  {
    std::ofstream os(csv);
    write_csv_trace(os, trace);
    ASSERT_TRUE(os.good());
  }
  const std::string jpmc = (dir / "jpm_trace_test.jpmc").string();
  tracefile::write_trace_file(jpmc, trace);
  for (const std::string& path : {csv, jpmc}) {
    const auto loaded = tracefile::load_any_trace(path);
    ASSERT_EQ(loaded.size(), trace.size()) << path;
    EXPECT_EQ(loaded.pages, trace.pages) << path;
    EXPECT_EQ(loaded.flags, trace.flags) << path;
    std::remove(path.c_str());
  }
}

TEST(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(tracefile::load_any_trace("/nonexistent/path/trace.csv"),
               CheckError);
}

// ---- format sniffing -------------------------------------------------------
// load_any_trace routes on leading bytes, never on the file extension.

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

}  // namespace
}  // namespace jpm::workload
