// jpm::tracefile format suite: round-trip properties, chunking independence,
// windowed synthesis vs the in-memory synthesizer, and the hardened reader's
// position-named rejection of truncated/corrupted/overlong inputs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "jpm/tracefile/format.h"
#include "jpm/tracefile/reader.h"
#include "jpm/tracefile/writer.h"
#include "jpm/util/hash.h"
#include "jpm/workload/synthesizer.h"
#include "jpm/workload/trace.h"

namespace jpm::tracefile {
namespace {

workload::SynthesizerConfig small_workload() {
  workload::SynthesizerConfig w;
  w.dataset_bytes = 64 * kMiB;
  w.byte_rate = 20e6;
  w.popularity = 0.1;
  w.duration_s = 600.0;
  w.page_bytes = 64 * kKiB;
  w.file_scale = 16.0;
  w.write_fraction = 0.2;  // exercise the write-flag lane
  w.seed = 11;
  return w;
}

// Serializes a trace into an in-memory JPMC image.
std::string encode(const workload::Trace& trace, WriterOptions options = {}) {
  std::ostringstream os(std::ios::binary);
  TraceWriter w(os, trace.page_bytes, trace.total_pages, trace.duration_s,
                options);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    w.append(trace.times[i], trace.pages[i], trace.flags[i]);
  }
  w.finish();
  return os.str();
}

void expect_lanes_equal(const workload::Trace& a, const workload::Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.times, b.times);
  EXPECT_EQ(a.pages, b.pages);
  EXPECT_EQ(a.flags, b.flags);
  EXPECT_EQ(a.page_bytes, b.page_bytes);
  EXPECT_EQ(a.total_pages, b.total_pages);
  EXPECT_EQ(a.duration_s, b.duration_s);
}

// Recomputes every chunk's payload checksum and the trailing index checksum
// so corruption tests can damage a payload and still get past the checksum
// layers to the structural error they target.
void refresh_checksums(std::string& file) {
  std::uint64_t index_offset = 0;
  std::memcpy(&index_offset, file.data() + 48, 8);
  std::uint64_t chunk_count = 0;
  std::memcpy(&chunk_count, file.data() + 16, 8);
  for (std::uint64_t i = 0; i < chunk_count; ++i) {
    const std::size_t desc = index_offset + i * kChunkDescBytes;
    std::uint64_t offset = 0, bytes = 0;
    std::memcpy(&offset, file.data() + desc, 8);
    std::memcpy(&bytes, file.data() + desc + 8, 8);
    const std::uint64_t checksum = util::fnv1a64(file.data() + offset, bytes);
    std::memcpy(file.data() + desc + 40, &checksum, 8);
  }
  const std::uint64_t index_bytes = chunk_count * kChunkDescBytes;
  const std::uint64_t index_checksum =
      util::fnv1a64(file.data() + index_offset, index_bytes);
  std::memcpy(file.data() + index_offset + index_bytes, &index_checksum, 8);
}

std::string error_of(const std::string& image) {
  try {
    TraceReader r(image.data(), image.size(), "t.jpmc");
    workload::Trace buf;
    for (std::size_t i = 0; i < r.chunks().size(); ++i) r.decode_chunk(i, buf);
    return "";
  } catch (const TraceFileError& e) {
    return e.what();
  }
}

// ---- encoding primitives ---------------------------------------------------

TEST(TraceFormatTest, TimeBitsOrderPreservingAndLossless) {
  const double samples[] = {0.0, 1e-12, 0.5, 1.0, 1.5, 4800.0, 1e6};
  std::uint64_t prev = 0;
  for (double t : samples) {
    const std::uint64_t bits = time_bits(t);
    EXPECT_EQ(time_from_bits(bits), t);
    EXPECT_GE(bits, prev);  // nonneg doubles order like their bit patterns
    prev = bits;
  }
  // -0.0 normalizes to +0.0: its raw pattern would sort above everything.
  EXPECT_EQ(time_bits(-0.0), time_bits(0.0));
}

TEST(TraceFormatTest, ZigzagRoundTrips) {
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
                         std::int64_t{1} << 40, -(std::int64_t{1} << 40),
                         std::numeric_limits<std::int64_t>::max(),
                         std::numeric_limits<std::int64_t>::min()}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
  EXPECT_EQ(zigzag_encode(0), 0u);   // small magnitudes stay small
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
}

TEST(TraceFormatTest, VarintRoundTrips) {
  for (std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{127}, std::uint64_t{128},
        std::uint64_t{1} << 32, ~std::uint64_t{0}}) {
    std::string buf;
    append_varint(buf, v);
    Cursor cur(reinterpret_cast<const std::uint8_t*>(buf.data()), buf.size(),
               "varint");
    EXPECT_EQ(cur.read_varint("value"), v);
    EXPECT_EQ(cur.remaining(), 0u);
  }
}

TEST(TraceFormatTest, CursorNamesTruncationPosition) {
  const std::uint8_t bytes[] = {0x80, 0x80};  // endless continuation
  Cursor cur(bytes, sizeof bytes, "ctx");
  try {
    cur.read_varint("page delta");
    FAIL() << "expected TraceFileError";
  } catch (const TraceFileError& e) {
    EXPECT_NE(std::string(e.what()).find("ctx: page delta varint truncated"),
              std::string::npos)
        << e.what();
  }
}

// ---- round-trip properties -------------------------------------------------

TEST(TraceFileTest, RoundTripsSynthesizedTrace) {
  const workload::Trace trace = workload::synthesize_trace(small_workload());
  ASSERT_GT(trace.size(), 0u);
  const std::string image = encode(trace);
  const TraceReader reader(image.data(), image.size(), "t.jpmc");
  EXPECT_EQ(reader.header().event_count, trace.size());
  EXPECT_EQ(reader.header().page_bytes, trace.page_bytes);
  EXPECT_EQ(reader.header().total_pages, trace.total_pages);
  EXPECT_EQ(reader.header().duration_s, trace.duration_s);
  expect_lanes_equal(reader.read_all(), trace);
  reader.verify_content_hash();
}

TEST(TraceFileTest, ContentHashIsChunkingIndependent) {
  const workload::Trace trace = workload::synthesize_trace(small_workload());
  const std::string a = encode(trace, {.chunk_events = 256});
  const std::string b = encode(trace, {.chunk_events = 1 << 16});
  const TraceReader ra(a.data(), a.size(), "a");
  const TraceReader rb(b.data(), b.size(), "b");
  EXPECT_GT(ra.chunks().size(), rb.chunks().size());
  EXPECT_EQ(ra.header().content_hash, rb.header().content_hash);
  expect_lanes_equal(ra.read_all(), rb.read_all());
}

TEST(TraceFileTest, DeltaEncodingBeatsRawLanes) {
  const workload::Trace trace = workload::synthesize_trace(small_workload());
  const std::string image = encode(trace);
  // Raw SoA lanes cost 17 bytes/event; delta varints should at least halve
  // that on a dense synthesized stream.
  EXPECT_LT(image.size(), trace.size() * 17 / 2);
}

TEST(TraceFileTest, EmptyTraceRoundTrips) {
  workload::Trace trace;
  trace.page_bytes = 4096;
  trace.total_pages = 10;
  trace.duration_s = 1.0;
  const std::string image = encode(trace);
  const TraceReader reader(image.data(), image.size(), "empty");
  EXPECT_EQ(reader.header().event_count, 0u);
  EXPECT_EQ(reader.header().chunk_count, 0u);
  EXPECT_EQ(reader.read_all().size(), 0u);
  reader.verify_content_hash();
}

TEST(TraceFileTest, SynthesizeToFileMatchesSynthesizeTrace) {
  const workload::SynthesizerConfig config = small_workload();
  const workload::Trace reference = workload::synthesize_trace(config);
  std::ostringstream os(std::ios::binary);
  const FileHeader header = synthesize_to_file(os, config);
  const std::string image = os.str();
  EXPECT_EQ(header.event_count, reference.size());
  const TraceReader reader(image.data(), image.size(), "synth");
  expect_lanes_equal(reader.read_all(), reference);
  // ... and windowed synthesis is chunking-independent too.
  std::ostringstream os2(std::ios::binary);
  const FileHeader h2 = synthesize_to_file(os2, config, {.chunk_events = 999});
  EXPECT_EQ(h2.content_hash, header.content_hash);
}

TEST(TraceFileTest, WriterRejectsMalformedAppends) {
  std::ostringstream os(std::ios::binary);
  TraceWriter w(os, 4096, 10, 1.0);
  w.append(1.0, 3, workload::kTraceFlagStart);
  try {
    w.append(0.5, 4, 0);  // time goes backwards
    FAIL() << "expected TraceFileError";
  } catch (const TraceFileError& e) {
    EXPECT_NE(std::string(e.what()).find("event 1"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(w.append(2.0, 4, 0x80), TraceFileError);  // undefined flag bit
  std::ostringstream os2(std::ios::binary);
  TraceWriter w2(os2, 4096, 10, 1.0);
  EXPECT_THROW(w2.append(-1.0, 0, 0), TraceFileError);  // negative time
}

// ---- hardened reader -------------------------------------------------------

class TraceFileCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::Trace trace;
    trace.page_bytes = 4096;
    trace.total_pages = 64;
    trace.duration_s = 2.0;
    for (int i = 0; i < 300; ++i) {
      trace.times.push_back(0.005 * i);
      trace.pages.push_back(static_cast<std::uint64_t>((i * 7) % 64));
      trace.flags.push_back(i % 3 == 0 ? workload::kTraceFlagStart : 0);
    }
    image_ = encode(trace, {.chunk_events = 128});  // 3 chunks
    std::memcpy(&index_offset_, image_.data() + 48, 8);
  }

  std::string image_;
  std::uint64_t index_offset_ = 0;
};

TEST_F(TraceFileCorruptionTest, ValidImageDecodes) {
  EXPECT_EQ(error_of(image_), "");
}

TEST_F(TraceFileCorruptionTest, RejectsTruncatedHeader) {
  EXPECT_NE(error_of(image_.substr(0, 40)).find("header truncated"),
            std::string::npos);
}

TEST_F(TraceFileCorruptionTest, RejectsBadMagic) {
  image_[0] = 'X';
  EXPECT_NE(error_of(image_).find("bad magic"), std::string::npos);
}

TEST_F(TraceFileCorruptionTest, RejectsUnsupportedVersion) {
  image_[4] = 9;
  EXPECT_NE(error_of(image_).find("unsupported JPMC version 9"),
            std::string::npos);
}

TEST_F(TraceFileCorruptionTest, RejectsTruncatedFile) {
  // Cutting mid-payload leaves the index offset pointing past the end.
  EXPECT_NE(error_of(image_.substr(0, index_offset_ - 10))
                .find("outside the file"),
            std::string::npos);
}

TEST_F(TraceFileCorruptionTest, RejectsTruncatedIndex) {
  EXPECT_NE(error_of(image_.substr(0, image_.size() - 1))
                .find("index truncated"),
            std::string::npos);
}

TEST_F(TraceFileCorruptionTest, RejectsIndexCorruption) {
  image_[index_offset_ + 2] ^= 0xff;
  EXPECT_NE(error_of(image_).find("index checksum mismatch"),
            std::string::npos);
}

TEST_F(TraceFileCorruptionTest, RejectsPayloadCorruption) {
  image_[kHeaderBytes + 12] ^= 0xff;  // inside chunk 0's payload
  const std::string error = error_of(image_);
  EXPECT_NE(error.find("chunk 0"), std::string::npos) << error;
  EXPECT_NE(error.find("payload checksum mismatch"), std::string::npos)
      << error;
}

TEST_F(TraceFileCorruptionTest, RejectsEventCountMismatch) {
  std::uint64_t events = 0;
  std::memcpy(&events, image_.data() + 8, 8);
  ++events;
  std::memcpy(image_.data() + 8, &events, 8);
  EXPECT_NE(error_of(image_).find("but chunks hold"), std::string::npos);
}

TEST_F(TraceFileCorruptionTest, RejectsTruncatedVarintWithPosition) {
  // Damage the last byte of chunk 0's times lane: setting its continuation
  // bit makes the final delta run off the end of the lane.
  std::uint32_t times_bytes = 0;
  std::memcpy(&times_bytes, image_.data() + kHeaderBytes, 4);
  image_[kHeaderBytes + 8 + times_bytes - 1] |= 0x80;
  refresh_checksums(image_);
  const std::string error = error_of(image_);
  EXPECT_NE(error.find("chunk 0: times lane"), std::string::npos) << error;
  EXPECT_NE(error.find("varint truncated at byte"), std::string::npos)
      << error;
}

TEST_F(TraceFileCorruptionTest, RejectsLaneSizeMismatch) {
  std::uint32_t times_bytes = 0;
  std::memcpy(&times_bytes, image_.data() + kHeaderBytes, 4);
  ++times_bytes;
  std::memcpy(image_.data() + kHeaderBytes, &times_bytes, 4);
  refresh_checksums(image_);
  EXPECT_NE(error_of(image_).find("do not add up to the payload"),
            std::string::npos);
}

TEST_F(TraceFileCorruptionTest, VerifyContentHashCatchesHeaderTampering) {
  std::uint64_t hash = 0;
  std::memcpy(&hash, image_.data() + 56, 8);
  hash ^= 1;
  std::memcpy(image_.data() + 56, &hash, 8);
  const TraceReader reader(image_.data(), image_.size(), "t.jpmc");
  EXPECT_THROW(reader.verify_content_hash(), TraceFileError);
}

}  // namespace
}  // namespace jpm::tracefile
