#include "jpm/tracefile/writer.h"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "jpm/util/check.h"

namespace jpm::tracefile {
namespace {

std::string encode_header(const FileHeader& h) {
  std::string out;
  out.reserve(kHeaderBytes);
  out.append(kMagic, sizeof kMagic);
  append_raw(out, h.version);
  append_raw(out, h.event_count);
  append_raw(out, h.chunk_count);
  append_raw(out, h.page_bytes);
  append_raw(out, h.total_pages);
  append_raw(out, h.duration_s);
  append_raw(out, h.index_offset);
  append_raw(out, h.content_hash);
  JPM_CHECK(out.size() == kHeaderBytes);
  return out;
}

}  // namespace

TraceWriter::TraceWriter(std::ostream& os, std::uint64_t page_bytes,
                         std::uint64_t total_pages, double duration_s,
                         WriterOptions options)
    : os_(os), options_(options) {
  JPM_CHECK_MSG(options_.chunk_events > 0, "chunk_events must be positive");
  header_.page_bytes = page_bytes;
  header_.total_pages = total_pages;
  header_.duration_s = duration_s;
  times_.reserve(options_.chunk_events);
  pages_.reserve(options_.chunk_events);
  flags_.reserve(options_.chunk_events);
  // Placeholder header; finish() seeks back and patches the final one.
  const std::string placeholder = encode_header(header_);
  os_.write(placeholder.data(),
            static_cast<std::streamsize>(placeholder.size()));
  write_offset_ = kHeaderBytes;
}

TraceWriter::~TraceWriter() = default;

void TraceWriter::append(double t, std::uint64_t page, std::uint8_t flags) {
  JPM_CHECK_MSG(!finished_, "append() after finish()");
  if (!(t >= 0.0)) {
    throw TraceFileError("event " + std::to_string(event_index_) +
                         ": timestamp must be nonnegative");
  }
  if (event_index_ > 0 && t < last_time_) {
    throw TraceFileError("event " + std::to_string(event_index_) +
                         ": timestamp goes backwards");
  }
  if ((flags & ~(workload::kTraceFlagStart | workload::kTraceFlagWrite)) !=
      0) {
    throw TraceFileError("event " + std::to_string(event_index_) +
                         ": undefined flag bits set");
  }
  last_time_ = t;
  times_.push_back(t);
  pages_.push_back(page);
  flags_.push_back(flags);
  // Content hash over the logical event: chunking-independent provenance.
  char record[17];
  const std::uint64_t bits = time_bits(t);
  std::memcpy(record, &bits, 8);
  std::memcpy(record + 8, &page, 8);
  record[16] = static_cast<char>(flags);
  content_hash_.update(record, sizeof record);
  ++event_index_;
  if (times_.size() >= options_.chunk_events) flush_chunk();
}

void TraceWriter::flush_chunk() {
  if (times_.empty()) return;
  const std::size_t n = times_.size();

  // Encode the three lanes into the reusable payload scratch.
  std::string times_lane;
  times_lane.reserve(n * 3);
  std::uint64_t prev_bits = time_bits(times_[0]);
  append_raw(times_lane, prev_bits);
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint64_t bits = time_bits(times_[i]);
    append_varint(times_lane, bits - prev_bits);
    prev_bits = bits;
  }

  std::string pages_lane;
  pages_lane.reserve(n * 2);
  append_varint(pages_lane, pages_[0]);
  for (std::size_t i = 1; i < n; ++i) {
    append_varint(pages_lane, zigzag_encode(static_cast<std::int64_t>(
                                  pages_[i] - pages_[i - 1])));
  }

  payload_.clear();
  append_raw(payload_, static_cast<std::uint32_t>(times_lane.size()));
  append_raw(payload_, static_cast<std::uint32_t>(pages_lane.size()));
  payload_ += times_lane;
  payload_ += pages_lane;
  for (std::size_t i = 0; i < n; i += 4) {
    std::uint8_t packed = 0;
    for (std::size_t j = 0; j < 4 && i + j < n; ++j) {
      packed |= static_cast<std::uint8_t>(flags_[i + j] << (2 * j));
    }
    payload_.push_back(static_cast<char>(packed));
  }

  ChunkDesc desc;
  desc.offset = write_offset_;
  desc.encoded_bytes = payload_.size();
  desc.event_count = n;
  desc.t_first = times_.front();
  desc.t_last = times_.back();
  desc.checksum = util::fnv1a64(payload_.data(), payload_.size());
  index_.push_back(desc);

  os_.write(payload_.data(), static_cast<std::streamsize>(payload_.size()));
  JPM_CHECK_MSG(os_.good(), "trace file write failed (chunk "
                                << (index_.size() - 1) << ")");
  write_offset_ += payload_.size();

  peak_buffered_ = std::max(peak_buffered_, buffered_capacity_bytes());
  times_.clear();
  pages_.clear();
  flags_.clear();
}

std::size_t TraceWriter::buffered_capacity_bytes() const {
  return std::max(peak_buffered_,
                  times_.capacity() * sizeof(double) +
                      pages_.capacity() * sizeof(std::uint64_t) +
                      flags_.capacity() + payload_.capacity());
}

FileHeader TraceWriter::finish() {
  JPM_CHECK_MSG(!finished_, "finish() is single-shot");
  finished_ = true;
  flush_chunk();

  header_.event_count = event_index_;
  header_.chunk_count = index_.size();
  header_.index_offset = write_offset_;
  header_.content_hash = content_hash_.digest();

  std::string index_bytes;
  index_bytes.reserve(index_.size() * kChunkDescBytes + 8);
  for (const ChunkDesc& d : index_) {
    append_raw(index_bytes, d.offset);
    append_raw(index_bytes, d.encoded_bytes);
    append_raw(index_bytes, d.event_count);
    append_raw(index_bytes, d.t_first);
    append_raw(index_bytes, d.t_last);
    append_raw(index_bytes, d.checksum);
  }
  JPM_CHECK(index_bytes.size() == index_.size() * kChunkDescBytes);
  append_raw(index_bytes, util::fnv1a64(index_bytes.data(),
                                        index_bytes.size()));
  os_.write(index_bytes.data(),
            static_cast<std::streamsize>(index_bytes.size()));

  const std::string final_header = encode_header(header_);
  os_.seekp(0);
  os_.write(final_header.data(),
            static_cast<std::streamsize>(final_header.size()));
  os_.seekp(0, std::ios::end);
  os_.flush();
  JPM_CHECK_MSG(os_.good(), "trace file write failed (finish)");
  return header_;
}

FileHeader write_trace_file(const std::string& path,
                            const workload::Trace& trace,
                            WriterOptions options) {
  std::ofstream os(path, std::ios::out | std::ios::binary);
  JPM_CHECK_MSG(os.is_open(), "cannot open for writing: " + path);
  TraceWriter writer(os, trace.page_bytes, trace.total_pages,
                     trace.duration_s, options);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    writer.append(trace.times[i], trace.pages[i], trace.flags[i]);
  }
  return writer.finish();
}

FileHeader synthesize_to_file(std::ostream& os,
                              const workload::SynthesizerConfig& config,
                              WriterOptions options) {
  workload::TraceGenerator gen(config);
  // Same derived fields as workload::synthesize_trace: page size and
  // duration from the config, total pages from the file set.
  TraceWriter writer(os, config.page_bytes, gen.total_pages(),
                     config.duration_s, options);
  while (auto e = gen.next()) writer.append(e->time_s, e->page, e->flags);
  return writer.finish();
}

FileHeader synthesize_to_file(const std::string& path,
                              const workload::SynthesizerConfig& config,
                              WriterOptions options) {
  std::ofstream os(path, std::ios::out | std::ios::binary);
  JPM_CHECK_MSG(os.is_open(), "cannot open for writing: " + path);
  return synthesize_to_file(os, config, options);
}

}  // namespace jpm::tracefile
