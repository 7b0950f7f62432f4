#include "jpm/tracefile/reader.h"

#include <cstring>
#include <fstream>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "jpm/util/check.h"
#include "jpm/util/hash.h"
#include "jpm/workload/trace_io.h"

namespace jpm::tracefile {

// ---- MappedFile ------------------------------------------------------------

MappedFile::MappedFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw TraceFileError(path + ": cannot open trace file");
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw TraceFileError(path + ": cannot stat trace file");
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ > 0) {
    void* p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (p == MAP_FAILED) {
      ::close(fd);
      throw TraceFileError(path + ": mmap failed");
    }
    data_ = static_cast<const std::uint8_t*>(p);
  }
  ::close(fd);  // the mapping outlives the descriptor
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(const_cast<std::uint8_t*>(data_), size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

// ---- TraceReader -----------------------------------------------------------

void TraceReader::fail(const std::string& why) const {
  throw TraceFileError(name_ + ": " + why);
}

TraceReader::TraceReader(const std::string& path) : name_(path) {
  map_.push_back(MappedFile(path));
  parse(map_.back().data(), map_.back().size());
}

TraceReader::TraceReader(const void* data, std::size_t size, std::string name)
    : name_(std::move(name)) {
  parse(static_cast<const std::uint8_t*>(data), size);
}

void TraceReader::parse(const std::uint8_t* data, std::size_t size) {
  data_ = data;
  size_ = size;
  if (size_ < kHeaderBytes) {
    fail("header truncated (" + std::to_string(size_) + " of " +
         std::to_string(kHeaderBytes) + " bytes)");
  }
  if (std::memcmp(data_, kMagic, sizeof kMagic) != 0) {
    fail("not a JPMC chunked trace (bad magic)");
  }
  Cursor cur(data_ + sizeof kMagic, kHeaderBytes - sizeof kMagic,
             name_ + ": header");
  header_.version = cur.read_raw<std::uint32_t>("version");
  if (header_.version != kFormatVersion) {
    fail("unsupported JPMC version " + std::to_string(header_.version) +
         " (expected " + std::to_string(kFormatVersion) + ")");
  }
  header_.event_count = cur.read_raw<std::uint64_t>("event_count");
  header_.chunk_count = cur.read_raw<std::uint64_t>("chunk_count");
  header_.page_bytes = cur.read_raw<std::uint64_t>("page_bytes");
  header_.total_pages = cur.read_raw<std::uint64_t>("total_pages");
  header_.duration_s = cur.read_raw<double>("duration_s");
  header_.index_offset = cur.read_raw<std::uint64_t>("index_offset");
  header_.content_hash = cur.read_raw<std::uint64_t>("content_hash");

  // Index bounds: descriptors + trailing checksum must fill the file
  // exactly. Guard the multiply against a hostile chunk_count.
  if (header_.index_offset < kHeaderBytes || header_.index_offset > size_) {
    fail("index offset " + std::to_string(header_.index_offset) +
         " outside the file (" + std::to_string(size_) + " bytes)");
  }
  const std::uint64_t index_room = size_ - header_.index_offset;
  if (header_.chunk_count > (index_room / kChunkDescBytes)) {
    fail("corrupt header: " + std::to_string(header_.chunk_count) +
         " chunks declared but only " +
         std::to_string(index_room / kChunkDescBytes) +
         " descriptors fit in the remaining " + std::to_string(index_room) +
         " bytes");
  }
  const std::uint64_t index_bytes = header_.chunk_count * kChunkDescBytes;
  if (index_bytes + 8 != index_room) {
    fail("index truncated or trailing garbage: " +
         std::to_string(index_room) + " bytes after index offset, expected " +
         std::to_string(index_bytes + 8));
  }
  const std::uint8_t* index_start = data_ + header_.index_offset;
  std::uint64_t stored_index_checksum = 0;
  std::memcpy(&stored_index_checksum, index_start + index_bytes, 8);
  if (util::fnv1a64(index_start, index_bytes) != stored_index_checksum) {
    fail("index checksum mismatch (file corrupt)");
  }

  index_.reserve(header_.chunk_count);
  Cursor icur(index_start, index_bytes, name_ + ": index");
  std::uint64_t events_seen = 0;
  std::uint64_t expected_offset = kHeaderBytes;
  double prev_t_last = 0.0;
  for (std::uint64_t i = 0; i < header_.chunk_count; ++i) {
    ChunkDesc d;
    d.offset = icur.read_raw<std::uint64_t>("chunk offset");
    d.encoded_bytes = icur.read_raw<std::uint64_t>("chunk size");
    d.event_count = icur.read_raw<std::uint64_t>("chunk event count");
    d.t_first = icur.read_raw<double>("chunk t_first");
    d.t_last = icur.read_raw<double>("chunk t_last");
    d.checksum = icur.read_raw<std::uint64_t>("chunk checksum");
    const std::string at = "chunk " + std::to_string(i);
    if (d.offset != expected_offset) {
      fail(at + ": payload offset " + std::to_string(d.offset) +
           " breaks contiguity (expected " + std::to_string(expected_offset) +
           ")");
    }
    if (d.encoded_bytes > header_.index_offset - d.offset) {
      fail(at + ": payload (" + std::to_string(d.encoded_bytes) +
           " bytes at " + std::to_string(d.offset) + ") overruns the index");
    }
    if (d.event_count == 0) fail(at + ": empty chunk");
    if (!(d.t_first >= (i == 0 ? 0.0 : prev_t_last)) ||
        !(d.t_last >= d.t_first)) {
      fail(at + ": time range goes backwards");
    }
    prev_t_last = d.t_last;
    events_seen += d.event_count;
    expected_offset = d.offset + d.encoded_bytes;
    index_.push_back(d);
  }
  if (expected_offset != header_.index_offset) {
    fail("chunk payloads end at " + std::to_string(expected_offset) +
         " but the index starts at " + std::to_string(header_.index_offset));
  }
  if (events_seen != header_.event_count) {
    fail("header declares " + std::to_string(header_.event_count) +
         " events but chunks hold " + std::to_string(events_seen));
  }
}

const std::uint8_t* TraceReader::chunk_data(std::size_t i) const {
  JPM_CHECK_MSG(i < index_.size(), "chunk index out of range");
  return data_ + index_[i].offset;
}

void TraceReader::decode_chunk(std::size_t i, ChunkBuffer& out) const {
  JPM_CHECK_MSG(i < index_.size(), "chunk index out of range");
  const ChunkDesc& d = index_[i];
  const std::string at = name_ + ": chunk " + std::to_string(i);
  const std::uint8_t* payload = data_ + d.offset;
  if (util::fnv1a64(payload, d.encoded_bytes) != d.checksum) {
    throw TraceFileError(at + ": payload checksum mismatch (file corrupt)");
  }

  Cursor cur(payload, d.encoded_bytes, at);
  const auto times_bytes = cur.read_raw<std::uint32_t>("times lane size");
  const auto pages_bytes = cur.read_raw<std::uint32_t>("pages lane size");
  const std::uint64_t n = d.event_count;
  const std::uint64_t flags_bytes = (n + 3) / 4;
  if (8ull + times_bytes + pages_bytes + flags_bytes != d.encoded_bytes) {
    throw TraceFileError(at + ": lane sizes (" + std::to_string(times_bytes) +
                         " + " + std::to_string(pages_bytes) + " + " +
                         std::to_string(flags_bytes) +
                         " flag bytes) do not add up to the payload (" +
                         std::to_string(d.encoded_bytes) + " bytes)");
  }

  out.times.clear();
  out.pages.clear();
  out.flags.clear();
  out.times.reserve(n);
  out.pages.reserve(n);
  out.flags.reserve(n);

  {
    Cursor tc(payload + 8, times_bytes, at + ": times lane");
    std::uint64_t bits = tc.read_raw<std::uint64_t>("first timestamp");
    out.times.push_back(time_from_bits(bits));
    for (std::uint64_t k = 1; k < n; ++k) {
      const std::uint64_t delta = tc.read_varint("timestamp delta");
      if (delta > ~std::uint64_t{0} - bits) {
        throw TraceFileError(at + ": timestamp delta overflows at event " +
                             std::to_string(k));
      }
      bits += delta;
      out.times.push_back(time_from_bits(bits));
    }
    if (tc.remaining() != 0) {
      throw TraceFileError(at + ": " + std::to_string(tc.remaining()) +
                           " stray bytes after the times lane");
    }
  }
  {
    Cursor pc(payload + 8 + times_bytes, pages_bytes, at + ": pages lane");
    std::uint64_t page = pc.read_varint("first page");
    out.pages.push_back(page);
    for (std::uint64_t k = 1; k < n; ++k) {
      page += static_cast<std::uint64_t>(
          zigzag_decode(pc.read_varint("page delta")));
      out.pages.push_back(page);
    }
    if (pc.remaining() != 0) {
      throw TraceFileError(at + ": " + std::to_string(pc.remaining()) +
                           " stray bytes after the pages lane");
    }
  }
  {
    const std::uint8_t* fb = payload + 8 + times_bytes + pages_bytes;
    for (std::uint64_t k = 0; k < n; ++k) {
      out.flags.push_back(
          static_cast<std::uint8_t>((fb[k / 4] >> (2 * (k % 4))) & 0x3));
    }
  }

  // Cross-check the decode against the descriptor: first/last timestamps
  // must match bit for bit (the delta coding guarantees nondecreasing order
  // in between).
  if (time_bits(out.times.front()) != time_bits(d.t_first) ||
      time_bits(out.times.back()) != time_bits(d.t_last)) {
    throw TraceFileError(at +
                         ": decoded time range disagrees with the index");
  }
  if (!(out.times.front() >= 0.0)) {
    throw TraceFileError(at + ": negative timestamp");
  }
}

workload::Trace TraceReader::read_all() const {
  workload::Trace trace;
  trace.page_bytes = header_.page_bytes;
  trace.total_pages = header_.total_pages;
  trace.duration_s = header_.duration_s;
  trace.reserve(header_.event_count);
  ChunkBuffer buf;
  for (std::size_t i = 0; i < index_.size(); ++i) {
    decode_chunk(i, buf);
    trace.times.insert(trace.times.end(), buf.times.begin(), buf.times.end());
    trace.pages.insert(trace.pages.end(), buf.pages.begin(), buf.pages.end());
    trace.flags.insert(trace.flags.end(), buf.flags.begin(), buf.flags.end());
  }
  return trace;
}

void TraceReader::verify_content_hash() const {
  util::Fnv1a64 hash;
  ChunkBuffer buf;
  for (std::size_t i = 0; i < index_.size(); ++i) {
    decode_chunk(i, buf);
    char record[17];
    for (std::size_t k = 0; k < buf.size(); ++k) {
      const std::uint64_t bits = time_bits(buf.times[k]);
      std::memcpy(record, &bits, 8);
      std::memcpy(record + 8, &buf.pages[k], 8);
      record[16] = static_cast<char>(buf.flags[k]);
      hash.update(record, sizeof record);
    }
  }
  if (hash.digest() != header_.content_hash) {
    fail("content hash mismatch: decoded events hash to " +
         util::hex16(hash.digest()) + " but the header declares " +
         util::hex16(header_.content_hash));
  }
}

workload::Trace load_any_trace(const std::string& path) {
  {
    std::ifstream is(path, std::ios::in | std::ios::binary);
    JPM_CHECK_MSG(is.is_open(), "cannot open for reading: " + path);
    if (workload::sniff_trace_format(is, path) ==
        workload::TraceFormat::kChunked) {
      return TraceReader(path).read_all();
    }
  }
  // CSV: the hardened workload reader sniffs and validates; CSV carries no
  // geometry, so the derived fields stay zero.
  const std::vector<workload::TraceEvent> events =
      workload::load_trace(path);
  return workload::trace_from_events(events, 0, 0, 0.0);
}

}  // namespace jpm::tracefile
