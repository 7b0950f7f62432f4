// mmap-backed JPMC reader: the whole file is mapped read-only once, the
// header and index are validated up front, and chunks decode on demand into
// caller-owned SoA buffers. One TraceReader may be shared by any number of
// sweep threads — every accessor is const and decoding touches only the
// caller's ChunkBuffer — so a multi-gigabyte trace costs one mapping, not
// one copy per policy run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "jpm/tracefile/format.h"
#include "jpm/workload/trace.h"

namespace jpm::tracefile {

// Read-only memory-mapped file (RAII). Move-only.
class MappedFile {
 public:
  explicit MappedFile(const std::string& path);
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

// Reusable SoA decode buffer: one chunk window of lanes. Reusing one buffer
// across decode_chunk calls keeps a file-backed replay's working set at
// O(chunk window) — capacity_bytes() is what the capped-RSS test asserts on.
struct ChunkBuffer {
  std::vector<double> times;
  std::vector<std::uint64_t> pages;
  std::vector<std::uint8_t> flags;

  std::size_t size() const { return times.size(); }
  std::size_t capacity_bytes() const {
    return times.capacity() * sizeof(double) +
           pages.capacity() * sizeof(std::uint64_t) + flags.capacity();
  }
};

class TraceReader {
 public:
  // Maps `path` and validates the header, index checksum, and every chunk
  // descriptor (bounds, counts, time-range ordering). Payloads are verified
  // lazily, per chunk, on decode.
  explicit TraceReader(const std::string& path);
  // Borrows an in-memory image (tests, benches); `data` must outlive the
  // reader. `name` labels error messages.
  TraceReader(const void* data, std::size_t size, std::string name = "<mem>");

  const FileHeader& header() const { return header_; }
  const std::vector<ChunkDesc>& chunks() const { return index_; }
  const std::string& name() const { return name_; }

  // Zero-copy view of chunk i's encoded payload inside the mapping.
  const std::uint8_t* chunk_data(std::size_t i) const;

  // Decodes chunk i into `out` (lanes replaced, capacity reused), verifying
  // the payload checksum first. Errors name the file, chunk, and position.
  void decode_chunk(std::size_t i, ChunkBuffer& out) const;

  // Decodes the whole file into a materialized Trace with the header's
  // derived fields — the bridge back to the in-RAM world (`jpm trace cat`,
  // format conversion, small files).
  workload::Trace read_all() const;

  // Re-hashes every decoded event and compares against the header's content
  // hash (`jpm trace info --verify`). Throws TraceFileError on mismatch.
  void verify_content_hash() const;

 private:
  void parse(const std::uint8_t* data, std::size_t size);
  [[noreturn]] void fail(const std::string& why) const;

  std::vector<MappedFile> map_;  // empty for borrowed-memory readers
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::string name_;
  FileHeader header_;
  std::vector<ChunkDesc> index_;
};

// Loads any trace file the repo knows — JPMC (chunked) or CSV — into a
// materialized Trace, sniffing the format from the leading bytes. CSV
// carries no geometry, so page_bytes/total_pages/duration_s are zero and
// the caller's to fill (JPMC files carry theirs). The ingestion path for
// `jpm trace pack` and examples/trace_inspector.
workload::Trace load_any_trace(const std::string& path);

}  // namespace jpm::tracefile
