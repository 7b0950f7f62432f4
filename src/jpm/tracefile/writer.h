// Streaming JPMC writer: append events in time order, get a chunked,
// delta-encoded, checksummed trace file. Working memory is one chunk window
// (~24 bytes x chunk_events) no matter how many events are written, so
// synthesize_to_file produces billion-event traces with bounded RSS.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "jpm/tracefile/format.h"
#include "jpm/util/hash.h"
#include "jpm/workload/synthesizer.h"
#include "jpm/workload/trace.h"

namespace jpm::tracefile {

struct WriterOptions {
  // Events per chunk window. Smaller chunks mean finer-grained streaming and
  // lower peak RSS; larger chunks amortize per-chunk overhead (18 bytes of
  // lane headers + 48 bytes of index). The content hash is chunking-
  // independent: any window size yields the same logical trace.
  std::size_t chunk_events = kDefaultChunkEvents;
};

class TraceWriter {
 public:
  // The stream must be seekable (the header is patched on finish) and opened
  // in binary mode. page_bytes/total_pages/duration_s land in the header —
  // the replay geometry, matching workload::Trace's derived fields.
  TraceWriter(std::ostream& os, std::uint64_t page_bytes,
              std::uint64_t total_pages, double duration_s,
              WriterOptions options = {});
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  // Events must arrive with nondecreasing nonnegative timestamps and flags
  // within the defined bits; violations throw TraceFileError naming the
  // event index.
  void append(double t, std::uint64_t page, std::uint8_t flags);

  // Flushes the last chunk, writes the index, patches the header, and
  // returns it. Must be called exactly once; append() is invalid after.
  FileHeader finish();

  std::uint64_t events_written() const { return event_index_; }
  // Peak capacity of the chunk-window buffers — the writer's working-set
  // bound, asserted O(chunk_events) by the capped-RSS smoke test.
  std::size_t buffered_capacity_bytes() const;

 private:
  void flush_chunk();

  std::ostream& os_;
  WriterOptions options_;
  FileHeader header_;
  std::vector<ChunkDesc> index_;
  util::Fnv1a64 content_hash_;

  std::vector<double> times_;
  std::vector<std::uint64_t> pages_;
  std::vector<std::uint8_t> flags_;
  std::string payload_;  // encode scratch, reused across chunks

  std::uint64_t event_index_ = 0;
  double last_time_ = 0.0;
  std::uint64_t write_offset_ = 0;
  std::size_t peak_buffered_ = 0;
  bool finished_ = false;
};

// Writes a materialized trace to `path` (convenience for tests, benches, and
// `jpm trace pack`). Returns the final header.
FileHeader write_trace_file(const std::string& path,
                            const workload::Trace& trace,
                            WriterOptions options = {});

// Windowed synthesis: streams TraceGenerator output straight into a
// TraceWriter, one chunk window at a time. The resulting file decodes to
// lanes bit-identical to workload::synthesize_trace(config) — same derived
// fields (page_bytes, total_pages from the file set, configured duration) —
// without ever materializing the whole trace.
FileHeader synthesize_to_file(const std::string& path,
                              const workload::SynthesizerConfig& config,
                              WriterOptions options = {});
FileHeader synthesize_to_file(std::ostream& os,
                              const workload::SynthesizerConfig& config,
                              WriterOptions options = {});

}  // namespace jpm::tracefile
