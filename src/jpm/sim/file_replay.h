// File-backed replay: streams a JPMC trace through the push-mode Engine one
// chunk window at a time, so a run over a billion-event file holds one
// decoded chunk (~24 bytes x chunk window) in RAM, never the whole trace.
//
// The mechanism is the same core every other source uses: begin_stream()
// constructs an engine from the file header's geometry, push_chunk()
// decodes chunk i into the reusable buffer and pushes it into the engine,
// finish_stream() closes the run at the header's declared duration. The
// engine is chunking-invariant and an in-memory replay is push-everything +
// finish(duration), so the returned metrics are bit-identical to an
// in-memory replay of the same events — the contract the
// chunked-vs-in-memory differential tests pin down.
#pragma once

#include <cstddef>
#include <optional>

#include "jpm/sim/engine.h"
#include "jpm/tracefile/reader.h"

namespace jpm::sim {

class FileReplay {
 public:
  // The reader must outlive the replay and may be shared (const, read-only)
  // with any number of concurrent FileReplay instances — one mmap serves the
  // whole sweep.
  FileReplay(const tracefile::TraceReader& reader, const PolicySpec& policy,
             const EngineConfig& config);

  // Constructs the engine from the file header (page_bytes, total_pages,
  // duration). Idempotent; push_chunk calls it on demand.
  void begin_stream();
  // Decodes chunk i and pushes it into the engine. Chunks
  // must be fed in file order, each exactly once.
  void push_chunk(std::size_t i);
  // Closes the run at the header's duration and returns the metrics.
  // Single-shot, like Engine::finish().
  RunMetrics finish_stream();

  // begin + every chunk in order + finish.
  RunMetrics run();

  // Peak decode-buffer capacity so far — the replay's working-set bound,
  // asserted O(chunk window) by the capped-RSS smoke test.
  std::size_t peak_buffer_bytes() const { return peak_buffer_bytes_; }

 private:
  const tracefile::TraceReader& reader_;
  PolicySpec policy_;
  EngineConfig config_;
  std::optional<Engine> engine_;
  tracefile::ChunkBuffer buffer_;
  std::size_t peak_buffer_bytes_ = 0;
};

// Convenience: replay the whole file and return the metrics.
RunMetrics replay_file(const tracefile::TraceReader& reader,
                       const PolicySpec& policy, const EngineConfig& config);

}  // namespace jpm::sim
