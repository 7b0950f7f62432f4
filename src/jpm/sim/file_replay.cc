#include "jpm/sim/file_replay.h"

#include <algorithm>
#include <utility>

#include "jpm/util/check.h"

namespace jpm::sim {

FileReplay::FileReplay(const tracefile::TraceReader& reader,
                       const PolicySpec& policy, const EngineConfig& config)
    : FileReplay(reader, {{policy, nullptr}}, config) {}

FileReplay::FileReplay(const tracefile::TraceReader& reader,
                       std::vector<GroupMember> members,
                       const EngineConfig& config)
    : reader_(reader), members_(std::move(members)), config_(config) {}

void FileReplay::begin_stream() {
  if (engine_.has_value()) return;
  const tracefile::FileHeader& h = reader_.header();
  JPM_CHECK_MSG(h.page_bytes > 0,
                reader_.name() + ": header declares zero page_bytes; "
                                 "repack with --page-bytes to replay");
  JPM_CHECK_MSG(h.total_pages > 0,
                reader_.name() + ": header declares zero total_pages; "
                                 "repack with --total-pages to replay");
  LiveSource source;
  source.page_bytes = h.page_bytes;
  source.total_pages = h.total_pages;
  source.duration_hint_s = h.duration_s;
  engine_.emplace(source, members_, config_);
}

void FileReplay::push_chunk(std::size_t i) {
  begin_stream();
  reader_.decode_chunk(i, buffer_);
  engine_->push_chunk(buffer_.times.data(), buffer_.pages.data(),
                      buffer_.flags.data(), buffer_.size());
  peak_buffer_bytes_ = std::max(peak_buffer_bytes_, buffer_.capacity_bytes());
}

std::vector<RunMetrics> FileReplay::finish_stream() {
  begin_stream();
  // Same end-of-run rule as an in-memory trace: the declared duration, or
  // the last event's timestamp when the header carries none.
  double end_s = reader_.header().duration_s;
  if (end_s <= 0.0 && !reader_.chunks().empty()) {
    end_s = reader_.chunks().back().t_last;
  }
  return engine_->finish_group(end_s);
}

std::vector<RunMetrics> FileReplay::run_group() {
  begin_stream();
  for (std::size_t i = 0; i < reader_.chunks().size(); ++i) push_chunk(i);
  return finish_stream();
}

RunMetrics FileReplay::run() {
  JPM_CHECK_MSG(members_.size() == 1,
                "a trajectory group replays with run_group");
  return std::move(run_group().front());
}

RunMetrics replay_file(const tracefile::TraceReader& reader,
                       const PolicySpec& policy, const EngineConfig& config) {
  return FileReplay(reader, policy, config).run();
}

std::vector<RunMetrics> replay_file(const tracefile::TraceReader& reader,
                                    const std::vector<GroupMember>& members,
                                    const EngineConfig& config) {
  return FileReplay(reader, members, config).run_group();
}

}  // namespace jpm::sim
