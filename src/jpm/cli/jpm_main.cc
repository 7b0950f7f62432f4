// The unified `jpm` CLI: executes, validates, and canonicalizes declarative
// scenario files (see src/jpm/spec/spec.h and scenarios/).
//
//   jpm run <scenario.json> [--telemetry=<base>]
//       Executes the scenario's sweep and prints its result tables —
//       byte-identical to the bench harness the scenario was extracted
//       from. JPM_BENCH_FAST=1 applies the smoke-run schedule, JPM_THREADS
//       controls the fan-out (tables are identical for any value).
//       --telemetry exports <base>.{report.json,trace.json,periods.csv}
//       with the resolved scenario + content hash embedded in the report.
//   jpm validate <scenario.json>...
//       Parses and semantically validates each file; prints one line per
//       file ("ok <file> sha=<hash>") or the path-named error.
//   jpm print <scenario.json> [--resolved]
//       Prints the canonical, fully resolved serialization (defaults filled
//       in, preset rosters and sweep axes expanded). A checked-in scenario
//       is canonical iff `jpm print` reproduces it byte-for-byte.
//   jpm hash <scenario.json>
//       Prints the scenario's provenance hash (FNV-1a 64, 16 hex digits).
//   jpm serve <scenario.json> [--policy=<name>] [--format=auto|jsonl|binary]
//             [--telemetry=<base>]
//       The streaming daemon: reads live events from stdin (JSONL or
//       length-prefixed binary; see src/jpm/stream/wire.h), pushes them
//       through the scenario's engine with the configured overload policy,
//       and prints a JSON run report on exit. SIGINT or EOF drains the ring,
//       closes the final period, and always flushes the report.
//   jpm synth <scenario.json> [--format=jsonl|binary] [--count=N]
//       Emits the scenario's first workload point as an event stream on
//       stdout — the producer half of a serve demo:
//         jpm synth demo.json | jpm serve demo.json
//   jpm trace synth|pack|info|cat
//       The chunked on-disk trace store (JPMC; see src/jpm/tracefile/):
//       synth writes a scenario workload point to a trace file with bounded
//       RSS, pack converts CSV captures, info prints the header,
//       index, and content hash, cat decodes back to CSV or JSONL. A
//       scenario workload point replays such a file via
//       "trace": {"path": "big.jpmc"}.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "jpm/spec/run.h"
#include "jpm/spec/spec.h"
#include "jpm/stream/stream_engine.h"
#include "jpm/stream/wire.h"
#include "jpm/telemetry/export.h"
#include "jpm/telemetry/telemetry.h"
#include "jpm/tracefile/reader.h"
#include "jpm/tracefile/writer.h"
#include "jpm/util/hash.h"
#include "jpm/util/json.h"
#include "jpm/util/parallel.h"
#include "jpm/util/units.h"
#include "jpm/workload/synthesizer.h"
#include "jpm/workload/trace.h"

namespace {

int usage(std::ostream& os, int code) {
  os << "usage: jpm <command> [args]\n"
        "  jpm run <scenario.json> [--telemetry=<base>]   execute the sweep\n"
        "  jpm validate <scenario.json>...                parse + validate\n"
        "  jpm print <scenario.json> [--resolved]         canonical form\n"
        "  jpm hash <scenario.json>                       provenance hash\n"
        "  jpm serve <scenario.json> [--policy=<name>] [--format=<fmt>]\n"
        "            [--telemetry=<base>]     stream events from stdin\n"
        "  jpm synth <scenario.json> [--format=<fmt>] [--count=N]\n"
        "                                     emit an event stream on stdout\n"
        "  jpm trace synth <scenario.json> <out.jpmc> [--point=N]\n"
        "            [--chunk-events=N]       synthesize to a chunked file\n"
        "  jpm trace pack <in> <out.jpmc> [--page-bytes=N] [--total-pages=N]\n"
        "            [--duration=S] [--chunk-events=N]\n"
        "                                     convert CSV to chunked\n"
        "  jpm trace info <file.jpmc> [--chunks] [--verify]\n"
        "                                     header, index, content hash\n"
        "  jpm trace cat <file.jpmc> [--format=csv|jsonl] [--limit=N]\n"
        "                                     decode to CSV/JSONL on stdout\n"
        "environment: JPM_BENCH_FAST=1 (smoke schedule), JPM_THREADS=N,\n"
        "             JPM_SCENARIO_DIR (default scenario directory)\n";
  return code;
}

int cmd_run(const std::vector<std::string>& args) {
  std::string file;
  std::string telemetry_base;
  for (const auto& a : args) {
    if (a.rfind("--telemetry=", 0) == 0) {
      telemetry_base = a.substr(std::strlen("--telemetry="));
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "jpm run: unknown option " << a << "\n";
      return 2;
    } else if (file.empty()) {
      file = a;
    } else {
      std::cerr << "jpm run: expected one scenario file\n";
      return 2;
    }
  }
  if (file.empty()) {
    std::cerr << "jpm run: missing scenario file\n";
    return 2;
  }

  const auto sc = jpm::spec::load_for_run(file);
  std::cerr << "jpm: threads=" << jpm::util::default_thread_count()
            << (jpm::spec::fast_mode() ? ", fast mode (JPM_BENCH_FAST=1)" : "")
            << "\n";
  if (!telemetry_base.empty()) {
    jpm::telemetry::start();
    std::cerr << "jpm: telemetry -> " << telemetry_base
              << ".{report.json,trace.json,periods.csv}\n";
  }

  jpm::spec::RunOptions options;
  options.progress = [](const std::string& line) {
    std::cerr << "  " << line << "\n";
  };
  jpm::spec::run_scenario(sc, options);

  if (!telemetry_base.empty()) {
    std::string error;
    if (!jpm::telemetry::export_files(telemetry_base, &error)) {
      std::cerr << "jpm: telemetry export failed: " << error << "\n";
      jpm::telemetry::stop();
      return 1;
    }
    jpm::telemetry::stop();
  }
  return 0;
}

int cmd_validate(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cerr << "jpm validate: missing scenario file\n";
    return 2;
  }
  int failures = 0;
  for (const auto& file : args) {
    try {
      const auto sc = jpm::spec::load_scenario_file(file);
      jpm::spec::validate_scenario(sc);
      std::cout << "ok " << file << " sha=" << jpm::spec::scenario_hash(sc)
                << "\n";
    } catch (const jpm::spec::SpecError& e) {
      std::cerr << "error: " << e.what() << "\n";
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int cmd_print(const std::vector<std::string>& args) {
  std::string file;
  for (const auto& a : args) {
    if (a == "--resolved") continue;  // printing is always fully resolved
    if (!a.empty() && a[0] == '-') {
      std::cerr << "jpm print: unknown option " << a << "\n";
      return 2;
    }
    if (!file.empty()) {
      std::cerr << "jpm print: expected one scenario file\n";
      return 2;
    }
    file = a;
  }
  if (file.empty()) {
    std::cerr << "jpm print: missing scenario file\n";
    return 2;
  }
  const auto sc = jpm::spec::load_scenario_file(file);
  jpm::spec::validate_scenario(sc);
  std::cout << jpm::spec::serialize_scenario(sc);
  return 0;
}

int cmd_hash(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    std::cerr << "jpm hash: expected one scenario file\n";
    return 2;
  }
  const auto sc = jpm::spec::load_scenario_file(args[0]);
  std::cout << jpm::spec::scenario_hash(sc) << "\n";
  return 0;
}

// ---- serve / synth ---------------------------------------------------------

// SIGINT closes stdin: the blocked producer read returns EOF, the producer
// closes the ring, and the normal drain-and-report shutdown path runs. Only
// async-signal-safe calls are allowed here.
volatile std::sig_atomic_t g_interrupted = 0;
void on_sigint(int) {
  g_interrupted = 1;
  close(0);
}

// The roster entry to serve: --policy=<name>, defaulting to the first.
const jpm::sim::PolicySpec& pick_policy(const jpm::spec::Scenario& sc,
                                        const std::string& name) {
  if (sc.roster.empty()) {
    throw jpm::spec::SpecError("$.roster: scenario has no policies");
  }
  if (name.empty()) return sc.roster.front();
  for (const auto& p : sc.roster) {
    if (p.name == name) return p;
  }
  std::string names;
  for (const auto& p : sc.roster) {
    names += names.empty() ? p.name : ", " + p.name;
  }
  throw jpm::spec::SpecError("$.roster: no policy named \"" + name +
                             "\" (available: " + names + ")");
}

// Live-source geometry of the scenario's first workload point, matching
// what a synthesized trace of the same point would declare (the file set
// alone fixes it: no popularity solve).
jpm::sim::LiveSource live_source(const jpm::spec::Scenario& sc) {
  if (sc.workloads.empty()) {
    throw jpm::spec::SpecError("$.workloads: scenario has no workload points");
  }
  const auto& w = sc.workloads.front().workload;
  jpm::sim::LiveSource source;
  source.page_bytes = w.page_bytes;
  source.total_pages = jpm::workload::total_pages(w);
  source.duration_hint_s = w.duration_s;
  return source;
}

jpm::util::json::Value stats_json(const jpm::stream::StreamStats& s,
                                  std::uint64_t ring_capacity) {
  jpm::util::json::Object o;
  o["ring_capacity"] = jpm::util::json::Value{ring_capacity};
  o["events_offered"] = jpm::util::json::Value{s.events_offered};
  o["events_accepted"] = jpm::util::json::Value{s.events_accepted};
  o["events_processed"] = jpm::util::json::Value{s.events_processed};
  o["shed_reads"] = jpm::util::json::Value{s.shed_reads};
  o["shed_writes"] = jpm::util::json::Value{s.shed_writes};
  o["block_waits"] = jpm::util::json::Value{s.block_waits};
  o["block_timeouts"] = jpm::util::json::Value{s.block_timeouts};
  o["blocked_s"] = jpm::util::json::Value{s.blocked_s};
  o["degrade_engagements"] = jpm::util::json::Value{s.degrade_engagements};
  o["watchdog_closes"] = jpm::util::json::Value{s.watchdog_closes};
  o["clamped_timestamps"] = jpm::util::json::Value{s.clamped_timestamps};
  o["max_occupancy"] = jpm::util::json::Value{s.max_occupancy};
  return jpm::util::json::Value{std::move(o)};
}

jpm::util::json::Value metrics_json(const jpm::sim::RunMetrics& m) {
  std::uint64_t shed_events = 0;
  std::uint64_t degraded_periods = 0;
  for (const auto& p : m.periods) {
    shed_events += p.shed_events;
    if (p.degraded) ++degraded_periods;
  }
  jpm::util::json::Object o;
  o["duration_s"] = jpm::util::json::Value{m.duration_s};
  o["total_j"] = jpm::util::json::Value{m.total_j()};
  o["memory_j"] = jpm::util::json::Value{m.mem_energy.total_j()};
  o["disk_j"] = jpm::util::json::Value{m.disk_energy.total_j()};
  o["cache_accesses"] = jpm::util::json::Value{m.cache_accesses};
  o["disk_accesses"] = jpm::util::json::Value{m.disk_accesses};
  o["hit_pct"] = jpm::util::json::Value{m.hit_ratio() * 100.0};
  o["mean_latency_ms"] = jpm::util::json::Value{m.mean_latency_s() * 1e3};
  o["disk_shutdowns"] = jpm::util::json::Value{m.disk_shutdowns};
  o["spin_ups"] = jpm::util::json::Value{m.spin_ups};
  o["periods"] =
      jpm::util::json::Value{static_cast<std::uint64_t>(m.periods.size())};
  o["degraded_periods"] = jpm::util::json::Value{degraded_periods};
  o["shed_events"] = jpm::util::json::Value{shed_events};
  o["manager_fallbacks"] =
      jpm::util::json::Value{m.reliability.manager_fallbacks};
  o["forced_fallbacks"] =
      jpm::util::json::Value{m.reliability.forced_fallbacks};
  return jpm::util::json::Value{std::move(o)};
}

int cmd_serve(const std::vector<std::string>& args) {
  std::string file;
  std::string policy_name;
  std::string telemetry_base;
  jpm::stream::WireFormat format = jpm::stream::WireFormat::kAuto;
  for (const auto& a : args) {
    if (a.rfind("--policy=", 0) == 0) {
      policy_name = a.substr(std::strlen("--policy="));
    } else if (a.rfind("--format=", 0) == 0) {
      const std::string f = a.substr(std::strlen("--format="));
      if (!jpm::stream::wire_format_from_name(f, &format)) {
        std::cerr << "jpm serve: unknown format \"" << f
                  << "\" (expected auto, jsonl, or binary)\n";
        return 2;
      }
    } else if (a.rfind("--telemetry=", 0) == 0) {
      telemetry_base = a.substr(std::strlen("--telemetry="));
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "jpm serve: unknown option " << a << "\n";
      return 2;
    } else if (file.empty()) {
      file = a;
    } else {
      std::cerr << "jpm serve: expected one scenario file\n";
      return 2;
    }
  }
  if (file.empty()) {
    std::cerr << "jpm serve: missing scenario file\n";
    return 2;
  }

  const auto sc = jpm::spec::load_scenario_file(file);
  jpm::spec::validate_scenario(sc);
  const jpm::sim::PolicySpec& policy = pick_policy(sc, policy_name);
  const jpm::stream::StreamConfig stream_config =
      sc.stream.value_or(jpm::stream::StreamConfig{});
  try {
    jpm::stream::validate(stream_config);
  } catch (const std::invalid_argument& e) {
    throw jpm::spec::SpecError(file + ": $.stream: " + std::string(e.what()));
  }

  jpm::telemetry::RunRecorder* rec = nullptr;
  if (!telemetry_base.empty()) {
    jpm::telemetry::start();
    jpm::spec::publish_provenance(sc);
    rec = jpm::telemetry::begin_run(sc.name + "/" + policy.name);
  }

  jpm::stream::StreamEngine engine(live_source(sc), policy, sc.engine,
                                   stream_config);
  std::cerr << "jpm serve: scenario=" << sc.name << " policy=" << policy.name
            << " overload="
            << jpm::stream::overload_policy_name(stream_config.overload)
            << " ring=" << stream_config.ring_capacity << "\n";

  std::signal(SIGINT, on_sigint);

  // Consumer thread: pump the ring into the engine until EOF drains it,
  // then close the run. Telemetry binds here (single-writer recorder). An
  // engine error (e.g. an event page outside the data set) stops the
  // producer and is rethrown once the consumer has joined.
  jpm::sim::RunMetrics metrics;
  std::exception_ptr consumer_error;
  std::atomic<bool> consumer_failed{false};
  std::thread consumer([&] {
    try {
      jpm::telemetry::ScopedRun scope(rec);
      engine.run_until_closed();
      metrics = engine.finish();
    } catch (...) {
      consumer_error = std::current_exception();
      consumer_failed = true;
    }
  });

  // Producer: this thread decodes stdin and offers into the ring.
  jpm::stream::EventReader reader(std::cin, format);
  std::string decode_error;
  jpm::stream::StreamEvent event;
  while (!consumer_failed) {
    const auto status = reader.next(&event);
    if (status == jpm::stream::EventReader::Status::kEndOfStream) break;
    if (status == jpm::stream::EventReader::Status::kError) {
      // SIGINT closes stdin out from under the reader; a record truncated
      // by that close is shutdown, not corrupt input.
      if (g_interrupted) break;
      decode_error = "<stdin>: " + reader.error();
      break;
    }
    engine.offer(event);
  }
  engine.close();
  consumer.join();
  if (consumer_error) std::rethrow_exception(consumer_error);

  const bool interrupted = g_interrupted != 0;
  const jpm::stream::StreamStats stats = engine.stats();

  jpm::util::json::Object report;
  report["version"] = jpm::util::json::Value{1};
  report["kind"] = jpm::util::json::Value{"serve_report"};
  report["scenario"] = jpm::util::json::Value{sc.name};
  report["scenario_hash"] = jpm::util::json::Value{jpm::spec::scenario_hash(sc)};
  report["policy"] = jpm::util::json::Value{policy.name};
  report["overload_policy"] = jpm::util::json::Value{
      jpm::stream::overload_policy_name(stream_config.overload)};
  report["wire_format"] =
      jpm::util::json::Value{jpm::stream::wire_format_name(reader.format())};
  report["interrupted"] = jpm::util::json::Value{interrupted};
  report["decode_error"] = jpm::util::json::Value{decode_error};
  report["stream"] = stats_json(stats, stream_config.ring_capacity);
  report["metrics"] = metrics_json(metrics);
  std::cout << jpm::util::json::dump(
                   jpm::util::json::Value{std::move(report)}, 2)
            << "\n";

  if (!telemetry_base.empty()) {
    std::string error;
    if (!jpm::telemetry::export_files(telemetry_base, &error)) {
      std::cerr << "jpm serve: telemetry export failed: " << error << "\n";
      jpm::telemetry::stop();
      return 1;
    }
    jpm::telemetry::stop();
  }
  if (!decode_error.empty()) {
    std::cerr << "error: " << decode_error << "\n";
    return 1;
  }
  return 0;
}

int cmd_synth(const std::vector<std::string>& args) {
  std::string file;
  std::uint64_t count = 0;  // 0 = the whole workload
  jpm::stream::WireFormat format = jpm::stream::WireFormat::kJsonl;
  for (const auto& a : args) {
    if (a.rfind("--format=", 0) == 0) {
      const std::string f = a.substr(std::strlen("--format="));
      if (!jpm::stream::wire_format_from_name(f, &format) ||
          format == jpm::stream::WireFormat::kAuto) {
        std::cerr << "jpm synth: unknown format \"" << f
                  << "\" (expected jsonl or binary)\n";
        return 2;
      }
    } else if (a.rfind("--count=", 0) == 0) {
      try {
        count = std::stoull(a.substr(std::strlen("--count=")));
      } catch (const std::exception&) {
        std::cerr << "jpm synth: bad --count value\n";
        return 2;
      }
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "jpm synth: unknown option " << a << "\n";
      return 2;
    } else if (file.empty()) {
      file = a;
    } else {
      std::cerr << "jpm synth: expected one scenario file\n";
      return 2;
    }
  }
  if (file.empty()) {
    std::cerr << "jpm synth: missing scenario file\n";
    return 2;
  }

  const auto sc = jpm::spec::load_for_run(file);
  if (sc.workloads.empty()) {
    throw jpm::spec::SpecError(file +
                               ": $.workloads: scenario has no workload points");
  }
  // A consumer that exits early closes the pipe; take the write failure as
  // end of stream instead of dying on SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  jpm::workload::TraceGenerator gen(sc.workloads.front().workload);
  std::uint64_t emitted = 0;
  while (auto e = gen.next()) {
    jpm::stream::StreamEvent event;
    event.time_s = e->time_s;
    event.page = e->page;
    event.flags = static_cast<std::uint8_t>(
        (e->request_start ? jpm::workload::kTraceFlagStart : 0) |
        (e->is_write ? jpm::workload::kTraceFlagWrite : 0));
    jpm::stream::write_event(std::cout, event, format);
    if (!std::cout) {
      // Downstream pipe closed (consumer exited): a clean end of stream.
      break;
    }
    if (count != 0 && ++emitted >= count) break;
  }
  return 0;
}

// ---- trace (the JPMC chunked trace store) ----------------------------------

bool parse_u64_flag(const std::string& arg, const char* prefix,
                    std::uint64_t* out) {
  try {
    *out = std::stoull(arg.substr(std::strlen(prefix)));
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

int cmd_trace_synth(const std::vector<std::string>& args) {
  std::string scenario_file;
  std::string out_file;
  std::uint64_t point = 0;
  jpm::tracefile::WriterOptions options;
  for (const auto& a : args) {
    if (a.rfind("--point=", 0) == 0) {
      if (!parse_u64_flag(a, "--point=", &point)) {
        std::cerr << "jpm trace synth: bad --point value\n";
        return 2;
      }
    } else if (a.rfind("--chunk-events=", 0) == 0) {
      std::uint64_t n = 0;
      if (!parse_u64_flag(a, "--chunk-events=", &n) || n == 0) {
        std::cerr << "jpm trace synth: bad --chunk-events value\n";
        return 2;
      }
      options.chunk_events = n;
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "jpm trace synth: unknown option " << a << "\n";
      return 2;
    } else if (scenario_file.empty()) {
      scenario_file = a;
    } else if (out_file.empty()) {
      out_file = a;
    } else {
      std::cerr << "jpm trace synth: expected <scenario.json> <out.jpmc>\n";
      return 2;
    }
  }
  if (scenario_file.empty() || out_file.empty()) {
    std::cerr << "jpm trace synth: expected <scenario.json> <out.jpmc>\n";
    return 2;
  }
  // load_for_run applies fast mode, so a file synthesized under
  // JPM_BENCH_FAST=1 matches what `jpm run` would synthesize in-memory under
  // the same environment — the byte-identical replay contract.
  const auto sc = jpm::spec::load_for_run(scenario_file);
  if (point >= sc.workloads.size()) {
    std::cerr << "jpm trace synth: --point=" << point << " out of range ("
              << sc.workloads.size() << " workload points)\n";
    return 2;
  }
  const auto& wp = sc.workloads[point];
  const auto header = jpm::tracefile::synthesize_to_file(
      out_file, wp.workload, options);
  std::cerr << "jpm trace synth: " << out_file << " [" << wp.label << "] "
            << header.event_count << " events, " << header.chunk_count
            << " chunks, hash " << jpm::util::hex16(header.content_hash)
            << "\n";
  return 0;
}

int cmd_trace_pack(const std::vector<std::string>& args) {
  std::string in_file;
  std::string out_file;
  std::uint64_t page_bytes = 0;
  std::uint64_t total_pages = 0;
  double duration_s = 0.0;
  jpm::tracefile::WriterOptions options;
  for (const auto& a : args) {
    if (a.rfind("--page-bytes=", 0) == 0) {
      if (!parse_u64_flag(a, "--page-bytes=", &page_bytes)) {
        std::cerr << "jpm trace pack: bad --page-bytes value\n";
        return 2;
      }
    } else if (a.rfind("--total-pages=", 0) == 0) {
      if (!parse_u64_flag(a, "--total-pages=", &total_pages)) {
        std::cerr << "jpm trace pack: bad --total-pages value\n";
        return 2;
      }
    } else if (a.rfind("--duration=", 0) == 0) {
      try {
        duration_s = std::stod(a.substr(std::strlen("--duration=")));
      } catch (const std::exception&) {
        std::cerr << "jpm trace pack: bad --duration value\n";
        return 2;
      }
    } else if (a.rfind("--chunk-events=", 0) == 0) {
      std::uint64_t n = 0;
      if (!parse_u64_flag(a, "--chunk-events=", &n) || n == 0) {
        std::cerr << "jpm trace pack: bad --chunk-events value\n";
        return 2;
      }
      options.chunk_events = n;
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "jpm trace pack: unknown option " << a << "\n";
      return 2;
    } else if (in_file.empty()) {
      in_file = a;
    } else if (out_file.empty()) {
      out_file = a;
    } else {
      std::cerr << "jpm trace pack: expected <in> <out.jpmc>\n";
      return 2;
    }
  }
  if (in_file.empty() || out_file.empty()) {
    std::cerr << "jpm trace pack: expected <in> <out.jpmc>\n";
    return 2;
  }
  jpm::workload::Trace trace = jpm::tracefile::load_any_trace(in_file);
  // CSV carries no geometry: default the page size, derive the
  // data-set size and duration from the events (the run_simulation rules
  // for a trace), unless flags pin them down.
  if (page_bytes != 0) trace.page_bytes = page_bytes;
  if (trace.page_bytes == 0) trace.page_bytes = 256 * jpm::kKiB;
  if (total_pages != 0) trace.total_pages = total_pages;
  if (trace.total_pages == 0) {
    for (const auto page : trace.pages) {
      trace.total_pages = std::max(trace.total_pages, page + 1);
    }
  }
  if (duration_s != 0.0) trace.duration_s = duration_s;
  if (trace.duration_s == 0.0 && !trace.empty()) {
    trace.duration_s = trace.times.back();
  }
  const auto header =
      jpm::tracefile::write_trace_file(out_file, trace, options);
  std::cerr << "jpm trace pack: " << out_file << " " << header.event_count
            << " events, " << header.chunk_count << " chunks, hash "
            << jpm::util::hex16(header.content_hash) << "\n";
  return 0;
}

int cmd_trace_info(const std::vector<std::string>& args) {
  std::string file;
  bool list_chunks = false;
  bool verify = false;
  for (const auto& a : args) {
    if (a == "--chunks") {
      list_chunks = true;
    } else if (a == "--verify") {
      verify = true;
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "jpm trace info: unknown option " << a << "\n";
      return 2;
    } else if (file.empty()) {
      file = a;
    } else {
      std::cerr << "jpm trace info: expected one trace file\n";
      return 2;
    }
  }
  if (file.empty()) {
    std::cerr << "jpm trace info: missing trace file\n";
    return 2;
  }
  const jpm::tracefile::TraceReader reader(file);
  const auto& h = reader.header();
  std::cout << "file:         " << file << "\n"
            << "format:       JPMC v" << h.version << "\n"
            << "events:       " << h.event_count << "\n"
            << "chunks:       " << h.chunk_count << "\n"
            << "page_bytes:   " << h.page_bytes << "\n"
            << "total_pages:  " << h.total_pages << "\n"
            << "duration_s:   " << h.duration_s << "\n"
            << "content_hash: " << jpm::util::hex16(h.content_hash) << "\n";
  if (list_chunks) {
    std::cout << "chunk  events      bytes  t_first       t_last\n";
    for (std::size_t i = 0; i < reader.chunks().size(); ++i) {
      const auto& c = reader.chunks()[i];
      std::cout << i << "  " << c.event_count << "  " << c.encoded_bytes
                << "  " << c.t_first << "  " << c.t_last << "\n";
    }
  }
  if (verify) {
    reader.verify_content_hash();
    std::cout << "verify:       ok (" << h.chunk_count
              << " chunks decoded, content hash matches)\n";
  }
  return 0;
}

int cmd_trace_cat(const std::vector<std::string>& args) {
  std::string file;
  std::string format = "csv";
  std::uint64_t limit = 0;  // 0 = everything
  for (const auto& a : args) {
    if (a.rfind("--format=", 0) == 0) {
      format = a.substr(std::strlen("--format="));
      if (format != "csv" && format != "jsonl") {
        std::cerr << "jpm trace cat: unknown format \"" << format
                  << "\" (expected csv or jsonl)\n";
        return 2;
      }
    } else if (a.rfind("--limit=", 0) == 0) {
      if (!parse_u64_flag(a, "--limit=", &limit)) {
        std::cerr << "jpm trace cat: bad --limit value\n";
        return 2;
      }
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "jpm trace cat: unknown option " << a << "\n";
      return 2;
    } else if (file.empty()) {
      file = a;
    } else {
      std::cerr << "jpm trace cat: expected one trace file\n";
      return 2;
    }
  }
  if (file.empty()) {
    std::cerr << "jpm trace cat: missing trace file\n";
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);  // a consumer exiting early is end of stream
  const jpm::tracefile::TraceReader reader(file);
  const bool csv = format == "csv";
  if (csv) {
    std::cout << "time_s,page,request_start,is_write\n";
    std::cout.precision(9);
  }
  jpm::tracefile::ChunkBuffer buf;
  std::uint64_t emitted = 0;
  for (std::size_t i = 0; i < reader.chunks().size() && std::cout; ++i) {
    reader.decode_chunk(i, buf);
    for (std::size_t k = 0; k < buf.size() && std::cout; ++k) {
      const bool start =
          (buf.flags[k] & jpm::workload::kTraceFlagStart) != 0;
      const bool write =
          (buf.flags[k] & jpm::workload::kTraceFlagWrite) != 0;
      if (csv) {
        std::cout << std::fixed << buf.times[k] << ',' << buf.pages[k] << ','
                  << (start ? 1 : 0) << ',' << (write ? 1 : 0) << '\n';
      } else {
        jpm::util::json::Object obj;
        obj["t"] = jpm::util::json::Value{buf.times[k]};
        obj["page"] = jpm::util::json::Value{buf.pages[k]};
        if (start) obj["start"] = jpm::util::json::Value{true};
        if (write) obj["write"] = jpm::util::json::Value{true};
        std::cout << jpm::util::json::dump(
                         jpm::util::json::Value{std::move(obj)})
                  << '\n';
      }
      if (limit != 0 && ++emitted >= limit) return 0;
    }
  }
  return 0;
}

int cmd_trace(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cerr << "jpm trace: expected a subcommand "
                 "(synth, pack, info, cat)\n";
    return 2;
  }
  const std::string sub = args.front();
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (sub == "synth") return cmd_trace_synth(rest);
  if (sub == "pack") return cmd_trace_pack(rest);
  if (sub == "info") return cmd_trace_info(rest);
  if (sub == "cat") return cmd_trace_cat(rest);
  std::cerr << "jpm trace: unknown subcommand \"" << sub
            << "\" (expected synth, pack, info, or cat)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr, 2);
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "run") return cmd_run(args);
    if (command == "validate") return cmd_validate(args);
    if (command == "print") return cmd_print(args);
    if (command == "hash") return cmd_hash(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "synth") return cmd_synth(args);
    if (command == "trace") return cmd_trace(args);
    if (command == "help" || command == "--help" || command == "-h") {
      return usage(std::cout, 0);
    }
  } catch (const jpm::spec::SpecError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    // No exception escapes as a crash: anything unexpected (engine checks,
    // bad_alloc, ...) still exits with a named error and a nonzero status.
    std::cerr << "error: " << command << ": " << e.what() << "\n";
    return 1;
  }
  std::cerr << "jpm: unknown command \"" << command << "\"\n";
  return usage(std::cerr, 2);
}
