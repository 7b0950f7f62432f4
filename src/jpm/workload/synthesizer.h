// Workload synthesizer (paper Section V-A).
//
// Produces page-granular disk-cache access traces with three independently
// controllable characteristics — exactly the knobs the paper sweeps:
//   * data-set size   (files scaled per the paper's sqrt rule),
//   * data rate       (bytes/s offered to the disk cache),
//   * popularity      (fraction of bytes receiving 90% of requests).
//
// Requests arrive as a Poisson process whose rate is slowly modulated
// (sinusoid + per-minute noise) so consecutive 10-minute periods differ the
// way Fig. 9 of the paper shows; each request reads one whole file (pages in
// on-disk order, the first flagged kTraceFlagStart).
//
// The seed-determined part of a workload — the file set, its popularity
// distribution and the mean request size — is an immutable WorkloadModel,
// keyed by (data-set size, file scale, popularity, seed). Sweep points that
// differ only in rate, duration or any other knob share the key, so one
// model (one popularity solve) can serve all of their generators.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "jpm/util/rng.h"
#include "jpm/util/units.h"
#include "jpm/workload/fileset.h"
#include "jpm/workload/popularity.h"
#include "jpm/workload/trace.h"

namespace jpm::workload {

struct SynthesizerConfig {
  std::uint64_t dataset_bytes = gib(16);
  double byte_rate = 100e6;     // offered load, bytes/s (paper: 5-200 MB/s)
  double popularity = 0.1;      // paper: 0.05-0.6
  double duration_s = 3600.0;
  std::uint64_t page_bytes = 256 * kKiB;
  double file_scale = 16.0;     // see FileSetConfig::file_scale
  // Sinusoidal rate modulation amplitude (fraction of byte_rate) and period;
  // 0 disables modulation. The amplitude stays below 1 while a period is
  // set, so the rate never reaches 0 at a trough.
  double rate_modulation = 0.2;
  double modulation_period_s = 1800.0;
  // Spacing between consecutive page accesses of one request.
  double intra_request_spacing_s = 2e-3;
  // Probability that a request repeats a recently requested file
  // (recency-biased) instead of drawing fresh from the popularity
  // distribution. Real server traces carry such short-term reuse on top of
  // static popularity; 0 disables it.
  double temporal_locality = 0.0;
  // Fraction of requests that are writes (uploads, logs): the request's
  // pages are overwritten in the cache and flushed to disk later.
  double write_fraction = 0.0;
  // Number of recent requests the locality draw can repeat from.
  std::size_t locality_window = 8192;
  std::uint64_t seed = 1;

  // Rejects unusable workload knobs (zero page_bytes/dataset/duration,
  // popularity outside (0, 1], fractions outside [0, 1], negative rates, a
  // modulation that reaches rate 0) with a descriptive
  // std::invalid_argument. TraceGenerator calls it on construction.
  void validate() const;
};

// The SynthesizerConfig fields a WorkloadModel depends on. Keys compare by
// bit pattern, so equal keys build bit-identical models.
struct WorkloadKey {
  std::uint64_t dataset_bytes = 0;
  double file_scale = 0.0;
  double popularity = 0.0;
  std::uint64_t seed = 0;

  static WorkloadKey of(const SynthesizerConfig& config);

  friend bool operator==(const WorkloadKey& a, const WorkloadKey& b);
  friend bool operator<(const WorkloadKey& a, const WorkloadKey& b);
};
std::ostream& operator<<(std::ostream& os, const WorkloadKey& key);

// The file population, its popularity distribution (the Zipf exponent
// solve, the costly part) and the popularity-weighted mean request size for
// one key. Immutable, so any number of generators may read one model
// concurrently.
class WorkloadModel {
 public:
  explicit WorkloadModel(const WorkloadKey& key);

  const WorkloadKey& key() const { return key_; }
  const FileSet& files() const { return files_; }
  const PopularityModel& popularity() const { return popularity_; }
  // Popularity-weighted expected bytes per request.
  double mean_request_bytes() const { return mean_request_bytes_; }

 private:
  WorkloadKey key_;
  FileSet files_;
  PopularityModel popularity_;
  double mean_request_bytes_ = 0.0;
};

// Validates `config` (std::invalid_argument naming the knob) and builds the
// model for its key.
std::shared_ptr<const WorkloadModel> build_model(
    const SynthesizerConfig& config);

// Total pages in the data set (linear layout). It depends on the file set
// alone, so no popularity solve runs; equals TraceGenerator::total_pages()
// for the same config.
std::uint64_t total_pages(const SynthesizerConfig& config);

class TraceGenerator {
 public:
  // Builds the config's own model (see build_model).
  explicit TraceGenerator(const SynthesizerConfig& config);
  // Draws from a shared model, which must have been built for the config's
  // key (CheckError naming both keys otherwise). The stream is bit-identical
  // to the one the config-only form produces.
  TraceGenerator(const SynthesizerConfig& config,
                 std::shared_ptr<const WorkloadModel> model);
  ~TraceGenerator();
  TraceGenerator(TraceGenerator&&) noexcept;
  TraceGenerator& operator=(TraceGenerator&&) noexcept;

  // Next event in nondecreasing time order; nullopt once duration elapsed.
  std::optional<TraceEvent> next();

  // Restarts the stream from t = 0 with the identical pseudo-random sequence
  // (keeping the model).
  void reset();

  // The file set, popularity and mean request size the stream draws from.
  const std::shared_ptr<const WorkloadModel>& model() const;
  const SynthesizerConfig& config() const;
  // Total pages in the data set (linear layout).
  std::uint64_t total_pages() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Materializes the configured workload once into an immutable Trace with all
// derived fields (total_pages, duration) filled from the generator, so the
// result can be replayed by any number of engine runs — concurrently and
// without copying — with metrics bit-identical to generator-driven runs.
// The second form draws from a shared model (see TraceGenerator).
Trace synthesize_trace(const SynthesizerConfig& config);
Trace synthesize_trace(const SynthesizerConfig& config,
                       std::shared_ptr<const WorkloadModel> model);

}  // namespace jpm::workload
