// Workload models shared across the jobs of one sweep.
//
// Sweep points that differ only in knobs outside the WorkloadKey (rate,
// duration, page size, ...) draw from the same file set and popularity
// distribution, so their generators can share one WorkloadModel instead of
// each solving the popularity exponent again. SharedModels groups a sweep's
// jobs by key and hands each key's model out on demand, with a bounded
// lifetime:
//   * order() lists the jobs model-major — every job of the first key, then
//     every job of the next — so a fan-out that runs jobs in that order
//     keeps only the models of its in-flight jobs alive;
//   * the first acquire() of a key builds its model, and the key's other
//     jobs wait for that build instead of repeating it;
//   * the key's last acquire() takes the slot's reference with it, so the
//     model is freed once the last job using it lets go.
// A build fails the way building a generator for the acquiring job's config
// would (build_model validates it first) and leaves its slot empty, so a
// waiting job retries rather than blocks.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "jpm/workload/synthesizer.h"

namespace jpm::workload {

class SharedModels {
 public:
  using Builder = std::function<std::shared_ptr<const WorkloadModel>(
      const SynthesizerConfig&)>;

  // jobs[k] is the config job k synthesizes from.
  explicit SharedModels(std::vector<SynthesizerConfig> jobs,
                        Builder build = build_model);

  std::size_t model_count() const { return slots_.size(); }
  // Every job index once, model-major: keys in order of their first job,
  // each key's jobs in index order.
  const std::vector<std::size_t>& order() const { return order_; }

  // Job `job`'s model, built on the key's first call. Thread-safe; call it
  // once per job.
  std::shared_ptr<const WorkloadModel> acquire(std::size_t job);

 private:
  struct Slot {
    std::mutex mu;
    std::shared_ptr<const WorkloadModel> model;
    std::size_t unacquired = 0;  // jobs of this key yet to acquire
  };

  std::vector<SynthesizerConfig> jobs_;
  Builder build_;
  std::vector<std::size_t> slot_of_;  // by job
  std::vector<std::size_t> order_;
  std::deque<Slot> slots_;  // a deque: Slot's mutex cannot move
};

}  // namespace jpm::workload
