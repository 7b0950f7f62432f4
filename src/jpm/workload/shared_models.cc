#include "jpm/workload/shared_models.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <utility>

#include "jpm/util/check.h"

namespace jpm::workload {

SharedModels::SharedModels(std::vector<SynthesizerConfig> jobs, Builder build)
    : jobs_(std::move(jobs)), build_(std::move(build)) {
  // Slots are numbered in order of their key's first job, so a stable sort
  // of the jobs by slot is the model-major order.
  std::map<WorkloadKey, std::size_t> slot_by_key;
  slot_of_.reserve(jobs_.size());
  for (const auto& job : jobs_) {
    const auto [it, added] =
        slot_by_key.try_emplace(WorkloadKey::of(job), slots_.size());
    if (added) slots_.emplace_back();
    slot_of_.push_back(it->second);
    ++slots_[it->second].unacquired;
  }
  order_.resize(jobs_.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return slot_of_[a] < slot_of_[b];
                   });
}

std::shared_ptr<const WorkloadModel> SharedModels::acquire(std::size_t job) {
  JPM_CHECK(job < slot_of_.size());
  Slot& slot = slots_[slot_of_[job]];
  const std::lock_guard<std::mutex> lock(slot.mu);
  JPM_CHECK_MSG(slot.unacquired > 0,
                "SharedModels: job " << job << " acquired its model twice");
  if (slot.model == nullptr) slot.model = build_(jobs_[job]);
  if (--slot.unacquired > 0) return slot.model;
  return std::move(slot.model);  // the key's last job: the slot lets go
}

}  // namespace jpm::workload
