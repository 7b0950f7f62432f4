#include "jpm/sim/policies.h"

#include <algorithm>
#include <sstream>

#include "jpm/util/check.h"

namespace jpm::sim {
namespace {

std::string disk_prefix(DiskPolicyKind disk) {
  switch (disk) {
    case DiskPolicyKind::kTwoCompetitive:
      return "2T";
    case DiskPolicyKind::kAdaptive:
      return "AD";
    case DiskPolicyKind::kPredictive:
      return "PR";
    default:
      JPM_CHECK_MSG(false, "combined methods use 2T, AD, or PR disk policies");
      return {};
  }
}

std::string gb_suffix(std::uint64_t bytes) {
  std::ostringstream os;
  os << bytes / kGiB << "GB";
  return os.str();
}

}  // namespace

PolicySpec joint_policy() {
  return PolicySpec{"Joint", DiskPolicyKind::kJoint, MemPolicyKind::kJoint, 0};
}

PolicySpec always_on_policy() {
  return PolicySpec{"Always-on", DiskPolicyKind::kAlwaysOn,
                    MemPolicyKind::kNapAll, 0};
}

PolicySpec fixed_policy(DiskPolicyKind disk, std::uint64_t bytes) {
  JPM_CHECK(bytes > 0);
  return PolicySpec{disk_prefix(disk) + "FM-" + gb_suffix(bytes), disk,
                    MemPolicyKind::kFixed, bytes};
}

PolicySpec powerdown_policy(DiskPolicyKind disk,
                            std::uint64_t physical_bytes) {
  return PolicySpec{disk_prefix(disk) + "PD-" + gb_suffix(physical_bytes),
                    disk, MemPolicyKind::kPowerDown, 0};
}

PolicySpec disable_policy(DiskPolicyKind disk, std::uint64_t physical_bytes) {
  return PolicySpec{disk_prefix(disk) + "DS-" + gb_suffix(physical_bytes),
                    disk, MemPolicyKind::kDisable, 0};
}

PolicySpec drpm_fixed_policy(std::uint64_t bytes) {
  JPM_CHECK(bytes > 0);
  PolicySpec s{"DRPM-FM-" + gb_suffix(bytes), DiskPolicyKind::kAlwaysOn,
               MemPolicyKind::kFixed, bytes};
  s.multi_speed = true;
  return s;
}

PolicySpec drpm_joint_policy() {
  PolicySpec s{"DRPM-Joint", DiskPolicyKind::kJoint, MemPolicyKind::kJoint, 0};
  s.multi_speed = true;
  return s;
}

std::vector<PolicySpec> paper_policies(
    std::uint64_t physical_bytes, const std::vector<std::uint64_t>& fm_gib) {
  std::vector<PolicySpec> specs;
  specs.push_back(joint_policy());
  for (auto disk :
       {DiskPolicyKind::kTwoCompetitive, DiskPolicyKind::kAdaptive}) {
    for (std::uint64_t g : fm_gib) specs.push_back(fixed_policy(disk, gib(g)));
    specs.push_back(powerdown_policy(disk, physical_bytes));
    specs.push_back(disable_policy(disk, physical_bytes));
  }
  specs.push_back(always_on_policy());
  return specs;
}

bool same_trajectory(const PolicySpec& a, const PolicySpec& b,
                     std::uint64_t physical_bytes) {
  const auto closed_loop = [](const PolicySpec& p) {
    return p.joint_disk() || p.joint_memory();
  };
  const auto capacity = [&](const PolicySpec& p) {
    return p.mem == MemPolicyKind::kFixed ? p.fixed_bytes : physical_bytes;
  };
  const auto invalidates = [](const PolicySpec& p) {
    return p.mem == MemPolicyKind::kDisable;
  };
  return !closed_loop(a) && !closed_loop(b) && capacity(a) == capacity(b) &&
         invalidates(a) == invalidates(b);
}

std::vector<std::vector<std::size_t>> trajectory_groups(
    const std::vector<PolicySpec>& roster, std::uint64_t physical_bytes) {
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t j = 0; j < roster.size(); ++j) {
    auto it = std::find_if(groups.begin(), groups.end(), [&](const auto& g) {
      return same_trajectory(roster[g.front()], roster[j], physical_bytes);
    });
    if (it == groups.end()) {
      groups.push_back({j});
    } else {
      it->push_back(j);
    }
  }
  return groups;
}

}  // namespace jpm::sim
