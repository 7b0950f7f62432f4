// The named power-management methods compared in the paper (Section V-A).
//
// Each method pairs a disk policy with a memory policy:
//   disk:   2T (2-competitive timeout = break-even time)
//           AD (Douglis adaptive timeout)
//           always-on, or joint (dynamic, set every period)
//   memory: FM-x (fixed size x), PD (timeout power-down, 128 GB),
//           DS (timeout disable, 128 GB), always-on (all nap), or joint.
// paper_policies() returns the paper's full 16-method roster: Joint,
// 2TFM/ADFM at 8/16/32/64/128 GB, 2TPD/ADPD, 2TDS/ADDS, and Always-on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "jpm/util/units.h"

namespace jpm::sim {

enum class DiskPolicyKind {
  kTwoCompetitive,
  kAdaptive,
  kPredictive,  // session-predictive EWMA policy (see PredictiveTimeout)
  kAlwaysOn,
  kJoint,
};
enum class MemPolicyKind { kFixed, kPowerDown, kDisable, kNapAll, kJoint };

struct PolicySpec {
  std::string name;
  DiskPolicyKind disk = DiskPolicyKind::kAlwaysOn;
  MemPolicyKind mem = MemPolicyKind::kNapAll;
  std::uint64_t fixed_bytes = 0;  // capacity for kFixed; others use physical
  // Use the DRPM-style multi-speed disk instead of the spin-down disk; the
  // disk timeout policy is then inert (speed control is internal).
  bool multi_speed = false;

  // The two halves of the joint method. They are only meaningful together
  // (the manager sets the memory size AND the disk timeout each period), so
  // the engine requires joint_disk() == joint_memory(); querying them
  // separately exists so that mismatch can be detected rather than one half
  // silently running without the manager.
  bool joint_disk() const { return disk == DiskPolicyKind::kJoint; }
  bool joint_memory() const { return mem == MemPolicyKind::kJoint; }
  bool is_joint() const { return joint_disk() && joint_memory(); }
  // The always-on entry a sweep normalizes energy against; a sweep's roster
  // needs exactly one.
  bool is_baseline() const {
    return disk == DiskPolicyKind::kAlwaysOn && !multi_speed;
  }
};

PolicySpec joint_policy();
PolicySpec always_on_policy();
PolicySpec fixed_policy(DiskPolicyKind disk, std::uint64_t bytes);
PolicySpec powerdown_policy(DiskPolicyKind disk, std::uint64_t physical_bytes);
PolicySpec disable_policy(DiskPolicyKind disk, std::uint64_t physical_bytes);
// Multi-speed (DRPM) disk with a fixed memory size, or with joint memory
// resizing (the joint manager still resizes memory; its timeout is inert).
PolicySpec drpm_fixed_policy(std::uint64_t bytes);
PolicySpec drpm_joint_policy();

// The paper's 16 methods. `fm_gib` are the fixed-memory sizes in GiB.
std::vector<PolicySpec> paper_policies(
    std::uint64_t physical_bytes = 128 * kGiB,
    const std::vector<std::uint64_t>& fm_gib = {8, 16, 32, 64, 128});

}  // namespace jpm::sim
