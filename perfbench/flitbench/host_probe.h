#pragma once

// Host speed, and CPU placement for the serial phases of a run.  The
// reference host is a shared VM whose vCPUs are hyperthreads: each runs
// at one of two speeds, 1.4-1.8x apart, depending on whether another
// tenant keeps its sibling busy, and switches on its own every second or
// so; on top of that the whole host's clock moves by up to a third
// between minutes (see perfbench/README.md, Noise).  The benchmark times
// a fixed integer kernel -- part of the benchmark, never of the program
// under test -- on every vCPU it may use, pins each serial phase to the
// fastest, and restates the phase's wall time at the speed under which
// the kernel takes kReferenceKernelS.

#include <sched.h>

#include <vector>

namespace flitbench {

/// Seconds the kernel takes on an uncontended vCPU of the reference
/// host (Xeon, KVM, 4 vCPUs): the median over the serial phases of a
/// quiet run.  It sets the unit of the restated times only.
inline constexpr double kReferenceKernelS = 0.0030;

class CpuPlacement {
 public:
  /// Records the CPUs this thread may run on.  Placement is best
  /// effort: where affinity cannot be read or set, the kernel is timed
  /// where the scheduler runs the thread, and phases run there too.
  CpuPlacement();
  /// Lets the calling thread run on every allowed CPU again.
  ~CpuPlacement();
  CpuPlacement(const CpuPlacement&) = delete;
  CpuPlacement& operator=(const CpuPlacement&) = delete;

  /// Times the kernel on every allowed CPU and pins the calling thread,
  /// and so every thread it starts from now on, to the fastest; returns
  /// the kernel's seconds there.
  double pin_fastest();
  /// Times the kernel once where the calling thread may run (on the
  /// pinned CPU after pin_fastest()).
  [[nodiscard]] double sample() const;
  /// Times the kernel on every allowed CPU, lets the calling thread run
  /// on all of them again, and returns the mean seconds.
  double sample_all();

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;

  /// Kernel seconds on each allowed CPU, in cpus_ order; leaves the
  /// calling thread pinned to the last one.
  std::vector<double> time_each();
};

}  // namespace flitbench
