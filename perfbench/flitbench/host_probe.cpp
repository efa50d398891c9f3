#include "host_probe.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "harness.h"

namespace flitbench {

namespace {

volatile std::uint64_t g_sink = 0;

/// About 3 ms of integer operations in six short dependency chains on
/// the reference host: it needs the core's issue slots, which a busy
/// sibling hyperthread takes a share of, and touches no memory.
double kernel_s() {
  const double t0 = now_s();
  std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6;
  for (std::uint64_t i = 0; i < 2500000; ++i) {
    a += b ^ i;
    b += c * 3;
    c ^= d + i;
    d += e >> 1;
    e += f ^ a;
    f += a + 1;
  }
  g_sink = g_sink + (a + b + c + d + e + f);
  return now_s() - t0;
}

/// Best effort: where pinning is not permitted the kernel is timed, and
/// the phase run, wherever the scheduler puts the thread.
void pin(const cpu_set_t& set) { sched_setaffinity(0, sizeof set, &set); }

}  // namespace

CpuPlacement::CpuPlacement() {
  CPU_ZERO(&allowed_);
  if (sched_getaffinity(0, sizeof allowed_, &allowed_) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
}

CpuPlacement::~CpuPlacement() {
  if (!cpus_.empty()) pin(allowed_);
}

std::vector<double> CpuPlacement::time_each() {
  if (cpus_.empty()) return {kernel_s()};
  std::vector<double> out;
  for (const int cpu : cpus_) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pin(one);
    out.push_back(kernel_s());
  }
  return out;
}

double CpuPlacement::pin_fastest() {
  const std::vector<double> s = time_each();
  const auto best = static_cast<std::size_t>(
      std::min_element(s.begin(), s.end()) - s.begin());
  if (!cpus_.empty()) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[best], &one);
    pin(one);
  }
  return s[best];
}

double CpuPlacement::sample() const { return kernel_s(); }

double CpuPlacement::sample_all() {
  const std::vector<double> s = time_each();
  if (!cpus_.empty()) pin(allowed_);
  return std::accumulate(s.begin(), s.end(), 0.0) /
         static_cast<double>(s.size());
}

}  // namespace flitbench
