// Host diagnostics printed next to every run: how much CPU the
// hypervisor stole, how busy this process kept its CPUs, and how long
// a fixed reference loop took before and after the run. They explain a
// noisy run; no metric is ever normalized by them.

#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <cstdint>

namespace perfbench {

struct CpuSample {
  uint64_t steal_jiffies = 0;  // aggregate "cpu" line of /proc/stat
  uint64_t total_jiffies = 0;
  double process_cpu_s = 0;    // user + system time of this process
  double wall_s = 0;           // steady clock
};

CpuSample SampleCpu();

// Share of all CPU time the hypervisor stole between two samples.
double StealShare(const CpuSample& before, const CpuSample& after);

// Process CPU seconds per wall second between two samples.
double CpuPerWall(const CpuSample& before, const CpuSample& after);

// Seconds taken by a fixed integer-and-memory loop (~0.1 s here).
double ReferenceLoopSeconds();

// VmHWM of this process in MiB (0 if /proc is unreadable).
double PeakRssMiB();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
