#include "host.h"

#include <sys/resource.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

CpuSample SampleCpu() {
  CpuSample s;
  std::ifstream stat("/proc/stat");
  std::string line;
  if (std::getline(stat, line)) {
    // cpu user nice system idle iowait irq softirq steal guest guest_nice
    std::istringstream in(line);
    std::string label;
    in >> label;
    uint64_t v = 0;
    for (int field = 0; in >> v; ++field) {
      if (field < 8) s.total_jiffies += v;  // guest time is inside user
      if (field == 7) s.steal_jiffies = v;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  s.process_cpu_s = secs(ru.ru_utime) + secs(ru.ru_stime);
  s.wall_s = std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count();
  return s;
}

double StealShare(const CpuSample& before, const CpuSample& after) {
  const uint64_t total = after.total_jiffies - before.total_jiffies;
  if (total == 0) return 0;
  return static_cast<double>(after.steal_jiffies - before.steal_jiffies) /
         static_cast<double>(total);
}

double CpuPerWall(const CpuSample& before, const CpuSample& after) {
  const double wall = after.wall_s - before.wall_s;
  return wall > 0 ? (after.process_cpu_s - before.process_cpu_s) / wall : 0;
}

namespace {
volatile uint64_t sink = 0;
}  // namespace

double ReferenceLoopSeconds() {
  // 16 MiB of 64-bit words walked with a data-dependent stride: both
  // the ALU and the memory hierarchy take part.
  std::vector<uint64_t> buf(2u << 20);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = i * 0x9e3779b97f4a7c15ULL;
  const auto start = std::chrono::steady_clock::now();
  uint64_t acc = 1;
  size_t idx = 0;
  for (int i = 0; i < 8'000'000; ++i) {
    acc = acc * 6364136223846793005ULL + buf[idx];
    idx = (idx + 1 + (acc >> 59)) & (buf.size() - 1);
    buf[idx] ^= acc;
  }
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  sink = acc;  // keeps the loop from being optimized away
  return s;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

}  // namespace perfbench
