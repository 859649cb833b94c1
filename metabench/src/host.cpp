#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace metabench {

namespace {
double toSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

ProcUsage ProcUsage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.userS = toSeconds(ru.ru_utime);
  u.sysS = toSeconds(ru.ru_stime);
  u.minflt = static_cast<std::uint64_t>(ru.ru_minflt);
  u.nvcsw = static_cast<std::uint64_t>(ru.ru_nvcsw);
  u.nivcsw = static_cast<std::uint64_t>(ru.ru_nivcsw);
  return u;
}

ProcUsage ProcUsage::operator-(const ProcUsage& o) const {
  ProcUsage d;
  d.userS = userS - o.userS;
  d.sysS = sysS - o.sysS;
  d.minflt = minflt - o.minflt;
  d.nvcsw = nvcsw - o.nvcsw;
  d.nivcsw = nivcsw - o.nivcsw;
  return d;
}

ProcUsage ProcUsage::operator+(const ProcUsage& o) const {
  ProcUsage s;
  s.userS = userS + o.userS;
  s.sysS = sysS + o.sysS;
  s.minflt = minflt + o.minflt;
  s.nvcsw = nvcsw + o.nvcsw;
  s.nivcsw = nivcsw + o.nivcsw;
  return s;
}

double peakRssMb() {
  std::ifstream in{"/proc/self/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

unsigned hostCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

std::string cpuModel() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace metabench
