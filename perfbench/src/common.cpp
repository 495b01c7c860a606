#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

namespace perfbench {

void Outcome::ledger_f64(const std::string& key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  ledger.emplace_back(key, buf);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0) return v[lo];
  if (std::isinf(v[hi])) return v[hi];  // a failed op misses every limit
  return v[lo] + frac * (v[hi] - v[lo]);
}

u64 mix_seed(u64 seed, u64 salt) {
  u64 z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

Usage usage_of(int who) {
  rusage ru{};
  getrusage(who, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6;
  u.involuntary_cs = ru.ru_nivcsw;
  u.voluntary_cs = ru.ru_nvcsw;
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

}  // namespace

Usage usage_self() { return usage_of(RUSAGE_SELF); }
Usage usage_children() { return usage_of(RUSAGE_CHILDREN); }

double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  unsigned long long f[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0.0;
  for (auto& v : f) in >> v;  // user nice system idle iowait irq softirq steal
  return static_cast<double>(f[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

}  // namespace perfbench
