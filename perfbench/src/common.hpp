// Shared vocabulary of the nmdt benchmark program: run options, the
// result record every workload fills, small statistics helpers and the
// per-process resource witness.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace perfbench {

using nmdt::i64;
using nmdt::u32;
using nmdt::u64;
using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Fixed thread budget T of every workload (pool threads, kernel
  /// shard threads, isolated workers; serve_open: T - 1 server workers
  /// plus the arrival generator).
  int threads = 4;
  /// serve_open open-loop arrival rate, requests per second.
  double serve_rate = 50.0;
  /// Print only the deterministic work ledger (no timing phases).
  bool ledger_only = false;
  /// Directory the traced run writes its span file into.
  std::string trace_dir = ".bench_build/traces";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  `ledger` holds the deterministic
/// work counts (modelled ns, simulator and engine counts) as ordered
/// key/value text; it must repeat exactly for one seed at any thread
/// count.
struct Outcome {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> errors;  ///< first few output-check failures
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> ledger;

  bool correct() const { return failed == 0 && errors.empty(); }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record an output-check failure (kept to the first few messages).
  void fail(const std::string& what) {
    if (errors.size() < 8) errors.push_back(what);
  }
  void ledger_u64(const std::string& key, u64 v) { ledger.emplace_back(key, std::to_string(v)); }
  void ledger_i64(const std::string& key, i64 v) { ledger.emplace_back(key, std::to_string(v)); }
  /// Doubles go into the ledger as exact hex-float text.
  void ledger_f64(const std::string& key, double v);
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// SplitMix64 of (seed, salt): derives independent input seeds from
/// the one --seed argument.
u64 mix_seed(u64 seed, u64 salt);

/// getrusage snapshot of this process or of its reaped children.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  i64 involuntary_cs = 0;
  i64 voluntary_cs = 0;
  double max_rss_mb = 0.0;
  double cpu_s() const { return user_s + sys_s; }
};
Usage usage_self();
Usage usage_children();

/// CPU time the hypervisor gave to other guests while this guest's
/// vCPUs wanted to run (the "steal" column of /proc/stat), summed over
/// all vCPUs, in seconds; 0 where the kernel does not report it.
double host_steal_s();

/// Time one call of `fn` on the calling thread, in seconds.
template <class F>
double time_s(F&& fn) {
  const auto t0 = Clock::now();
  fn();
  return ms_since(t0) / 1e3;
}

}  // namespace perfbench
