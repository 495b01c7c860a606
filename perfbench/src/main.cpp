// nmdt_perfbench: one command for every benchmark workload.
//
//   nmdt_perfbench --workload <fig16_sweep|multivector|serve_open>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--threads T] [--serve-rate R] [--ledger-only]
//                  [--trace-dir DIR]
//
// Standard output, in order: a noise-witness line, a ledger line, and
// as the last line the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Exit status 1 when any output check failed, 2 on a bad
// command line.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <limits>
#include <string>

#include "obs/profiler.hpp"
#include "spans.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage(const char* why) {
  std::cerr << "nmdt_perfbench: " << why
            << "\nusage: nmdt_perfbench --workload <fig16_sweep|multivector|"
               "serve_open> --seed N --seconds S --trace 0|1 [--threads T] [--serve-rate R] "
               "[--ledger-only] [--trace-dir DIR]\n";
  return 2;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::stoull(value());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (a == "--trace") {
      opt.trace = std::stoi(value()) != 0;
    } else if (a == "--threads") {
      opt.threads = std::stoi(value());
    } else if (a == "--serve-rate") {
      opt.serve_rate = std::stod(value());
    } else if (a == "--ledger-only") {
      opt.ledger_only = true;
    } else if (a == "--trace-dir") {
      opt.trace_dir = value();
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  return !opt.workload.empty() && opt.seconds > 0.0 && opt.threads >= 1 && opt.serve_rate > 0.0;
}

std::string json_number(double v) {
  if (std::isnan(v)) return "0";
  if (std::isinf(v)) v = v > 0 ? std::numeric_limits<double>::max() : -1.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_witness(const Options& opt, double steal0_s) {
  const Usage self = usage_self();
  const Usage kids = usage_children();
  std::cout << "{\"witness\": {\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
            << ", \"threads\": " << opt.threads << ", \"user_cpu_s\": " << json_number(self.user_s)
            << ", \"sys_cpu_s\": " << json_number(self.sys_s)
            << ", \"children_user_cpu_s\": " << json_number(kids.user_s)
            << ", \"children_sys_cpu_s\": " << json_number(kids.sys_s)
            << ", \"involuntary_cs\": " << self.involuntary_cs + kids.involuntary_cs
            << ", \"voluntary_cs\": " << self.voluntary_cs + kids.voluntary_cs
            << ", \"host_steal_s\": " << json_number(host_steal_s() - steal0_s)
            << ", \"host\": " << nmdt::obs::host_info().json() << "}}\n";
}

void print_ledger(const Options& opt, const Outcome& out) {
  std::cout << "{\"ledger\": {\"workload\": \"" << opt.workload << "\", \"seed\": \""
            << opt.seed << "\"";
  for (const auto& [k, v] : out.ledger) std::cout << ", \"" << k << "\": \"" << v << "\"";
  std::cout << "}}\n";
}

void print_result(const Outcome& out) {
  std::cout << "{\"correct\": " << (out.correct() ? "true" : "false")
            << ", \"attempted\": " << std::max<u64>(out.attempted, 1)
            << ", \"failed\": " << out.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& m : out.metrics) {
    std::cout << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
              << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) return usage("missing or invalid arguments");
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  const double steal0_s = host_steal_s();
  Outcome out;
  try {
    if (opt.workload == "fig16_sweep") {
      out = run_fig16(opt);
    } else if (opt.workload == "multivector") {
      out = run_multivector(opt);
    } else if (opt.workload == "serve_open") {
      out = run_serve_open(opt);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "nmdt_perfbench: " << opt.workload
              << " failed: " << nmdt::describe_exception(e) << "\n";
    return 1;
  }

  for (const auto& e : out.errors) std::cerr << "output check failed: " << e << "\n";
  if (opt.trace && !opt.ledger_only) {
    std::filesystem::create_directories(opt.trace_dir);
    const std::string path =
        opt.trace_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) + ".json";
    SpanLog::write_chrome_json(SpanLog::collect(), path);
    std::cerr << "spans written to " << path << "\n";
  }
  print_witness(opt, steal0_s);
  print_ledger(opt, out);
  if (!opt.ledger_only) print_result(out);
  return out.correct() ? 0 : 1;
}
