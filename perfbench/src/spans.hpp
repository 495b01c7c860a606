// Benchmark-side span recorder.  Spans wrap the benchmark's own calls
// into the library's public functions (the library itself is not
// instrumented by this tool); each records name, start, end, its
// parent span and the recording thread.  Records stay in per-thread
// memory and are written once, as a Chrome trace-event file, when the
// run ends.  With recording off a Span costs one branch.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  std::string arg;  ///< e.g. the matrix or kernel the call worked on
  u64 id = 0;
  u64 parent = 0;   ///< 0 = root
  u32 thread = 0;
  i64 start_ns = 0;
  i64 end_ns = 0;
  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

class SpanLog {
 public:
  static void set_enabled(bool on);
  static bool enabled();
  /// Every record so far, from every thread.  Call only while no
  /// thread is recording.
  static std::vector<SpanRecord> collect();
  /// Write `records` as a Chrome trace-event JSON file.
  static void write_chrome_json(const std::vector<SpanRecord>& records,
                                const std::string& path);
};

/// RAII span.  `name` must be a string literal (records keep the
/// pointer).
class Span {
 public:
  explicit Span(const char* name, std::string arg = {});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
  SpanRecord rec_;
  u64 saved_parent_ = 0;
};

/// Per-name aggregate of a record set: count, total and each duration.
struct SpanAgg {
  u64 count = 0;
  double total_ms = 0.0;
  std::vector<double> each_ms;
};
/// Aggregate by span name, or by "name|arg" when `by_arg` is set.
std::map<std::string, SpanAgg> aggregate(const std::vector<SpanRecord>& records,
                                         bool by_arg = false);

}  // namespace perfbench
