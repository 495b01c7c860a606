#include "spans.hpp"

#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<u64> g_next_id{1};
std::atomic<u32> g_next_thread{1};

/// One buffer per recording thread, owned by the registry so records
/// outlive the thread that made them.
struct ThreadBuffer {
  u32 thread = 0;
  std::vector<SpanRecord> records;
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>>& buffers() {
  static std::vector<std::unique_ptr<ThreadBuffer>> b;
  return b;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* mine = [] {
    auto buf = std::make_unique<ThreadBuffer>();
    buf->thread = g_next_thread.fetch_add(1);
    ThreadBuffer* raw = buf.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    buffers().push_back(std::move(buf));
    return raw;
  }();
  return *mine;
}

thread_local u64 t_current_span = 0;

const Clock::time_point g_epoch = Clock::now();

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_epoch).count();
}

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
}

}  // namespace

void SpanLog::set_enabled(bool on) { g_enabled.store(on); }
bool SpanLog::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<SpanRecord> SpanLog::collect() {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& b : buffers()) out.insert(out.end(), b->records.begin(), b->records.end());
  return out;
}

void SpanLog::write_chrome_json(const std::vector<SpanRecord>& records,
                                const std::string& path) {
  std::ofstream os(path);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& r : records) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":";
    json_string(os, r.name);
    os << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.thread << ",\"ts\":" << r.start_ns / 1000
       << "." << (r.start_ns % 1000) / 100 << ",\"dur\":" << (r.end_ns - r.start_ns) / 1000
       << "." << ((r.end_ns - r.start_ns) % 1000) / 100 << ",\"args\":{\"id\":" << r.id
       << ",\"parent\":" << r.parent << ",\"arg\":";
    json_string(os, r.arg);
    os << "}}";
  }
  os << "]}\n";
}

Span::Span(const char* name, std::string arg) : on_(SpanLog::enabled()) {
  if (!on_) return;
  rec_.name = name;
  rec_.arg = std::move(arg);
  rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = t_current_span;
  saved_parent_ = t_current_span;
  t_current_span = rec_.id;
  rec_.start_ns = now_ns();
}

Span::~Span() {
  if (!on_) return;
  rec_.end_ns = now_ns();
  t_current_span = saved_parent_;
  ThreadBuffer& buf = local_buffer();
  rec_.thread = buf.thread;
  buf.records.push_back(std::move(rec_));
}

std::map<std::string, SpanAgg> aggregate(const std::vector<SpanRecord>& records,
                                         bool by_arg) {
  std::map<std::string, SpanAgg> out;
  for (const auto& r : records) {
    SpanAgg& a = out[by_arg ? std::string(r.name) + "|" + r.arg : std::string(r.name)];
    ++a.count;
    a.total_ms += r.ms();
    a.each_ms.push_back(r.ms());
  }
  return out;
}

}  // namespace perfbench
