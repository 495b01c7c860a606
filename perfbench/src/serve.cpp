// serve_open: the daemon user.  An in-process SpmmServer with T - 1
// workers receives
//   (a) an open loop: seeded Poisson arrivals at a fixed rate, a Zipf
//       mix over eight 4096-row gen: matrices with K in {16, 64}, and
//       ~5% one-off matrices that force a plan build on the request
//       path; each request is timed from its due time;
//   (b) bursts of requests submitted at once, to measure capacity.
// The arrival generator is the calling thread (the T-th thread).  One
// op is one request.
#include <array>
#include <cmath>
#include <condition_variable>
#include <iostream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/executor.hpp"
#include "layers.hpp"
#include "service/server.hpp"
#include "spans.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace nmdt;
using service::Request;
using service::Response;

namespace {

constexpr index_t kRows = 4096;
constexpr double kOneOffShare = 0.05;
constexpr int kBurst = 128;
constexpr int kMinBursts = 4;
constexpr int kMaxBursts = 64;
constexpr double kOpenShare = 0.85;  ///< share of --seconds given to the open loop
constexpr std::array<index_t, 2> kKs = {16, 64};
constexpr u64 kBSeeds = 4;

struct Popular {
  const char* kind;
  const char* density;
};
/// Zipf rank order: rank 0 is the most requested matrix.
constexpr std::array<Popular, 8> kPopular = {{{"uniform", "0.002"},
                                              {"powerlaw_rows", "0.002"},
                                              {"powerlaw_cols", "0.002"},
                                              {"uniform", "0.004"},
                                              {"powerlaw_rows", "0.004"},
                                              {"powerlaw_cols", "0.004"},
                                              {"uniform", "0.001"},
                                              {"powerlaw_rows", "0.001"}}};
constexpr std::array<const char*, 3> kKinds = {"uniform", "powerlaw_rows", "powerlaw_cols"};

std::string gen_spec(const char* kind, const char* density, u64 seed) {
  return std::string("gen:") + kind + ":" + std::to_string(kRows) + "x" +
         std::to_string(kRows) + ":" + density + ":" + std::to_string(seed % 1000000000ULL);
}

struct Planned {
  std::string matrix;
  index_t k = 16;
  u64 b_seed = 1;
  double due_ms = 0.0;  ///< open loop: offset from the phase start
};

std::string ref_key(const std::string& matrix, index_t k, u64 b_seed) {
  return matrix + "|" + std::to_string(k) + "|" + std::to_string(b_seed);
}

class Mix {
 public:
  explicit Mix(u64 seed) {
    double total = 0.0;
    for (usize r = 0; r < kPopular.size(); ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_.push_back(total);
      popular_.push_back(gen_spec(kPopular[r].kind, kPopular[r].density, mix_seed(seed, r)));
    }
    for (double& c : cdf_) c /= total;
  }
  const std::vector<std::string>& popular() const { return popular_; }
  Planned draw(Rng& rng) const {
    const double u = rng.uniform();
    usize r = 0;
    while (r + 1 < cdf_.size() && u >= cdf_[r]) ++r;
    return {popular_[r], kKs[rng.below(kKs.size())], 1 + rng.below(kBSeeds), 0.0};
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::string> popular_;
};

std::vector<Planned> open_schedule(const Mix& mix, u64 seed, double rate, double seconds) {
  Rng rng(mix_seed(seed, 7));
  std::vector<Planned> out;
  double t = 0.0;
  for (u64 i = 0;; ++i) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    Planned p = mix.draw(rng);
    if (rng.chance(kOneOffShare)) {
      p.matrix = gen_spec(kKinds[i % kKinds.size()], "0.002", mix_seed(seed, 5000 + i));
    }
    p.due_ms = t * 1e3;
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<Planned> burst_schedule(const Mix& mix, u64 seed, int burst) {
  Rng rng(mix_seed(seed, 9000 + static_cast<u64>(burst)));
  std::vector<Planned> out;
  for (int i = 0; i < kBurst; ++i) out.push_back(mix.draw(rng));
  return out;
}

/// Reference C CRC of every distinct (matrix, k, b_seed), computed with
/// SpmmExecutor outside the server; the ledger sums their work in key
/// order.
struct Reference {
  std::map<std::string, u32> crc;
  WorkLedger ledger;
};

Reference reference(const std::vector<std::string>& matrices,
                    const std::map<std::string, std::vector<std::pair<index_t, u64>>>& uses,
                    int threads) {
  std::vector<std::vector<SpmmResult>> results(matrices.size());
  std::vector<std::vector<u32>> crcs(matrices.size());
  run_indexed(threads, static_cast<i64>(matrices.size()), [&](i64 i) {
    const usize m = static_cast<usize>(i);
    const Csr A = service::load_matrix_spec(matrices[m]);
    const auto plan = build_plan(A, PlanOptions{});
    for (const auto& [k, b_seed] : uses.at(matrices[m])) {
      Rng rng(b_seed);
      DenseMatrix B(A.cols, k);
      B.randomize(rng);
      SpmmResult r = SpmmExecutor(evaluation_config(A.rows, k)).execute(*plan, B);
      const auto bits = service::result_bits(r);
      crcs[m].push_back(crc32(bits.data(), bits.size()));
      r.C = DenseMatrix();  // keep the counts, drop the output panel
      results[m].push_back(std::move(r));
    }
  });
  Reference ref;
  for (usize i = 0; i < matrices.size(); ++i) {
    const auto& u = uses.at(matrices[i]);
    for (usize j = 0; j < u.size(); ++j) {
      ref.ledger.add(results[i][j]);
      ref.crc[ref_key(matrices[i], u[j].first, u[j].second)] = crcs[i][j];
    }
  }
  return ref;
}

/// Response sink: stamps each response's arrival and wakes waiters.
class Collector {
 public:
  struct Slot {
    bool done = false;
    Clock::time_point at{};
    Response resp;
  };

  explicit Collector(usize capacity) : slots_(capacity) {}

  void on_response(const Response& r) {
    const auto at = Clock::now();
    const usize idx = std::stoull(r.id);
    std::lock_guard<std::mutex> lock(mu_);
    slots_[idx] = {true, at, r};
    ++done_;
    cv_.notify_all();
  }
  /// Block until `n` responses have arrived; a server that loses a
  /// response fails the run instead of hanging it.
  void wait_done(u64 n) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::seconds(60), [&] { return done_ >= n; })) {
      throw std::runtime_error("no response within 60 s: " + std::to_string(done_) + " of " +
                               std::to_string(n) + " arrived");
    }
  }
  /// Read after wait_done() covered the slot.
  const Slot& slot(usize idx) {
    std::lock_guard<std::mutex> lock(mu_);
    return slots_[idx];
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Slot> slots_;
  u64 done_ = 0;
};

/// A server plus the bookkeeping to submit numbered requests to it.
class Client {
 public:
  /// Request ids (= collector slots) start at `first_id`.
  Client(Collector& col, int workers, usize first_id) : col_(col), next_id_(first_id) {
    service::ServerOptions so;
    so.workers = workers;
    so.queue_capacity = 4096;
    // Caches big enough for every popular matrix, small enough that
    // one-off matrices cycle through them: resident memory then does not
    // depend on how many one-offs a seed draws.
    so.matrix_cache_entries = 32;
    so.plan_cache_bytes = i64{64} << 20;
    server_ = std::make_unique<service::SpmmServer>(
        so, [this](const Response& r) { col_.on_response(r); });
  }
  service::SpmmServer& server() { return *server_; }

  /// Submit one request; returns its slot index.
  usize submit(const Planned& p, const char* phase) {
    Request req;
    const usize idx = next_id_++;
    req.id = std::to_string(idx);
    req.matrix = p.matrix;
    req.k = p.k;
    req.b_seed = p.b_seed;
    Span sp("service.submit", phase);
    server_->submit(std::move(req));
    return idx;
  }
  /// Submit, then wait until every request so far has its response.
  void submit_and_wait(const Planned& p, const char* phase) {
    (void)submit(p, phase);
    col_.wait_done(next_id_);
  }
  /// Next request id; every earlier id has been submitted.
  usize issued() const { return next_id_; }

 private:
  Collector& col_;
  std::unique_ptr<service::SpmmServer> server_;
  usize next_id_;
};

struct PhaseStats {
  std::vector<double> latency_ms;  ///< from due time (open loop)
  std::vector<double> queue_ms, exec_ms;
  u64 coalesced = 0;     ///< responses served in a batch of > 1
  double batches = 0.0;  ///< Σ 1 / batch size
  u64 n = 0;
};

/// Check responses [first, first + n) and fold them into `ps`.
void check_phase(Collector& col, const Reference& ref, const std::vector<Planned>& plan,
                 usize first, const std::vector<Clock::time_point>* due, PhaseStats& ps,
                 Outcome& out) {
  for (usize i = 0; i < plan.size(); ++i) {
    const auto& s = col.slot(first + i);
    ++out.attempted;
    ++ps.n;
    bool good = s.done && s.resp.ok;
    if (good) {
      const auto it = ref.crc.find(ref_key(plan[i].matrix, plan[i].k, plan[i].b_seed));
      good = it != ref.crc.end() && it->second == s.resp.c_crc32;
      if (!good) out.fail("request " + s.resp.id + ": c_crc32 differs from SpmmExecutor");
    } else {
      out.fail("request " + std::to_string(first + i) + ": " + s.resp.error_type + " " +
               s.resp.message);
    }
    if (!good) ++out.failed;
    if (due != nullptr) {
      ps.latency_ms.push_back(good ? ms_between((*due)[i], s.at)
                                   : std::numeric_limits<double>::infinity());
    }
    if (s.resp.ok) {
      ps.queue_ms.push_back(s.resp.queue_ms);
      ps.exec_ms.push_back(s.resp.exec_ms);
      if (s.resp.coalesced > 1) ++ps.coalesced;
      ps.batches += 1.0 / s.resp.coalesced;
    }
  }
}

/// One burst: submit all at once, wait for all; returns the ms from the
/// first submit to the last response.
double run_burst(Client& client, Collector& col, const std::vector<Planned>& burst,
                 usize& first) {
  first = client.issued();
  const auto t0 = Clock::now();
  for (const auto& p : burst) (void)client.submit(p, "burst");
  col.wait_done(client.issued());
  Clock::time_point last = t0;
  for (usize i = 0; i < burst.size(); ++i) last = std::max(last, col.slot(first + i).at);
  return ms_between(t0, last);
}

}  // namespace

Outcome run_serve_open(const Options& opt) {
  Outcome out;
  const Mix mix(opt.seed);
  const int workers = std::max(1, opt.threads - 1);
  const auto open = open_schedule(mix, opt.seed, opt.serve_rate, opt.seconds * kOpenShare);

  // Every request the run can send: all popular (matrix, k, b_seed)
  // combinations plus the open loop's one-offs.
  std::map<std::string, std::vector<std::pair<index_t, u64>>> uses;
  std::vector<std::string> matrices;
  auto use = [&](const std::string& m, index_t k, u64 b) {
    auto& u = uses[m];
    if (u.empty()) matrices.push_back(m);
    if (std::find(u.begin(), u.end(), std::make_pair(k, b)) == u.end()) u.emplace_back(k, b);
  };
  for (const auto& m : mix.popular()) {
    for (const index_t k : kKs) {
      for (u64 b = 1; b <= kBSeeds; ++b) use(m, k, b);
    }
  }
  for (const auto& p : open) use(p.matrix, p.k, p.b_seed);
  const Reference ref = reference(matrices, uses, opt.threads);
  if (opt.ledger_only) {
    ref.ledger.write(out);
    return out;
  }

  // Slots: three set-ups' warm requests, the open loop, the bursts (a
  // traced run adds two untraced and two traced bursts).
  const usize warm = mix.popular().size();
  Collector col(3 * warm + open.size() + (kMaxBursts + 4) * kBurst);

  // Set-up: start a server and warm its plan cache with one request per
  // popular matrix, sent one at a time.  Done three times; the last
  // server is kept.
  std::vector<double> setups;
  std::unique_ptr<Client> client;
  usize next_slot = 0;
  std::vector<Planned> warmups;
  for (const auto& m : mix.popular()) warmups.push_back({m, kKs[0], 1, 0.0});
  for (int i = 0; i < 3; ++i) {
    if (client) client->server().drain();
    client = std::make_unique<Client>(col, workers, next_slot);
    setups.push_back(time_s([&] {
      client->server().start();
      for (const auto& p : warmups) client->submit_and_wait(p, "warm");
    }));
    PhaseStats ignored;
    check_phase(col, ref, warmups, next_slot, nullptr, ignored, out);
    next_slot += warm;
  }
  if (opt.trace) SpanLog::set_enabled(true);

  // (a) Open loop.
  PhaseStats open_stats;
  std::vector<Clock::time_point> due(open.size());
  std::vector<double> lateness_ms;
  const usize open_first = client->issued();
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (usize i = 0; i < open.size(); ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(open[i].due_ms));
    std::this_thread::sleep_until(due[i]);
    lateness_ms.push_back(ms_since(due[i]));
    (void)client->submit(open[i], "open");
  }
  col.wait_done(client->issued());
  check_phase(col, ref, open, open_first, &due, open_stats, out);

  // (b) Bursts until the run's time is used, at least kMinBursts.
  PhaseStats burst_stats;
  std::vector<double> rates;
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(opt.seconds));
  for (int b = 0; b < kMaxBursts && (b < kMinBursts || Clock::now() < deadline); ++b) {
    const auto burst = burst_schedule(mix, opt.seed, b);
    usize first = 0;
    const double ms = run_burst(*client, col, burst, first);
    rates.push_back(kBurst / (ms / 1e3));
    check_phase(col, ref, burst, first, nullptr, burst_stats, out);
  }

  if (opt.trace) {
    WorkloadCounters c;
    // Overhead on the burst: two untraced, then two traced.
    std::vector<double> plain, traced;
    for (int i = 0; i < 4; ++i) {
      SpanLog::set_enabled(i >= 2);
      const auto burst = burst_schedule(mix, opt.seed, kMaxBursts + i);
      usize first = 0;
      (i >= 2 ? traced : plain).push_back(run_burst(*client, col, burst, first));
      check_phase(col, ref, burst, first, nullptr, burst_stats, out);
    }
    c.trace_overhead_share = median(traced) / median(plain) - 1.0;
    c.plan_cache = client->server().plan_cache_stats();
    const auto st = client->server().stats();
    c.service_shed = st.shed_queue_full + st.shed_over_quota + st.shed_shutdown;
    c.service_latency_ms_p99 = quantile(open_stats.latency_ms, 0.99);
    c.service_queue_ms_p99 = quantile(open_stats.queue_ms, 0.99);
    c.service_exec_ms_p50 = median(open_stats.exec_ms);
    c.coalesced_share_open = static_cast<double>(open_stats.coalesced) / open_stats.n;
    c.coalesced_share_burst = static_cast<double>(burst_stats.coalesced) / burst_stats.n;
    c.batch_size_mean_open = open_stats.n / open_stats.batches;
    c.batch_size_mean_burst = burst_stats.n / burst_stats.batches;
    c.gen_lateness_p99_ms = quantile(lateness_ms, 0.99);
    client->server().drain();

    std::vector<ProbeMatrix> probe;
    for (const auto& m : mix.popular()) {
      probe.push_back({m.rfind("gen:uniform:", 0) == 0 ? "uniform" : "powerlaw",
                       [m] { return service::load_matrix_spec(m); }, kKs[1], 1,
                       evaluation_config(kRows, kKs[1])});
    }
    SpanLog::set_enabled(true);
    probe_layers(probe, opt.threads);
    SpanLog::set_enabled(false);
    ref.ledger.write(out);
    per_layer_metrics(SpanLog::collect(), ref.ledger, c, out);
    return out;
  }
  client->server().drain();
  ref.ledger.write(out);

  std::cerr << "serve_open: " << open.size() << " open-loop requests, latency ms";
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    std::cerr << " p" << q * 100 << "=" << quantile(open_stats.latency_ms, q);
  }
  const auto pc = client->server().plan_cache_stats();
  std::cerr << "; " << matrices.size() << " distinct matrices, plan cache hits " << pc.hits << " misses " << pc.misses << " evictions "
            << pc.evictions;
  std::cerr << "; " << rates.size() << " bursts, req/s";
  for (const double r : rates) std::cerr << " " << r;
  std::cerr << "\n";
  out.metric("setup_s", median(setups), "s");
  out.metric("ops_per_s", median(rates), "1/s");
  out.metric("op_p50_ms", median(open_stats.latency_ms), "ms");
  out.metric("peak_rss_mb", usage_self().max_rss_mb, "MB");
  return out;
}

}  // namespace perfbench
