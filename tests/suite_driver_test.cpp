// The suite driver (core/suite_driver.hpp) behind both suite runners:
// one rule set for journal replay and metrics whichever backend
// executes the tasks, and a bounded row window in front of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proc/suite.hpp"
#include "util/error.hpp"

namespace nmdt {
namespace {

std::vector<MatrixSpec> small_specs(usize n) {
  std::vector<MatrixSpec> specs;
  for (usize i = 0; i < n; ++i) {
    specs.push_back({"uniform-" + std::to_string(i), MatrixFamily::kUniform, 96, 96,
                     0.05 + 0.01 * static_cast<double>(i % 4), 0.0, 0, 11 + i});
  }
  return specs;
}

std::string temp_path(const std::string& stem) {
  const std::string path = testing::TempDir() + "nmdt_suite_driver_" + stem + ".nmdj";
  std::remove(path.c_str());
  return path;
}

i64 timeout_count() {
  return obs::MetricsRegistry::global().counter("fault.timeout").value();
}

TEST(SuiteDriver, ReplayedTimeoutsCountOnceUnderBothBackends) {
  const auto specs = small_specs(4);
  const index_t K = 8;
  const SpmmConfig cfg = evaluation_config(4096, K);
  const std::string timeout = describe_exception(TimeoutError("arm deadline exceeded"));
  // A journal with one *partial* row (row 0: planned, its baseline arm
  // timed out, three arms still to run) and one *complete* row (row 1,
  // its online arm timed out).
  const std::string journal = temp_path("partial_timeouts");
  {
    JournalWriter w(journal, suite_fingerprint(specs, cfg, K, SuiteRow::kArmCount),
                    specs.size(), K, SuiteRow::kArmCount, 1, false);
    w.row_planned(0, MatrixProfile{});
    w.arm_error(0, SuiteRow::kArmBaseline, timeout);
    w.row_planned(1, MatrixProfile{});
    w.arm_done(1, SuiteRow::kArmBaseline, 1.0, 0.0);
    w.arm_done(1, SuiteRow::kArmDcsrC, 2.0, 0.0);
    w.arm_error(1, SuiteRow::kArmOnlineB, timeout);
    w.arm_done(1, SuiteRow::kArmOfflineB, 3.0, 0.5);
  }
  // Resume a copy of that journal under each backend.
  auto resume_copy = [&](bool isolated, i64& timeouts) {
    const std::string copy = temp_path(isolated ? "copy_isolated" : "copy_in_process");
    std::filesystem::copy_file(journal, copy);
    SuiteOptions opts;
    opts.jobs = 2;
    opts.policy = SuiteErrorPolicy::kContinue;
    opts.journal_path = copy;
    opts.resume = true;
    const i64 before = timeout_count();
    proc::ProcOptions po;
    po.workers = 2;
    auto rows = isolated ? proc::run_suite_isolated(specs, cfg, K, {}, opts, po)
                         : run_suite(specs, cfg, K, {}, opts);
    timeouts = timeout_count() - before;
    std::remove(copy.c_str());
    return rows;
  };
  i64 in_process_timeouts = 0;
  i64 isolated_timeouts = 0;
  const auto in_process = resume_copy(false, in_process_timeouts);
  const auto isolated = resume_copy(true, isolated_timeouts);
  std::remove(journal.c_str());

  ASSERT_EQ(in_process.size(), isolated.size());
  for (usize i = 0; i < in_process.size(); ++i) {
    const SuiteRow& a = in_process[i];
    const SuiteRow& b = isolated[i];
    EXPECT_EQ(a.spec.name, b.spec.name) << "row " << i;
    EXPECT_EQ(a.profile.ssf, b.profile.ssf) << a.spec.name;
    EXPECT_EQ(a.t_baseline_ms, b.t_baseline_ms) << a.spec.name;
    EXPECT_EQ(a.t_dcsr_c_ms, b.t_dcsr_c_ms) << a.spec.name;
    EXPECT_EQ(a.t_online_b_ms, b.t_online_b_ms) << a.spec.name;
    EXPECT_EQ(a.t_offline_b_ms, b.t_offline_b_ms) << a.spec.name;
    EXPECT_EQ(a.offline_prep_ms, b.offline_prep_ms) << a.spec.name;
    EXPECT_EQ(a.error, b.error) << a.spec.name;
    EXPECT_EQ(a.arm_error, b.arm_error) << a.spec.name;
  }
  ASSERT_GE(in_process.size(), 2u);
  EXPECT_EQ(in_process[0].arm_error[SuiteRow::kArmBaseline], timeout);
  EXPECT_EQ(in_process[1].arm_error[SuiteRow::kArmOnlineB], timeout);
  // Each TimeoutError outcome in the returned rows counts once — the
  // partial row's as well as the complete row's — under either backend.
  EXPECT_EQ(in_process_timeouts, isolated_timeouts);
  EXPECT_EQ(in_process_timeouts, 2);
}

TEST(SuiteDriver, RowWindowBoundsThePlansAheadOfTheFirstArm) {
  const auto specs = small_specs(10);
  obs::TraceSession session;
  session.install();
  const auto rows = run_suite(specs, SpmmConfig{}, 4, {}, 1);
  session.uninstall();
  ASSERT_EQ(rows.size(), specs.size());

  u64 first_arm = std::numeric_limits<u64>::max();
  for (const auto& ev : session.events()) {
    if (ev.name == "suite.arm") first_arm = std::min(first_arm, ev.seq);
  }
  usize plans = 0;
  usize plans_before_first_arm = 0;
  for (const auto& ev : session.events()) {
    if (ev.name != "suite.plan") continue;
    ++plans;
    if (ev.seq < first_arm) ++plans_before_first_arm;
  }
  EXPECT_EQ(plans, specs.size());
  // One pool thread: the window admits 2·1 + 2 rows, so no more plans
  // than that exist before the first row's arms run (an unbounded FIFO
  // would plan the whole sweep first).
  EXPECT_LE(plans_before_first_arm, 4u);
}

}  // namespace
}  // namespace nmdt
