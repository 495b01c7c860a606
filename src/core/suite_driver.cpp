#include "core/suite_driver.hpp"

#include <array>
#include <chrono>
#include <filesystem>
#include <system_error>

#include "core/journal.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nmdt {

namespace {

/// What a suite arm runs and which SuiteRow fields it fills.
struct ArmSpec {
  KernelKind kernel;
  double SuiteRow::*t_ms;
  double SuiteRow::*prep_ms;  ///< nullptr: the arm has no offline prep cost
};

constexpr std::array<ArmSpec, SuiteRow::kArmCount> kArms = {{
    {KernelKind::kCsrCStationaryRowWarp, &SuiteRow::t_baseline_ms, nullptr},
    {KernelKind::kDcsrCStationary, &SuiteRow::t_dcsr_c_ms, nullptr},
    {KernelKind::kTiledDcsrOnline, &SuiteRow::t_online_b_ms, nullptr},
    {KernelKind::kTiledDcsrBStationary, &SuiteRow::t_offline_b_ms,
     &SuiteRow::offline_prep_ms},
}};

const ArmSpec& arm_spec(int arm) {
  NMDT_REQUIRE(arm >= 0 && arm < SuiteRow::kArmCount, "suite arm index out of range");
  return kArms[static_cast<usize>(arm)];
}

void apply_arm(SuiteRow& row, int arm, const SuiteArmTimes& times) {
  const ArmSpec& spec = arm_spec(arm);
  row.*spec.t_ms = times.t_ms;
  if (spec.prep_ms != nullptr) row.*spec.prep_ms = times.prep_ms;
}

CancelToken::Clock::time_point deadline_in(double ms) {
  return CancelToken::Clock::now() +
         std::chrono::duration_cast<CancelToken::Clock::duration>(
             std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

KernelKind suite_arm_kernel(int arm) { return arm_spec(arm).kernel; }

SuiteArmTimes suite_arm_times(int arm, const SpmmResult& res) {
  return {res.timing.total_ms(),
          arm_spec(arm).prep_ms != nullptr ? res.offline_prep_ns * 1e-6 : 0.0};
}

std::shared_ptr<const SuiteRowInputs> suite_row_inputs(const MatrixSpec& spec, usize idx,
                                                       const SpmmConfig& cfg, index_t K) {
  const Csr A = spec.generate();
  if (A.nnz() == 0) return nullptr;
  auto row = std::make_shared<SuiteRowInputs>();
  {
    obs::TraceSpan sp("suite.plan");
    obs::ScopedTimer t("suite.plan_ms");
    row->plan = build_plan(A, {cfg.tiling, default_ssf_threshold(), 1.0, cfg.precision});
    sp.arg("matrix", spec.name.c_str()).arg("nnz", static_cast<i64>(A.nnz()));
  }
  Rng b_rng(0xb0b0 + static_cast<u64>(idx));
  row->B = DenseMatrix(A.cols, K);
  row->B.randomize(b_rng);
  return row;
}

SpmmResult run_suite_arm(const SuiteRowInputs& row, usize idx, int arm,
                         const SpmmConfig& cfg, const CancelToken& arm_token,
                         double arm_timeout_ms) {
  if (arm_timeout_ms > 0.0) {
    arm_token.set_deadline(deadline_in(arm_timeout_ms), CancelReason::kDeadline);
  }
  CancelScope scope(arm_token);
  arm_token.poll();
  fault::transient_point(fault::FaultSite::kSuiteArm,
                         fault::mix(static_cast<u64>(idx), static_cast<u64>(arm)));
  return SpmmExecutor(cfg).execute(suite_arm_kernel(arm), *row.plan, row.B);
}

std::vector<SuiteRow> drive_suite(std::span<const MatrixSpec> specs, const SpmmConfig& cfg,
                                  index_t K, const SuiteProgress& progress,
                                  const SuiteOptions& opts, obs::TraceSpan& span,
                                  const SuiteBackendFactory& make_backend) {
  using Status = SuiteTaskResult::Status;
  constexpr int kArmCount = SuiteRow::kArmCount;
  NMDT_CHECK_CONFIG(K > 0, "run_suite requires K > 0");
  NMDT_CHECK_CONFIG(!opts.resume || !opts.journal_path.empty(),
                    "resume requires a checkpoint-journal path");
  const usize total = specs.size();
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  metrics.counter("suite.runs").add(1);
  // Installed before any backend exists: forked workers inherit the
  // injector, so their fault draws match the in-process run.
  std::optional<fault::FaultScope> fault_scope;
  if (cfg.fault.site != fault::FaultSite::kNone) fault_scope.emplace(cfg.fault);
  span.arg("total", static_cast<i64>(total)).arg("k", static_cast<i64>(K));

  // --- Journal: fingerprint, replay, writer. -------------------------
  const u64 fingerprint = suite_fingerprint(specs, cfg, K, kArmCount);
  JournalReplay replay;
  if (opts.resume) {
    replay = read_journal_file(opts.journal_path);
    verify_journal(replay, fingerprint, total, K, kArmCount);
    metrics.counter("checkpoint.replayed").add(static_cast<i64>(replay.entries));
    span.arg("replayed_entries", static_cast<i64>(replay.entries));
  }
  std::optional<JournalWriter> writer;
  if (!opts.journal_path.empty()) {
    // A journal that never got its header (empty or fully torn) restarts.
    const bool append = opts.resume && replay.has_header;
    if (append && replay.torn_tail) {
      // Appending after the dropped torn frame's bytes would leave its
      // stale length prefix spanning into the fresh frames (a CRC
      // mismatch on the next read): truncate to the last complete frame.
      std::error_code ec;
      std::filesystem::resize_file(
          opts.journal_path, static_cast<std::uintmax_t>(replay.valid_bytes), ec);
      if (ec) {
        throw ParseError("cannot truncate torn checkpoint-journal tail: " +
                         opts.journal_path + " (" + ec.message() + ")");
      }
    }
    writer.emplace(opts.journal_path, fingerprint, total, K, kArmCount,
                   opts.checkpoint_interval, append);
  }
  auto journal = [&](auto&& append_entry) {
    if (!writer) return;
    append_entry(*writer);
    if (opts.on_checkpoint) opts.on_checkpoint(writer->entries());
  };

  // Lowest-(row, arm) failure, live or replayed; arm -1 = the row itself.
  i64 err_rank = -1;
  std::string err_desc;
  auto record_failure = [&](usize idx, int arm, const std::string& desc) {
    const i64 rank = static_cast<i64>(idx) * (kArmCount + 1) + arm + 1;
    if (err_rank < 0 || rank < err_rank) {
      err_rank = rank;
      err_desc = desc;
    }
  };

  std::vector<std::optional<SuiteRow>> slots(total);
  usize reported = 0;
  auto report = [&](usize idx) {
    ++reported;
    if (progress) progress(reported, total, *slots[idx]);
  };
  // Start row `idx` in its slot: a row-level failure (`error`), or a
  // profile with the journal's arm outcomes folded in.  Returns the arms
  // left to run.
  auto start_row = [&](usize idx, const std::string* error, const MatrixProfile& profile,
                       const JournalRow* jr) {
    SuiteRow& row = slots[idx].emplace();
    row.spec = specs[idx];
    if (error != nullptr) {
      row.error = *error;
      record_failure(idx, -1, *error);
      return 0;
    }
    row.profile = profile;
    int missing = 0;
    for (int a = 0; a < kArmCount; ++a) {
      const auto* rep = jr && jr->arms[static_cast<usize>(a)].has_value()
                            ? &*jr->arms[static_cast<usize>(a)]
                            : nullptr;
      if (rep == nullptr) {
        ++missing;
      } else if (rep->failed()) {
        row.arm_error[static_cast<usize>(a)] = rep->error;
        record_failure(idx, a, rep->error);
      } else {
        apply_arm(row, a, {rep->t_ms, rep->prep_ms});
      }
    }
    return missing;
  };

  // --- Replay prefill: rows the journal finished are rebuilt from it
  // (the original runs' exact bits) and reported, in index order,
  // before any live work; partial rows keep their record. -------------
  std::vector<const JournalRow*> partial(total, nullptr);
  std::vector<usize> live;  // rows left to run, in index order
  for (usize idx = 0; idx < total; ++idx) {
    const auto it = replay.rows.find(idx);
    const JournalRow* jr = it == replay.rows.end() ? nullptr : &it->second;
    if (jr == nullptr || !jr->complete(kArmCount)) {
      partial[idx] = jr;
      live.push_back(idx);
      continue;
    }
    if (jr->degenerate) continue;  // degenerate rows are never reported
    start_row(idx, jr->error.has_value() ? &*jr->error : nullptr, jr->profile, jr);
    report(idx);
  }

  // A *child* of the caller's token: an external request() is seen
  // here, but the suite deadline never leaks into the caller's token.
  const CancelToken suite_token = CancelToken::child_of(opts.cancel);
  if (opts.suite_timeout_ms > 0.0) {
    suite_token.set_deadline(deadline_in(opts.suite_timeout_ms),
                             CancelReason::kSuiteDeadline);
  }

  // --- Live rows. ----------------------------------------------------
  if (!live.empty()) {
    const std::unique_ptr<SuiteBackend> backend = make_backend(suite_token);
    // A bounded row window: a row's arms run while its plan is fresh
    // (an isolated worker reuses its cached plan), and at most `window`
    // plans are alive at once.
    const usize window = static_cast<usize>(backend->workers()) * 2 + 2;
    std::vector<int> arms_left(total, 0);
    std::vector<char> abandoned(total, 0);
    usize next = 0;
    usize in_flight = 0;
    usize unfinished = live.size();
    auto finish_row = [&](usize idx, bool reportable) {
      --in_flight;
      --unfinished;
      if (reportable) report(idx);
    };

    auto on_plan = [&](const SuiteTaskResult& r) {
      const usize idx = r.task.row;
      const JournalRow* jr = partial[idx];
      if (r.status == Status::kCancelled) return finish_row(idx, false);
      if (r.status == Status::kDegenerate) {
        if (!(jr && jr->degenerate)) journal([&](JournalWriter& w) { w.row_degenerate(idx); });
        return finish_row(idx, false);
      }
      if (r.status == Status::kFailed) {  // generation or planning threw
        journal([&](JournalWriter& w) { w.row_error(idx, r.error); });
        start_row(idx, &r.error, r.profile, jr);
        return finish_row(idx, true);
      }
      // Partially replayed rows re-plan (their remaining arms need the
      // plan) but are not re-journaled.
      if (!(jr && jr->planned)) {
        journal([&](JournalWriter& w) { w.row_planned(idx, r.profile); });
      }
      arms_left[idx] = start_row(idx, nullptr, r.profile, jr);
      // No arm left: only a crafted journal (arm outcomes, no plan entry).
      if (arms_left[idx] == 0) return finish_row(idx, true);
      for (int a = 0; a < kArmCount; ++a) {
        if (!(jr && jr->arms[static_cast<usize>(a)].has_value())) {
          backend->submit({idx, a, r.inputs});
        }
      }
    };

    auto on_arm = [&](const SuiteTaskResult& r) {
      const usize idx = r.task.row;
      const int arm = r.task.arm;
      SuiteRow& row = *slots[idx];
      if (r.status == Status::kCancelled) {
        abandoned[idx] = 1;  // not journaled: a resumed sweep re-runs it
      } else if (r.status == Status::kFailed) {
        row.arm_error[static_cast<usize>(arm)] = r.error;
        journal([&](JournalWriter& w) { w.arm_error(idx, arm, r.error); });
        record_failure(idx, arm, r.error);
      } else {
        apply_arm(row, arm, r.times);
        journal([&](JournalWriter& w) {
          w.arm_done(idx, arm, r.times.t_ms, r.times.prep_ms);
        });
      }
      if (--arms_left[idx] == 0) finish_row(idx, abandoned[idx] == 0);
    };

    while (unfinished > 0 && !suite_token.cancelled()) {
      while (in_flight < window && next < live.size()) {
        ++in_flight;
        backend->submit({live[next++], SuiteTask::kPlan, nullptr});
      }
      const std::optional<SuiteTaskResult> r = backend->wait(/*timeout_ms=*/25.0);
      if (!r) continue;
      if (r->task.arm == SuiteTask::kPlan) {
        on_plan(*r);
      } else {
        on_arm(*r);
      }
    }
    // Destroying the backend abandons what is still in flight (pool
    // tasks unwind on the cancelled token, workers are shut down); it
    // is never journaled, so a resume re-runs it bit-identically.
  }
  if (writer) writer->flush();  // the final checkpoint lands before we throw or return

  if (suite_token.cancelled()) {
    metrics.counter("suite.cancelled").add(1);
    const std::string where =
        opts.journal_path.empty()
            ? std::string(" (no journal was configured; completed work is lost)")
            : " (completed work is checkpointed in " + opts.journal_path + ")";
    if (suite_token.reason() == CancelReason::kSuiteDeadline) {
      throw TimeoutError("suite sweep exceeded its deadline" + where);
    }
    throw CancelledError("suite sweep cancelled" + where);
  }

  std::vector<SuiteRow> rows;
  rows.reserve(total);
  i64 timeouts = 0;  // each TimeoutError arm outcome counts once, live or replayed
  for (auto& slot : slots) {
    if (!slot.has_value()) continue;
    for (const auto& e : slot->arm_error) timeouts += e.rfind("TimeoutError", 0) == 0 ? 1 : 0;
    rows.push_back(std::move(*slot));
  }
  if (timeouts > 0) metrics.counter("fault.timeout").add(timeouts);
  // Rebuilt from the description, so the exit code is the same whichever
  // backend or run produced the failure.
  if (opts.policy == SuiteErrorPolicy::kFailFast && err_rank >= 0) {
    std::rethrow_exception(exception_from_description(err_desc));
  }
  return rows;
}

}  // namespace nmdt
