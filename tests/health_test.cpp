// HealthTracker state machine: transitions, probe determinism, generation.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "serve/health.h"
#include "util/error.h"

namespace hios::serve {
namespace {

FaultEvidence ev(FaultEvidence::Kind kind, int gpu, double at_ms) {
  FaultEvidence e;
  e.kind = kind;
  e.gpu = gpu;
  e.at_ms = at_ms;
  return e;
}

TEST(HealthTracker, FailStopGoesStraightToDown) {
  HealthTracker t(4);
  EXPECT_EQ(t.up_mask(), 0b1111u);
  EXPECT_TRUE(t.all_up());
  EXPECT_EQ(t.generation(), 0u);

  t.observe(ev(FaultEvidence::Kind::kFailStop, 2, 5.0));
  EXPECT_EQ(t.gpu_state(2), HealthState::kDown);
  EXPECT_EQ(t.up_mask(), 0b1011u);
  EXPECT_FALSE(t.all_up());
  EXPECT_EQ(t.generation(), 1u);
  EXPECT_EQ(t.transitions(), 1u);
  // The first probe is due one jittered backoff (2 ms +- 25%) after the
  // fail-stop at 5 ms.
  EXPECT_GE(t.next_probe_ms(2), 6.5);
  EXPECT_LT(t.next_probe_ms(2), 7.5);

  // A second fail-stop on the same GPU is idempotent.
  t.observe(ev(FaultEvidence::Kind::kFailStop, 2, 6.0));
  EXPECT_EQ(t.transitions(), 1u);
  EXPECT_EQ(t.generation(), 1u);
}

TEST(HealthTracker, ProbeLifecycleWithExponentialBackoff) {
  HealthOptions opt;
  opt.probe_backoff_ms = 2.0;
  opt.probe_backoff_multiplier = 2.0;
  opt.probe_max_backoff_ms = 16.0;
  opt.probe_jitter = 0.0;  // exact arithmetic
  HealthTracker t(2, opt);

  t.observe(ev(FaultEvidence::Kind::kFailStop, 0, 10.0));
  EXPECT_DOUBLE_EQ(t.next_probe_ms(0), 12.0);
  EXPECT_DOUBLE_EQ(t.next_probe_due_ms(), 12.0);
  EXPECT_TRUE(t.take_due_probes(11.9).empty()) << "probe not due yet";

  auto due = t.take_due_probes(12.0);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 0);
  EXPECT_EQ(t.gpu_state(0), HealthState::kProbing);
  EXPECT_EQ(t.probes_sent(), 1u);
  EXPECT_EQ(t.up_mask(), 0b10u) << "probing GPUs take no traffic";

  // Failed probe: down again, backoff doubles (2 -> 4).
  t.observe(ev(FaultEvidence::Kind::kProbeFailure, 0, 12.0));
  EXPECT_EQ(t.gpu_state(0), HealthState::kDown);
  EXPECT_DOUBLE_EQ(t.next_probe_ms(0), 16.0);

  ASSERT_EQ(t.take_due_probes(16.0).size(), 1u);
  t.observe(ev(FaultEvidence::Kind::kProbeFailure, 0, 16.0));
  EXPECT_DOUBLE_EQ(t.next_probe_ms(0), 24.0) << "backoff 4 -> 8";

  ASSERT_EQ(t.take_due_probes(24.0).size(), 1u);
  t.observe(ev(FaultEvidence::Kind::kProbeSuccess, 0, 24.0));
  EXPECT_EQ(t.gpu_state(0), HealthState::kHealthy);
  EXPECT_TRUE(t.all_up());
  EXPECT_EQ(t.probes_succeeded(), 1u);
  EXPECT_TRUE(std::isinf(t.next_probe_due_ms()));

  // Backoff resets: a fresh failure starts from probe_backoff_ms again.
  t.observe(ev(FaultEvidence::Kind::kFailStop, 0, 100.0));
  EXPECT_DOUBLE_EQ(t.next_probe_ms(0), 102.0);
}

TEST(HealthTracker, ProbeTimesAreSeedDeterministic) {
  HealthOptions opt;
  opt.probe_jitter = 0.25;
  opt.seed = 1234;

  auto run = [](const HealthOptions& o) {
    HealthTracker t(4, o);
    std::vector<double> times;
    t.observe(ev(FaultEvidence::Kind::kFailStop, 1, 0.0));
    t.observe(ev(FaultEvidence::Kind::kFailStop, 3, 0.5));
    for (int i = 0; i < 6; ++i) {
      const double due = t.next_probe_due_ms();
      times.push_back(due);
      for (int g : t.take_due_probes(due)) {
        t.observe(ev(FaultEvidence::Kind::kProbeFailure, g, due));
      }
    }
    return times;
  };

  const auto a = run(opt);
  const auto b = run(opt);
  EXPECT_EQ(a, b) << "same seed must probe at bit-identical times";

  HealthOptions other = opt;
  other.seed = 99;
  EXPECT_NE(a, run(other)) << "different seeds must decorrelate the jitter";
}

TEST(HealthTracker, PerGpuJitterStreamsDecorrelate) {
  HealthOptions opt;
  opt.probe_jitter = 0.25;
  opt.seed = 7;
  HealthTracker t(2, opt);
  t.observe(ev(FaultEvidence::Kind::kFailStop, 0, 0.0));
  t.observe(ev(FaultEvidence::Kind::kFailStop, 1, 0.0));
  EXPECT_NE(t.next_probe_ms(0), t.next_probe_ms(1))
      << "both GPUs failed at t=0 but must not probe in lockstep";
}

TEST(HealthTracker, TakeDueProbesOrdersByDueTimeThenGpu) {
  HealthOptions opt;
  opt.probe_jitter = 0.0;
  opt.probe_backoff_ms = 2.0;
  HealthTracker t(4, opt);
  t.observe(ev(FaultEvidence::Kind::kFailStop, 3, 1.0));  // due 3.0
  t.observe(ev(FaultEvidence::Kind::kFailStop, 1, 0.0));  // due 2.0
  t.observe(ev(FaultEvidence::Kind::kFailStop, 2, 0.0));  // due 2.0
  const auto due = t.take_due_probes(10.0);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0], 1);
  EXPECT_EQ(due[1], 2);
  EXPECT_EQ(due[2], 3);
}

TEST(HealthTracker, ToJsonDumpsStatesAndCounters) {
  HealthTracker t(2);
  t.observe(ev(FaultEvidence::Kind::kFailStop, 1, 1.0));
  const Json j = t.to_json();
  EXPECT_EQ(j.at("gpus").as_array().size(), 2u);
  EXPECT_EQ(j.at("gpus").as_array()[1].at("state").as_string(), "down");
  EXPECT_EQ(j.at("up_mask").as_int(), 0b01);
  EXPECT_EQ(j.at("generation").as_int(), 1);
  EXPECT_EQ(j.at("transitions").as_int(), 1);
}

TEST(HealthTracker, RejectsInvalidOptionsAndRanges) {
  HealthOptions bad;
  bad.probe_backoff_ms = 0.0;
  EXPECT_THROW(HealthTracker(2, bad), Error);

  bad = HealthOptions{};
  bad.probe_jitter = 1.0;
  EXPECT_THROW(HealthTracker(2, bad), Error);

  bad = HealthOptions{};
  bad.probe_max_backoff_ms = 0.5;  // < probe_backoff_ms
  EXPECT_THROW(HealthTracker(2, bad), Error);

  EXPECT_THROW(HealthTracker(0), Error);
  EXPECT_THROW(HealthTracker(33), Error);

  HealthTracker t(2);
  EXPECT_THROW(t.observe(ev(FaultEvidence::Kind::kFailStop, 2, 0.0)), Error);
  EXPECT_THROW(t.observe(ev(FaultEvidence::Kind::kProbeSuccess, -1, 0.0)), Error);
  EXPECT_THROW(t.observe(ev(FaultEvidence::Kind::kProbeFailure, 2, 0.0)), Error);
  EXPECT_THROW(t.gpu_state(-1), Error);
}

}  // namespace
}  // namespace hios::serve
