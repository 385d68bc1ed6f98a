// Trainer-level telemetry: a short run populates the phase histograms and
// the fl/net counters, the registry mirror agrees with the per-run structs,
// and the byte-for-byte run outputs (history, traffic, faults) are identical
// with telemetry enabled and disabled.

#include <string>

#include <gtest/gtest.h>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/schemes.h"
#include "fl/trainer.h"
#include "nn/zoo.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace fedmigr::fl {
namespace {

struct TinyWorkload {
  TinyWorkload() {
    data::SyntheticSpec spec = data::C10Spec();
    spec.train_per_class = 20;
    spec.test_per_class = 5;
    data = data::GenerateSynthetic(spec);
    topology = net::MakeC10SimTopology();
    devices = net::MakeUniformFleet(10);
    util::Rng rng(3);
    partition = data::PartitionByClassShards(data.train, 10, 1, &rng);
  }

  RunResult Run(const std::string& scheme, int epochs, int num_threads = 1) {
    SchemeSetup setup =
        scheme == "randmigr" ? MakeRandMigr(/*agg_period=*/2) : MakeFedAvg();
    setup.config.max_epochs = epochs;
    setup.config.eval_every = 2;
    setup.config.num_threads = num_threads;
    Trainer trainer(setup.config, &data.train, partition, &data.test,
                    topology, devices,
                    [](util::Rng* rng) { return nn::MakeC10Net(rng); },
                    std::move(setup.policy));
    return trainer.Run();
  }

  data::TrainTest data;
  data::Partition partition;
  net::Topology topology;
  std::vector<net::DeviceProfile> devices;
};

TEST(TrainerTelemetryTest, RunPopulatesPhaseHistogramsAndCounters) {
  if (!obs::Telemetry::compiled_in()) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  TinyWorkload w;
  const obs::MetricsSnapshot before = obs::Registry::Default().Snapshot();
  const RunResult result = w.Run("randmigr", 4);

  // RunResult carries the snapshot taken as Run() returned.
  EXPECT_FALSE(result.metrics.counters.empty());
  EXPECT_EQ(result.metrics.CounterValue("fl/epochs_run") -
                before.CounterValue("fl/epochs_run"),
            4);
  EXPECT_GT(result.metrics.CounterValue("fl/aggregations"),
            before.CounterValue("fl/aggregations"));

  // Registry traffic mirror agrees with the per-run accountant (the registry
  // is process-cumulative, so compare deltas).
  EXPECT_EQ(result.metrics.CounterValue("net/c2s_bytes") -
                before.CounterValue("net/c2s_bytes"),
            result.traffic.c2s_bytes());
  EXPECT_EQ(result.metrics.CounterValue("net/c2c_bytes") -
                before.CounterValue("net/c2c_bytes"),
            result.traffic.c2c_bytes());

  // Every epoch passes through the traced phases.
  const obs::MetricsSnapshot::HistogramSample* epoch =
      result.metrics.FindHistogram("fl/epoch");
  const obs::MetricsSnapshot::HistogramSample* local =
      result.metrics.FindHistogram("fl/local_update");
  ASSERT_NE(epoch, nullptr);
  ASSERT_NE(local, nullptr);
  const obs::MetricsSnapshot::HistogramSample* epoch_before =
      before.FindHistogram("fl/epoch");
  EXPECT_EQ(epoch->count - (epoch_before != nullptr ? epoch_before->count : 0),
            4);
  EXPECT_GE(local->count, epoch->count);
  EXPECT_GT(epoch->sum, 0.0);

  // Loss/accuracy gauges hold the last epoch's values.
  EXPECT_DOUBLE_EQ(result.metrics.GaugeValue("fl/train_loss"),
                   result.history.back().train_loss);
}

TEST(TrainerTelemetryTest, GemmTalliesArePublishedAtRunBoundaries) {
  if (!obs::Telemetry::compiled_in()) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  // GEMM counters batch per thread. Every local-update task and both edges
  // of Run() publish the batch, so the registry delta across one run counts
  // exactly its GEMMs — the same work whatever the pool width, and the
  // same on a repeat.
  TinyWorkload w;
  auto gemm_delta = [&w](int num_threads, const char* name) {
    const obs::MetricsSnapshot before = obs::Registry::Default().Snapshot();
    const RunResult result = w.Run("randmigr", 3, num_threads);
    return result.metrics.CounterValue(name) - before.CounterValue(name);
  };
  const int64_t calls = gemm_delta(1, "nn/gemm_calls");
  EXPECT_GT(calls, 0);
  EXPECT_EQ(gemm_delta(4, "nn/gemm_calls"), calls);
  EXPECT_EQ(gemm_delta(1, "nn/gemm_calls"), calls);
  const int64_t flops = gemm_delta(1, "nn/gemm_flops");
  EXPECT_GT(flops, 0);
  EXPECT_EQ(gemm_delta(4, "nn/gemm_flops"), flops);
}

TEST(TrainerTelemetryTest, DisabledTelemetryLeavesResultsIdentical) {
  TinyWorkload w;
  const RunResult enabled = w.Run("fedavg", 3);

  obs::Telemetry::Disable();
  const RunResult disabled = w.Run("fedavg", 3);
  obs::Telemetry::Enable();

  // Telemetry must be observation-only: identical learning trajectory,
  // traffic and simulated time either way.
  ASSERT_EQ(enabled.history.size(), disabled.history.size());
  for (size_t i = 0; i < enabled.history.size(); ++i) {
    EXPECT_EQ(enabled.history[i].train_loss, disabled.history[i].train_loss);
    EXPECT_EQ(enabled.history[i].test_accuracy,
              disabled.history[i].test_accuracy);
    EXPECT_EQ(enabled.history[i].cumulative_time_s,
              disabled.history[i].cumulative_time_s);
  }
  EXPECT_EQ(enabled.traffic.c2s_bytes(), disabled.traffic.c2s_bytes());
  EXPECT_EQ(enabled.traffic.c2c_bytes(), disabled.traffic.c2c_bytes());

  // And the disabled run reports no metrics at all.
  EXPECT_TRUE(disabled.metrics.counters.empty());
  EXPECT_TRUE(disabled.metrics.histograms.empty());
}

TEST(TrainerTelemetryTest, SimSpansLandOnSimulatedTimeTracks) {
  if (!obs::Telemetry::compiled_in()) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  TinyWorkload w;
  obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
  recorder.Start();
  (void)w.Run("randmigr", 3);
  recorder.Stop();

  int sim_spans = 0;
  int wall_spans = 0;
  for (const obs::TraceEvent& e : recorder.ExportEvents()) {
    if (e.pid == 2) ++sim_spans;
    if (e.pid == 1 && !e.instant) ++wall_spans;
  }
  recorder.Clear();
  // One epoch span + phase spans per epoch on pid 2; the RAII scopes land
  // on pid 1.
  EXPECT_GE(sim_spans, 6);
  EXPECT_GE(wall_spans, 6);
}

}  // namespace
}  // namespace fedmigr::fl
