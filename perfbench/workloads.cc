// perfbench_workloads: runs one benchmark workload in this process and prints
// its measurements as one JSON line on stdout.
//
//   perfbench_workloads --workload NAME --seed N --seconds S --trace 0|1
//                    --out-dir DIR
//
// A run repeats "passes" of the workload until --seconds have been spent
// (at least one pass). A pass is one set-up (inputs, scheme, trainer,
// snapshot/journal attach) followed by the workload's fixed epoch count.
// Every pass of a run must reproduce the same outputs bit for bit.
//
// --trace 0 measures the end-to-end metrics. --trace 1 alternates untraced
// and traced passes (U T T U ...): the traced ones wrap every model layer
// and the migration policy in timing decorators, record spans into an
// in-memory trace written to DIR/trace.json, and yield the per-layer
// metrics; the untraced ones give the reference outputs and run time the
// traced passes are compared against.
//
// perfbench/run.py builds this binary, runs it once per benchmark run and
// turns the report into the benchmark's result line.

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/fedmigr.h"
#include "core/snapshot.h"
#include "data/synthetic.h"
#include "fl/policies.h"
#include "fl/schemes.h"
#include "fl/trainer.h"
#include "net/device.h"
#include "net/topology.h"
#include "nn/gemm.h"
#include "nn/zoo.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/serial.h"

namespace {

using namespace fedmigr;

// ------------------------------------------------------------ workloads --

enum class Kind { kPaperDrl, kFleetCohort, kDurableChaos };

// What a workload runs; the reasons for each choice are in
// perfbench/NOTES.md.
struct WorkloadSpec {
  const char* name;
  Kind kind;
  int epochs;        // fixed epoch count of one pass
  int num_threads;   // inter-client pool width
  int min_setups;    // set-up samples at least: min_setups - 1 set-up-only
                     // repetitions precede the passes
};

constexpr WorkloadSpec kWorkloads[] = {
    {"paper-drl", Kind::kPaperDrl, 100, 1, 4},
    {"fleet-cohort", Kind::kFleetCohort, 80, 2, 15},
    {"durable-chaos", Kind::kDurableChaos, 120, 1, 15},
};

constexpr int kFleetClients = 100000;
constexpr int kFleetCohort = 100;
constexpr int kFleetSamplesPerClient = 8;
constexpr int kChaosClients = 60;
constexpr int kChaosLans = 6;
constexpr uint64_t kDataSeed = 5;  // bench/common's workload seed

// bench_chaos's script: a two-epoch partition storm every 40 epochs (each
// seals all LANs but one, a different survivor per storm) plus one covering
// the final aggregation, an edge-server outage every 35 epochs and 20%
// per-round churn.
net::ChaosConfig ChaosScript(int epochs, uint64_t seed) {
  net::ChaosConfig chaos;
  int survivor = 0;
  for (int start = 10; start <= epochs; start += 40, ++survivor) {
    for (int lan = 0; lan < kChaosLans; ++lan) {
      if (lan != survivor % kChaosLans) chaos.partitions.push_back({lan, start, 2});
    }
  }
  for (int lan = 1; lan < kChaosLans; ++lan) {
    chaos.partitions.push_back({lan, epochs - 1, 2});
  }
  chaos.outage_period = 35;
  chaos.outage_phase = 5;
  chaos.outage_epochs = 1;
  chaos.churn_rate = 0.2;
  chaos.churn_seed = 101 + seed;
  return chaos;
}

// --------------------------------------------------------- statistics --

// Linear interpolation between closest ranks (numpy's default).
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// ------------------------------------------------- traced-run decorators --

constexpr int kMaxLayers = 32;

// Aggregated nn time per model layer, summed over every model instance and
// every thread (one span per call would dwarf the work it measures).
struct NnClock {
  struct Slot {
    std::atomic<int64_t> fwd_ns{0};
    std::atomic<int64_t> bwd_ns{0};
    std::atomic<int64_t> eval_fwd_ns{0};
  };
  std::array<Slot, kMaxLayers> slots;
  std::vector<std::string> kinds;  // lowercase layer names, by index
};

// Times one layer's forward (split on the training flag) and backward.
// Clones stay timed, so models minted from the aggregate or migrated
// between clients keep reporting.
class TimedLayer final : public nn::Layer {
 public:
  TimedLayer(std::unique_ptr<nn::Layer> inner, int index, NnClock* clock)
      : inner_(std::move(inner)), index_(index), clock_(clock) {}

  nn::Tensor Forward(const nn::Tensor& input, bool training) override {
    const int64_t start = obs::MonotonicNowNs();
    nn::Tensor output = inner_->Forward(input, training);
    NnClock::Slot& slot = clock_->slots[index_];
    (training ? slot.fwd_ns : slot.eval_fwd_ns)
        .fetch_add(obs::MonotonicNowNs() - start, std::memory_order_relaxed);
    return output;
  }
  nn::Tensor Backward(const nn::Tensor& grad_output) override {
    const int64_t start = obs::MonotonicNowNs();
    nn::Tensor grad_input = inner_->Backward(grad_output);
    clock_->slots[index_].bwd_ns.fetch_add(obs::MonotonicNowNs() - start,
                                           std::memory_order_relaxed);
    return grad_input;
  }
  std::vector<nn::Tensor*> Params() override { return inner_->Params(); }
  std::vector<nn::Tensor*> Grads() override { return inner_->Grads(); }
  std::string name() const override { return inner_->name(); }
  std::unique_ptr<nn::Layer> Clone() const override {
    return std::make_unique<TimedLayer>(inner_->Clone(), index_, clock_);
  }

 private:
  std::unique_ptr<nn::Layer> inner_;
  int index_;
  NnClock* clock_;
};

fl::Trainer::ModelFactory TimedModelFactory(fl::Trainer::ModelFactory inner,
                                            NnClock* clock) {
  return [inner = std::move(inner), clock](util::Rng* rng) {
    nn::Sequential plain = inner(rng);
    nn::Sequential timed;
    FEDMIGR_CHECK_LE(plain.num_layers(), kMaxLayers);
    for (int i = 0; i < plain.num_layers(); ++i) {
      timed.Add(std::make_unique<TimedLayer>(plain.layer(i).Clone(), i, clock));
    }
    return timed;
  };
}

// Per-call wall time of the migration policy (DDPG inference and online
// updates on paper-drl; the random planner elsewhere). Calls come from the
// trainer's serial sections only.
struct PolicyClock {
  std::vector<double> plan_ms;
  std::vector<double> feedback_ms;
};

class TimedPolicy final : public fl::MigrationPolicy {
 public:
  TimedPolicy(std::unique_ptr<fl::MigrationPolicy> inner, PolicyClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}

  fl::MigrationPlan Plan(const fl::PolicyContext& ctx) override {
    const obs::Stopwatch watch;
    fl::MigrationPlan plan = inner_->Plan(ctx);
    clock_->plan_ms.push_back(watch.ElapsedMs());
    return plan;
  }
  void Feedback(const fl::PolicyFeedback& feedback) override {
    const obs::Stopwatch watch;
    inner_->Feedback(feedback);
    clock_->feedback_ms.push_back(watch.ElapsedMs());
  }
  std::string name() const override { return inner_->name(); }
  void SaveState(util::ByteWriter* writer) const override {
    inner_->SaveState(writer);
  }
  util::Status LoadState(util::ByteReader* reader) override {
    return inner_->LoadState(reader);
  }

 private:
  std::unique_ptr<fl::MigrationPolicy> inner_;
  PolicyClock* clock_;
};

// Everything a traced pass installs; absent in untraced passes.
struct Instruments {
  NnClock nn;
  PolicyClock policy;
  obs::TraceRecorder trace;
};

// Records a wall-clock span when tracing.
void Span(Instruments* instruments, const std::string& name, int64_t start_ns,
          int64_t end_ns) {
  if (instruments != nullptr) {
    instruments->trace.RecordSpan(name, start_ns, end_ns);
  }
}

// ------------------------------------------------------------- set-up --

struct SetupTimes {
  double make_workload_ms = 0.0;
  double policy_setup_s = 0.0;
  double trainer_construct_ms = 0.0;
  double total_s = 0.0;
};

// One set-up: everything epoch 1 needs.
struct Setup {
  std::unique_ptr<core::Workload> workload;
  fl::TrainerConfig config;
  std::unique_ptr<fl::Trainer> trainer;
  std::unique_ptr<core::SnapshotManager> snapshots;
  std::unique_ptr<obs::Journal> journal;
  std::string journal_path;
  SetupTimes times;
};

// The synthetic data set and its partition are the benches' fixed
// instances, so every seed does the same work per epoch; the run seed
// drives everything else (model init, batch order, cohort and participant
// sampling, the migration policy, churn).
core::Workload MakeInputs(Kind kind) {
  if (kind == Kind::kFleetCohort) {
    // bench_fig6_scalability's fleet: one small synthetic store, every
    // client trains on an 8-sample wrapped slice of it.
    core::Workload workload;
    data::SyntheticSpec spec = data::C10Spec();
    spec.train_per_class = 60;
    workload.data = data::GenerateSynthetic(spec);
    workload.num_classes = spec.num_classes;
    const int n = workload.data.train.size();
    workload.partition.resize(kFleetClients);
    for (int i = 0; i < kFleetClients; ++i) {
      std::vector<int>& slice = workload.partition[static_cast<size_t>(i)];
      slice.reserve(kFleetSamplesPerClient);
      for (int j = 0; j < kFleetSamplesPerClient; ++j) {
        slice.push_back(static_cast<int>(
            (static_cast<int64_t>(i) * kFleetSamplesPerClient + j) % n));
      }
    }
    net::TopologyConfig topology;
    topology.lan_of = net::EvenLanAssignment(kFleetClients, kFleetClients / 1000);
    workload.topology = net::Topology(std::move(topology));
    workload.devices = net::MakeUniformFleet(kFleetClients);
    workload.model_name = "c10";
    workload.model_factory = [](util::Rng* rng) {
      return nn::MakeModelByName("c10", rng);
    };
    return workload;
  }
  // bench/common's operating point: C10 analogue, LAN-correlated label
  // skew, weak class signal.
  core::WorkloadConfig config;
  config.dataset = "c10";
  config.partition = core::PartitionKind::kLanShard;
  config.num_clients = kind == Kind::kPaperDrl ? 10 : kChaosClients;
  config.num_lans = kind == Kind::kPaperDrl ? 3 : kChaosLans;
  config.seed = kDataSeed;
  config.signal_override = 0.35;
  config.train_per_class_override = 60;
  return core::MakeWorkload(config);
}

core::FedMigrOptions PaperDrlOptions(uint64_t seed) {
  core::FedMigrOptions options;
  options.agg_period = 5;
  options.policy.online_learning = true;
  options.policy.rho = 0.2;
  options.agent.seed = 7 + 1000 * seed;
  options.pretrain.seed = 11 + 1000 * seed;
  options.policy.seed = 23 + 1000 * seed;
  return options;
}

// The scheme (trainer config + migration policy). `fresh_agent` forces the
// paper-drl agent to be pre-trained again rather than taken from the
// in-process cache, so every set-up pays the cost a fresh process pays.
fl::SchemeSetup MakeScheme(const WorkloadSpec& spec, const core::Workload& w,
                           uint64_t seed, bool fresh_agent) {
  fl::SchemeSetup setup;
  switch (spec.kind) {
    case Kind::kPaperDrl: {
      const core::FedMigrOptions options = PaperDrlOptions(seed);
      if (fresh_agent) {
        core::ClearAgentCache();
        const auto agent =
            core::GetOrTrainAgent(w.topology, w.num_classes, options);
        (void)agent;
      }
      setup = core::MakeFedMigr(w.topology, w.num_classes, options);
      setup.config.learning_rate = 0.05;
      setup.config.batch_size = 16;
      setup.config.eval_every = 25;
      break;
    }
    case Kind::kFleetCohort:
      setup = fl::MakeSchemeByName("randmigr", 5);
      setup.config.cohort_size = kFleetCohort;
      setup.config.batch_size = 8;
      setup.config.eval_every = 25;
      break;
    case Kind::kDurableChaos:
      setup = fl::MakeSchemeByName("randmigr", 2);
      setup.config.learning_rate = 0.05;
      setup.config.batch_size = 16;
      setup.config.eval_every = 10;
      setup.config.cohort_size = 16;
      setup.config.quorum_fraction = 0.5;
      setup.config.fault.chaos = ChaosScript(spec.epochs, seed);
      setup.config.robust.aggregator = fl::AggregatorKind::kTrimmedMean;
      break;
  }
  setup.config.max_epochs = spec.epochs;
  setup.config.num_threads = spec.num_threads;
  setup.config.seed = seed;
  return setup;
}

std::unique_ptr<fl::Trainer> MakeTrainer(const core::Workload& w,
                                         fl::TrainerConfig config,
                                         std::unique_ptr<fl::MigrationPolicy> policy,
                                         Instruments* instruments) {
  fl::Trainer::ModelFactory factory = w.model_factory;
  if (instruments != nullptr) {
    factory = TimedModelFactory(std::move(factory), &instruments->nn);
    policy = std::make_unique<TimedPolicy>(std::move(policy),
                                           &instruments->policy);
  }
  return std::make_unique<fl::Trainer>(
      std::move(config), &w.data.train, w.partition, &w.data.test, w.topology,
      w.devices, std::move(factory), std::move(policy));
}

// Builds one set-up, timing each stage. Durable-chaos snapshots and its
// journal go under `scratch_dir`.
Setup SetUp(const WorkloadSpec& spec, uint64_t seed,
            const std::string& scratch_dir, Instruments* instruments) {
  Setup setup;
  const int64_t start = obs::MonotonicNowNs();

  int64_t t0 = obs::MonotonicNowNs();
  setup.workload = std::make_unique<core::Workload>(MakeInputs(spec.kind));
  int64_t t1 = obs::MonotonicNowNs();
  Span(instruments, "setup/make_workload", t0, t1);
  setup.times.make_workload_ms = NsToMs(t1 - t0);

  t0 = t1;
  fl::SchemeSetup scheme = MakeScheme(spec, *setup.workload, seed, true);
  t1 = obs::MonotonicNowNs();
  Span(instruments, "setup/policy", t0, t1);
  setup.times.policy_setup_s = NsToMs(t1 - t0) * 1e-3;

  t0 = t1;
  setup.config = scheme.config;
  setup.trainer = MakeTrainer(*setup.workload, scheme.config,
                              std::move(scheme.policy), instruments);
  t1 = obs::MonotonicNowNs();
  Span(instruments, "setup/trainer_construct", t0, t1);
  setup.times.trainer_construct_ms = NsToMs(t1 - t0);

  if (spec.kind == Kind::kDurableChaos) {
    t0 = t1;
    core::SnapshotOptions options;
    options.directory = scratch_dir + "/snapshots";
    options.every_epochs = 1;
    options.keep = 2;
    setup.snapshots = std::make_unique<core::SnapshotManager>(options);
    std::error_code made;
    std::filesystem::create_directories(scratch_dir, made);
    setup.journal_path = scratch_dir + "/journal.fjrn";
    obs::Journal::Options journal_options;
    journal_options.path = setup.journal_path;
    journal_options.sample_rate = 1.0;
    setup.journal = std::make_unique<obs::Journal>(journal_options);
    const util::Status attached = setup.journal->Attach(0);
    if (!attached.ok()) {
      std::fprintf(stderr, "journal attach failed: %s\n",
                   attached.ToString().c_str());
      std::exit(1);
    }
    setup.trainer->SetJournal(setup.journal.get());
    t1 = obs::MonotonicNowNs();
    Span(instruments, "setup/attach", t0, t1);
  }
  setup.times.total_s = NsToMs(t1 - start) * 1e-3;
  Span(instruments, "setup", start, t1);
  return setup;
}

// --------------------------------------------------------------- pass --

struct PassResult {
  fl::RunResult result;
  SetupTimes setup;
  double run_s = 0.0;
  std::vector<double> epoch_ms;
  std::vector<double> save_ms;
  double resume_ms = 0.0;
  // fl/evaluate time spent inside fl/aggregate (evaluation on aggregation
  // epochs nests in the aggregate scope; on other epochs it stands alone).
  double nested_eval_ms = 0.0;
  double snapshot_mb = 0.0;
  double journal_kb = 0.0;
  int materialized_clients = 0;
  // Any failure in `failures` fails every epoch of the pass; a failed
  // snapshot save fails only its own epoch.
  std::vector<std::string> failures;
  std::vector<std::string> save_failures;
  obs::MetricsSnapshot before;  // registry around the timed epochs
  obs::MetricsSnapshot after;
};

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(a));
}

// Output checks on a finished pass.
void CheckPass(const WorkloadSpec& spec, const Setup& setup, PassResult* pass) {
  std::vector<std::string>& failures = pass->failures;
  const fl::RunResult& r = pass->result;
  if (r.epochs_run != spec.epochs || r.interrupted) {
    failures.push_back("pass stopped at epoch " + std::to_string(r.epochs_run));
  }
  if (!Near(r.traffic_gb, r.c2s_gb + r.c2c_gb)) {
    failures.push_back("traffic_gb != c2s_gb + c2c_gb");
  }
  if (!Near(r.c2s_gb, r.c2s_up_gb + r.c2s_down_gb)) {
    failures.push_back("c2s_gb != c2s_up_gb + c2s_down_gb");
  }
  const fl::ChaosCounters& c = r.chaos;
  if (c.migrations_planned != c.migrations_completed + c.migration_fallbacks +
                                  c.migrations_rolled_back) {
    failures.push_back("migration ledger does not reconcile");
  }
  if (setup.journal != nullptr) {
    // bench_chaos's reconciliation: the summary chunk re-derives from the
    // event stream, and the events agree with the trainer's counters.
    const util::Result<obs::JournalContents> contents =
        obs::ReadJournalFile(setup.journal_path);
    if (!contents.ok() || !contents->has_summary) {
      failures.push_back("journal unreadable or unsealed");
    } else {
      const obs::JournalSummary derived =
          obs::SummarizeJournalEvents(contents->events);
      const obs::JournalSummary& s = contents->summary;
      const bool summary_ok =
          s.epochs_run == derived.epochs_run &&
          s.migrations_planned == derived.migrations_planned &&
          s.migrations_completed == derived.migrations_completed &&
          s.migration_fallbacks == derived.migration_fallbacks &&
          s.migrations_rolled_back == derived.migrations_rolled_back &&
          s.quorum_commits == derived.quorum_commits &&
          s.quorum_misses == derived.quorum_misses;
      const bool counters_ok =
          derived.epochs_run == r.epochs_run &&
          derived.migrations_planned == c.migrations_planned &&
          derived.migrations_completed == c.migrations_completed &&
          derived.migration_fallbacks == c.migration_fallbacks &&
          derived.migrations_rolled_back == c.migrations_rolled_back &&
          derived.quorum_commits == c.quorum_commits &&
          derived.quorum_misses == c.quorum_misses &&
          derived.carryover_clients == c.carryover_clients &&
          derived.churn_absences == c.churn_absences &&
          derived.churn_departures == c.churn_departures;
      if (!summary_ok) failures.push_back("journal summary != its events");
      if (!counters_ok) failures.push_back("journal events != RunResult");
    }
  }
}

// Restores `trainer` from the newest snapshot of `manager` and checks that
// the restored state serializes back to exactly the bytes it loaded.
// Returns the epoch resumed from (-1 on failure).
int ResumeAndVerify(const core::SnapshotManager& manager, fl::Trainer* trainer,
                    double* resume_ms, std::vector<std::string>* failures) {
  const obs::Stopwatch watch;
  const util::Result<int> resumed = manager.Resume(trainer);
  *resume_ms = watch.ElapsedMs();
  if (!resumed.ok() || *resumed <= 0) {
    failures->push_back("resume found no usable snapshot");
    return -1;
  }
  // Resume succeeded, so the list is non-empty; the newest file is the one
  // it loaded unless that one was damaged, which the comparison reports.
  const util::Result<std::vector<uint8_t>> loaded =
      core::ReadSnapshotFile(manager.ListSnapshots().front());
  util::ByteWriter writer;
  trainer->SaveState(&writer);
  if (!loaded.ok() || writer.bytes() != *loaded) {
    failures->push_back("resumed SaveState bytes != loaded snapshot");
  }
  return *resumed;
}

double FileKb(const std::string& path) {
  std::error_code error;
  const auto size = std::filesystem::file_size(path, error);
  return error ? 0.0 : static_cast<double>(size) / 1e3;
}

// One pass: set-up, the fixed epoch count, output checks. Durable-chaos
// stops through the epoch hook at the midpoint and continues on a fresh
// trainer restored from the newest snapshot (the read path beside the
// write path). With `probe_snapshots`, the other workloads exercise the
// same save/resume path on the finished trainer.
PassResult RunPass(const WorkloadSpec& spec, uint64_t seed,
                   const std::string& scratch_dir, Instruments* instruments,
                   bool probe_snapshots) {
  std::error_code ignored;
  std::filesystem::remove_all(scratch_dir, ignored);
  const int64_t pass_start = obs::MonotonicNowNs();
  Setup setup = SetUp(spec, seed, scratch_dir, instruments);
  PassResult pass;
  pass.setup = setup.times;

  const int stop_at = spec.kind == Kind::kDurableChaos ? spec.epochs / 2 : 0;
  int64_t last_ns = 0;
  obs::Histogram* aggregate_hist =
      obs::Registry::Default().GetHistogram("fl/aggregate");
  obs::Histogram* evaluate_hist =
      obs::Registry::Default().GetHistogram("fl/evaluate");
  int64_t last_aggregations = aggregate_hist->count();
  double last_eval_ms = evaluate_hist->sum();
  auto hook = [&](const fl::Trainer& trainer, int epoch) {
    if (instruments != nullptr) {
      if (aggregate_hist->count() != last_aggregations) {
        pass.nested_eval_ms += evaluate_hist->sum() - last_eval_ms;
      }
      last_aggregations = aggregate_hist->count();
      last_eval_ms = evaluate_hist->sum();
    }
    if (setup.snapshots != nullptr) {
      const int64_t start = obs::MonotonicNowNs();
      const util::Status saved = setup.snapshots->Save(trainer, epoch);
      const int64_t end = obs::MonotonicNowNs();
      pass.save_ms.push_back(NsToMs(end - start));
      Span(instruments, "snapshot_save", start, end);
      if (!saved.ok()) {
        pass.save_failures.push_back("snapshot save failed: " +
                                     saved.ToString());
      }
    }
    const int64_t now = obs::MonotonicNowNs();
    pass.epoch_ms.push_back(NsToMs(now - last_ns));
    Span(instruments, "epoch " + std::to_string(epoch), last_ns, now);
    last_ns = now;
    return epoch != stop_at;
  };
  setup.trainer->SetEpochHook(hook);

  pass.before = obs::Registry::Default().Snapshot();
  const int64_t run_start = obs::MonotonicNowNs();
  last_ns = run_start;
  pass.result = setup.trainer->Run();
  if (stop_at > 0 && pass.result.interrupted) {
    const int64_t resume_start = obs::MonotonicNowNs();
    fl::SchemeSetup scheme = MakeScheme(spec, *setup.workload, seed, false);
    setup.trainer = MakeTrainer(*setup.workload, setup.config,
                                std::move(scheme.policy), instruments);
    const int resumed = ResumeAndVerify(*setup.snapshots, setup.trainer.get(),
                                        &pass.resume_ms, &pass.failures);
    obs::Journal::Options journal_options;
    journal_options.path = setup.journal_path;
    journal_options.sample_rate = setup.journal->sample_rate();
    setup.journal = std::make_unique<obs::Journal>(journal_options);
    const util::Status attached = setup.journal->Attach(std::max(0, resumed));
    if (!attached.ok()) pass.failures.push_back("journal re-attach failed");
    setup.trainer->SetJournal(setup.journal.get());
    setup.trainer->SetEpochHook(hook);
    const int64_t resume_end = obs::MonotonicNowNs();
    Span(instruments, "resume", resume_start, resume_end);
    last_ns = resume_end;
    if (resumed > 0 && attached.ok()) pass.result = setup.trainer->Run();
  }
  const int64_t run_end = obs::MonotonicNowNs();
  pass.after = obs::Registry::Default().Snapshot();
  pass.run_s = NsToMs(run_end - run_start) * 1e-3;
  pass.materialized_clients = setup.trainer->num_materialized_clients();
  Span(instruments, "run", run_start, run_end);

  CheckPass(spec, setup, &pass);
  if (setup.snapshots != nullptr) {
    const std::vector<std::string> snapshots = setup.snapshots->ListSnapshots();
    if (!snapshots.empty()) pass.snapshot_mb = FileKb(snapshots.front()) / 1e3;
    pass.journal_kb = FileKb(setup.journal_path);
  } else if (probe_snapshots) {
    core::SnapshotOptions options;
    options.directory = scratch_dir + "/probe";
    options.keep = 1;
    core::SnapshotManager probe(options);
    for (int i = 0; i < 3; ++i) {
      const int64_t start = obs::MonotonicNowNs();
      const util::Status saved = probe.Save(*setup.trainer, spec.epochs);
      const int64_t end = obs::MonotonicNowNs();
      pass.save_ms.push_back(NsToMs(end - start));
      Span(instruments, "snapshot_save", start, end);
      if (!saved.ok()) pass.failures.push_back("probe save failed");
    }
    const std::vector<std::string> snapshots = probe.ListSnapshots();
    if (!snapshots.empty()) pass.snapshot_mb = FileKb(snapshots.front()) / 1e3;
    fl::SchemeSetup scheme = MakeScheme(spec, *setup.workload, seed, false);
    std::unique_ptr<fl::Trainer> fresh = MakeTrainer(
        *setup.workload, setup.config, std::move(scheme.policy), nullptr);
    const int64_t start = obs::MonotonicNowNs();
    ResumeAndVerify(probe, fresh.get(), &pass.resume_ms, &pass.failures);
    Span(instruments, "resume", start, obs::MonotonicNowNs());
  }
  Span(instruments, "pass", pass_start, obs::MonotonicNowNs());
  std::filesystem::remove_all(scratch_dir, ignored);
  return pass;
}

// ------------------------------------------------------------- report --

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out;
}

std::string Num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Lower(std::string text) {
  for (char& ch : text) ch = static_cast<char>(std::tolower(ch));
  return text;
}

double HistogramSumDelta(const PassResult& pass, const std::string& name) {
  const auto* after = pass.after.FindHistogram(name);
  const auto* before = pass.before.FindHistogram(name);
  return (after != nullptr ? after->sum : 0.0) -
         (before != nullptr ? before->sum : 0.0);
}

double CounterDelta(const PassResult& pass, const std::string& name) {
  return static_cast<double>(pass.after.CounterValue(name) -
                             pass.before.CounterValue(name));
}

// Per-layer metrics from the traced passes. Totals are per pass (the mean
// over traced passes); p50/p90 pool every sample.
std::vector<Metric> PerLayerMetrics(const WorkloadSpec& spec,
                                    const std::vector<PassResult>& traced,
                                    const Instruments& instruments,
                                    double untraced_run_s,
                                    double traced_run_s,
                                    std::vector<std::string>* failures_out) {
  const double n = static_cast<double>(traced.size());
  std::vector<Metric> metrics;
  double nn_train_ms = 0.0;
  for (size_t i = 0; i < instruments.nn.kinds.size(); ++i) {
    const NnClock::Slot& slot = instruments.nn.slots[i];
    const std::string layer =
        "L" + std::to_string(i) + "-" + instruments.nn.kinds[i];
    const double fwd = NsToMs(slot.fwd_ns.load()) / n;
    const double bwd = NsToMs(slot.bwd_ns.load()) / n;
    nn_train_ms += fwd + bwd;
    metrics.push_back({"nn.fwd_ms." + layer, fwd, "ms"});
    metrics.push_back({"nn.bwd_ms." + layer, bwd, "ms"});
  }
  double eval_ms = 0.0;
  for (const NnClock::Slot& slot : instruments.nn.slots) {
    eval_ms += NsToMs(slot.eval_fwd_ns.load()) / n;
  }
  metrics.push_back({"nn.eval_fwd_ms", eval_ms, "ms"});
  metrics.push_back(
      {"fl.policy_plan_ms_p50", Median(instruments.policy.plan_ms), "ms"});
  metrics.push_back({"fl.policy_feedback_ms_p50",
                     Median(instruments.policy.feedback_ms), "ms"});

  std::vector<double> make_workload, policy_setup, construct, save, resume;
  std::vector<double> snapshot_mb;
  double sums[5] = {0, 0, 0, 0, 0};
  double nested_eval = 0;
  double shard_misses = 0, materialized = 0, planned = 0, delivered = 0;
  double gemm_calls = 0, gemm_flops = 0, conv_calls = 0, transfers = 0;
  double c2s_mb = 0, c2c_mb = 0, failures = 0, retries = 0, fallbacks = 0;
  double journal_kb = 0;
  const char* phases[] = {"fl/local_update", "fl/aggregate", "fl/migrate",
                          "fl/evaluate", "fl/epoch"};
  for (const PassResult& pass : traced) {
    make_workload.push_back(pass.setup.make_workload_ms);
    policy_setup.push_back(pass.setup.policy_setup_s);
    construct.push_back(pass.setup.trainer_construct_ms);
    if (!pass.save_ms.empty()) {  // passes that saved (or probed) snapshots
      save.insert(save.end(), pass.save_ms.begin(), pass.save_ms.end());
      resume.push_back(pass.resume_ms);
      snapshot_mb.push_back(pass.snapshot_mb);
    }
    for (int p = 0; p < 5; ++p) sums[p] += HistogramSumDelta(pass, phases[p]) / n;
    nested_eval += pass.nested_eval_ms / n;
    shard_misses += CounterDelta(pass, "fl/shard_misses") / n;
    materialized += pass.materialized_clients / n;
    const fl::RunResult& r = pass.result;
    planned += static_cast<double>(r.chaos.migrations_planned);
    delivered += static_cast<double>(r.chaos.migrations_completed +
                                     r.chaos.migration_fallbacks);
    gemm_calls += CounterDelta(pass, "nn/gemm_calls") / n;
    gemm_flops += CounterDelta(pass, "nn/gemm_flops") / n;
    conv_calls += CounterDelta(pass, "nn/conv_calls") / n;
    transfers += CounterDelta(pass, "net/transfers") / n;
    c2s_mb += r.c2s_gb * 1e3 / n;
    c2c_mb += r.c2c_gb * 1e3 / n;
    failures += static_cast<double>(r.faults.failures) / n;
    retries += static_cast<double>(r.faults.retries) / n;
    fallbacks += static_cast<double>(r.faults.fallbacks) / n;
    journal_kb += pass.journal_kb / n;
  }
  metrics.push_back({"core.policy_setup_s", Median(policy_setup), "s"});
  metrics.push_back({"core.make_workload_ms", Median(make_workload), "ms"});
  metrics.push_back({"fl.trainer_construct_ms", Median(construct), "ms"});
  metrics.push_back({"core.snapshot_save_ms_p50", Percentile(save, 50), "ms"});
  metrics.push_back({"core.snapshot_save_ms_p90", Percentile(save, 90), "ms"});
  metrics.push_back({"core.snapshot_mb", Median(snapshot_mb), "MB"});
  metrics.push_back({"core.resume_ms", Median(resume), "ms"});
  metrics.push_back({"obs.journal_kb", journal_kb, "kB"});
  // fl.aggregate_ms is the aggregate scope's self time, so the four phases
  // are disjoint and, with the remainder, add up to fl/epoch.
  sums[1] -= nested_eval;
  const double phase_total = sums[0] + sums[1] + sums[2] + sums[3];
  // The phases nest inside fl/epoch; a remainder below zero (beyond timer
  // granularity) means the phase accounting is broken.
  if (sums[4] - phase_total < -1e-3 * sums[4]) {
    failures_out->push_back("fl/* phases exceed fl/epoch");
  }
  metrics.push_back({"fl.local_update_ms", sums[0], "ms"});
  metrics.push_back({"fl.aggregate_ms", sums[1], "ms"});
  metrics.push_back({"fl.migrate_ms", sums[2], "ms"});
  metrics.push_back({"fl.evaluate_ms", sums[3], "ms"});
  metrics.push_back({"fl.epoch_other_ms", sums[4] - phase_total, "ms"});
  metrics.push_back({"util.pool_busy_frac",
                     sums[0] > 0.0 ? nn_train_ms / (sums[0] * spec.num_threads)
                                   : 0.0,
                     "frac"});
  metrics.push_back({"fl.materialized_clients", materialized, "count"});
  metrics.push_back({"fl.shard_misses", shard_misses, "count"});
  metrics.push_back({"fl.migrations_completed_frac",
                     planned > 0.0 ? delivered / planned : 1.0, "frac"});
  metrics.push_back({"nn.gemm_calls", gemm_calls, "count"});
  metrics.push_back({"nn.gemm_gflop", gemm_flops / 1e9, "GFLOP"});
  metrics.push_back({"nn.conv_calls", conv_calls, "count"});
  metrics.push_back({"net.transfers", transfers, "count"});
  metrics.push_back({"net.c2s_mb", c2s_mb, "MB"});
  metrics.push_back({"net.c2c_mb", c2c_mb, "MB"});
  metrics.push_back({"net.fault_failures", failures, "count"});
  metrics.push_back({"net.fault_retries", retries, "count"});
  metrics.push_back({"net.fault_fallbacks", fallbacks, "count"});
  metrics.push_back({"obs.trace_overhead_frac",
                     traced_run_s / untraced_run_s - 1.0, "frac"});
  return metrics;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->out_dir.empty() &&
         args->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_workloads --workload NAME --seed N --seconds S"
                 " --trace 0|1 --out-dir DIR\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& candidate : kWorkloads) {
    if (args.workload == candidate.name) spec = &candidate;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string scratch_dir =
      args.out_dir + "/scratch-" + std::to_string(::getpid());

  std::unique_ptr<Instruments> instruments;
  if (args.trace) {
    instruments = std::make_unique<Instruments>();
    instruments->trace.Start(1 << 16);
    // Every workload trains C10Net; its layer kinds name the nn metrics.
    util::Rng probe(0);
    nn::Sequential model = nn::MakeModelByName("c10", &probe);
    for (int i = 0; i < model.num_layers() && i < kMaxLayers; ++i) {
      instruments->nn.kinds.push_back(Lower(model.layer(i).name()));
    }
  }

  // Set-up-only repetitions: set-up is short next to a pass, so its median
  // needs more samples than the passes give.
  std::vector<double> setup_s;
  const obs::Stopwatch run_watch;
  if (!args.trace) {
    for (int i = 1; i < spec->min_setups; ++i) {
      const Setup setup = SetUp(*spec, args.seed, scratch_dir, nullptr);
      setup_s.push_back(setup.times.total_s);
    }
  }

  const double passes_start_s = run_watch.ElapsedSeconds();
  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  std::vector<std::string> failures;
  int attempted = 0;
  int failed = 0;
  for (int i = 0;; ++i) {
    // Traced runs alternate U T T U so drift cancels in the comparison.
    const bool trace_pass = args.trace && (i % 4 == 1 || i % 4 == 2);
    // The snapshot probe costs seconds at K = 100,000: once per run.
    PassResult pass = RunPass(*spec, args.seed, scratch_dir,
                              trace_pass ? instruments.get() : nullptr,
                              trace_pass && traced.empty());
    attempted += spec->epochs;
    const PassResult& reference = untraced.empty() ? pass : untraced.front();
    if (pass.result.final_accuracy != reference.result.final_accuracy ||
        pass.result.traffic_gb != reference.result.traffic_gb ||
        pass.result.time_s != reference.result.time_s) {
      pass.failures.push_back(std::string(trace_pass ? "traced" : "untraced") +
                              " pass " + std::to_string(i) +
                              " outputs differ from pass 0");
    }
    failed += pass.failures.empty()
                  ? static_cast<int>(pass.save_failures.size())
                  : spec->epochs;
    failures.insert(failures.end(), pass.failures.begin(), pass.failures.end());
    failures.insert(failures.end(), pass.save_failures.begin(),
                    pass.save_failures.end());
    setup_s.push_back(pass.setup.total_s);
    (trace_pass ? traced : untraced).push_back(std::move(pass));

    // Stop when another pass of average length would overrun --seconds.
    const double elapsed = run_watch.ElapsedSeconds();
    const double per_pass = (elapsed - passes_start_s) / (i + 1);
    const bool enough = !args.trace || !traced.empty();
    if (enough && elapsed + per_pass > args.seconds) break;
  }

  std::vector<Metric> metrics;
  std::vector<double> run_s;
  std::vector<double> epoch_ms;
  for (const PassResult& pass : untraced) {
    run_s.push_back(pass.run_s);
    epoch_ms.insert(epoch_ms.end(), pass.epoch_ms.begin(), pass.epoch_ms.end());
  }
  const fl::RunResult& outputs = untraced.front().result;
  if (args.trace) {
    std::vector<double> traced_run_s;
    for (const PassResult& pass : traced) traced_run_s.push_back(pass.run_s);
    metrics = PerLayerMetrics(*spec, traced, *instruments, Median(run_s),
                              Median(traced_run_s), &failures);
    instruments->trace.Stop();
    const util::Status written =
        instruments->trace.WriteChromeJson(args.out_dir + "/trace.json");
    if (!written.ok()) failures.push_back("trace write failed");
    if (instruments->trace.dropped() > 0) failures.push_back("trace dropped spans");
  } else {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"run_s", Median(run_s), "s"},
        {"epoch_ms_p50", Percentile(epoch_ms, 50), "ms"},
        {"epoch_ms_p90", Percentile(epoch_ms, 90), "ms"},
        {"peak_rss_mb", static_cast<double>(obs::PeakRssBytes()) / 1e6, "MB"},
        {"traffic_gb", outputs.traffic_gb, "GB"},
    };
  }

  const char* intra_env = std::getenv("FEDMIGR_INTRA_OP_THREADS");
  std::string out = "{\"workload\": \"" + std::string(spec->name) + "\"";
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"trace\": " + std::string(args.trace ? "1" : "0");
  out += ", \"epochs_per_pass\": " + std::to_string(spec->epochs);
  out += ", \"passes\": " + std::to_string(untraced.size() + traced.size());
  out += ", \"traced_passes\": " + std::to_string(traced.size());
  out += ", \"epoch_samples\": " + std::to_string(epoch_ms.size());
  out += ", \"setup_samples\": " + std::to_string(setup_s.size());
  out += ", \"setup_s\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    out += (i > 0 ? ", " : "") + Num(setup_s[i]);
  }
  out += "], \"run_s\": [";
  for (size_t i = 0; i < run_s.size(); ++i) {
    out += (i > 0 ? ", " : "") + Num(run_s[i]);
  }
  out += "]";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"failures\": [";
  for (size_t i = 0; i < failures.size(); ++i) {
    out += (i > 0 ? ", \"" : "\"") + JsonEscape(failures[i]) + "\"";
  }
  out += "], \"outputs\": {\"final_accuracy\": " + Num(outputs.final_accuracy);
  out += ", \"traffic_gb\": " + Num(outputs.traffic_gb);
  out += ", \"sim_time_s\": " + Num(outputs.time_s) + "}";
  out += ", \"manifest\": {\"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  out += ", \"compiler\": \"" PERFBENCH_COMPILER "\"";
  out += ", \"num_threads\": " + std::to_string(spec->num_threads);
  out += ", \"intra_op_threads\": " + std::to_string(nn::GetIntraOpThreads());
  out += ", \"FEDMIGR_INTRA_OP_THREADS\": \"" +
         JsonEscape(intra_env != nullptr ? intra_env : "") + "\"";
  out += ", \"gemm_kernel\": \"" + std::string(nn::GemmKernelName()) + "\"}";
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
