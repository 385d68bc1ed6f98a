#include "common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "fl/policies.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/file.h"
#include "util/logging.h"

namespace fedmigr::bench {

core::Workload MakeBenchWorkload(const BenchWorkloadOptions& options) {
  core::WorkloadConfig config;
  config.dataset = options.dataset;
  config.partition = options.partition;
  config.partition_param = options.partition_param;
  config.num_clients = options.num_clients;
  config.num_lans = options.num_lans;
  config.seed = options.seed;
  config.signal_override = options.signal;
  config.train_per_class_override = options.train_per_class;
  return core::MakeWorkload(config);
}

fl::SchemeSetup MakeBenchScheme(const std::string& name,
                                const core::Workload& workload,
                                const BenchRunOptions& options) {
  fl::SchemeSetup setup;
  if (name == "fedmigr") {
    core::FedMigrOptions fedmigr_options;
    fedmigr_options.agg_period = options.agg_period;
    fedmigr_options.policy.online_learning = true;
    fedmigr_options.policy.rho = 0.2;
    setup = core::MakeFedMigr(workload.topology, workload.num_classes,
                              fedmigr_options);
  } else if (name == "crosslan" || name == "withinlan") {
    setup.config.scheme_name = name;
    setup.config.agg_period = options.agg_period;
    setup.policy =
        std::make_unique<fl::LanConstrainedPolicy>(name == "crosslan");
  } else if (name == "randonly") {
    setup.config.scheme_name = "random";
    setup.config.agg_period = options.agg_period;
    setup.policy = std::make_unique<fl::RandomMigrationPolicy>();
  } else {
    setup = fl::MakeSchemeByName(name, options.agg_period);
  }
  setup.config.max_epochs = options.max_epochs;
  setup.config.learning_rate = options.learning_rate;
  setup.config.batch_size = options.batch_size;
  setup.config.eval_every = options.eval_every;
  setup.config.target_accuracy = options.target_accuracy;
  setup.config.budget = options.budget;
  setup.config.dp = options.dp;
  setup.config.fault = options.fault;
  setup.config.robust = options.robust;
  setup.config.cohort_size = options.cohort_size;
  setup.config.quorum_fraction = options.quorum_fraction;
  setup.config.seed = options.seed;
  return setup;
}

fl::RunResult RunBench(const core::Workload& workload,
                       const std::string& scheme,
                       const BenchRunOptions& options) {
  return core::RunScheme(workload, MakeBenchScheme(scheme, workload, options));
}

namespace {

// Bench flags fail closed: a run that cannot honor a flag would print
// numbers for a different run than the one asked for.
[[noreturn]] void FlagError(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(2);
}

// Returns the value of a "--flag=value" argument, or nullptr. The flag
// written without "=value" ("--metrics-out /path") is an error: its value
// would otherwise be dropped silently.
const char* FlagValue(const char* arg, const char* prefix) {
  const size_t len = std::strlen(prefix);
  if (std::strncmp(arg, prefix, len) == 0) return arg + len;
  if (std::strncmp(arg, prefix, len - 1) == 0 && arg[len - 1] == '\0') {
    FlagError(std::string(arg) + " needs a value: write " + prefix + "VALUE");
  }
  return nullptr;
}

}  // namespace

SnapshotFlags ParseSnapshotFlags(int argc, char** argv) {
  SnapshotFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = FlagValue(argv[i], "--snapshot-dir=")) {
      flags.directory = v;
    } else if (const char* v = FlagValue(argv[i], "--snapshot-every=")) {
      flags.every_epochs = std::max(1, std::atoi(v));
    } else if (const char* v = FlagValue(argv[i], "--snapshot-keep=")) {
      flags.keep = std::max(1, std::atoi(v));
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      flags.resume = true;
    }
  }
  return flags;
}

core::RunControl MakeRunControl(const SnapshotFlags& flags,
                                const std::string& run_name) {
  core::RunControl control;
  if (!flags.enabled()) return control;
  control.snapshot.directory = flags.directory + "/" + run_name;
  control.snapshot.every_epochs = flags.every_epochs;
  control.snapshot.keep = flags.keep;
  control.resume = flags.resume;
  control.handle_signals = true;
  return control;
}

fl::RunResult RunBench(const core::Workload& workload,
                       const std::string& scheme,
                       const BenchRunOptions& options,
                       const SnapshotFlags& flags) {
  return RunBench(workload, scheme, options, flags, JournalFlags());
}

std::string JournalFlags::PathFor(const std::string& run_name) const {
  if (!enabled()) return std::string();
  return directory + "/" + run_name + ".fjrn";
}

JournalFlags ParseJournalFlags(int argc, char** argv) {
  JournalFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = FlagValue(argv[i], "--journal-out=")) {
      flags.directory = v;
    } else if (const char* v = FlagValue(argv[i], "--journal-sample=")) {
      flags.sample_rate = std::atof(v);
    }
  }
  return flags;
}

fl::RunResult RunBench(const core::Workload& workload,
                       const std::string& scheme,
                       const BenchRunOptions& options,
                       const SnapshotFlags& snapshot_flags,
                       const JournalFlags& journal_flags) {
  return RunBenchNamed(workload, scheme, options, snapshot_flags,
                       journal_flags,
                       scheme + "-s" + std::to_string(options.seed));
}

fl::RunResult RunBenchNamed(const core::Workload& workload,
                            const std::string& scheme,
                            const BenchRunOptions& options,
                            const SnapshotFlags& snapshot_flags,
                            const JournalFlags& journal_flags,
                            const std::string& run_name) {
  core::RunControl control = MakeRunControl(snapshot_flags, run_name);
  std::unique_ptr<obs::Journal> journal;
  if (journal_flags.enabled()) {
    const util::Status made = util::MakeDirectories(journal_flags.directory);
    if (!made.ok()) {
      FEDMIGR_LOG(kError) << "journal dir failed: " << made.ToString();
    } else {
      obs::Journal::Options journal_options;
      journal_options.path = journal_flags.PathFor(run_name);
      journal_options.sample_rate = journal_flags.sample_rate;
      journal = std::make_unique<obs::Journal>(journal_options);
      control.journal = journal.get();
    }
  }
  return core::RunScheme(workload, MakeBenchScheme(scheme, workload, options),
                         control);
}

TelemetryFlags ParseTelemetryFlags(int argc, char** argv) {
  TelemetryFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = FlagValue(argv[i], "--metrics-out=")) {
      flags.metrics_out = v;
    } else if (const char* v = FlagValue(argv[i], "--trace-out=")) {
      flags.trace_out = v;
    } else if (const char* v = FlagValue(argv[i], "--log-level=")) {
      util::LogLevel level = util::LogLevel::kInfo;
      if (!util::ParseLogLevel(v, &level)) {
        FlagError(std::string("unknown --log-level '") + v +
                  "' (want debug|info|warning|error)");
      }
      util::SetLogLevel(level);
    }
  }
  return flags;
}

RobustFlags ParseRobustFlags(int argc, char** argv) {
  RobustFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = FlagValue(argv[i], "--attack-mode=")) {
      if (!net::ParseAttackMode(v, &flags.attack_mode)) {
        FlagError(std::string("unknown --attack-mode '") + v +
                  "' (want none|sign-flip|gaussian|scale|silent|nan)");
      }
      flags.any = true;
    } else if (const char* v = FlagValue(argv[i], "--attack-frac=")) {
      flags.attack_fraction = std::atof(v);
      flags.any = true;
    } else if (const char* v = FlagValue(argv[i], "--attack-scale=")) {
      flags.attack_scale = std::atof(v);
      flags.any = true;
    } else if (const char* v = FlagValue(argv[i], "--aggregator=")) {
      if (!fl::ParseAggregatorKind(v, &flags.robust.aggregator)) {
        FlagError(std::string("unknown --aggregator '") + v +
                  "' (want mean|trimmed-mean|median|krum|multi-krum)");
      }
      flags.any = true;
    } else if (const char* v = FlagValue(argv[i], "--robust-profile=")) {
      if (!fl::ParseRobustProfile(v, &flags.robust)) {
        FlagError(std::string("unknown --robust-profile '") + v +
                  "' (want off|screen|defense)");
      }
      flags.any = true;
    }
  }
  return flags;
}

void RobustFlags::ApplyTo(BenchRunOptions* options) const {
  if (!any) return;
  options->fault.attack_mode = attack_mode;
  options->fault.attack_fraction = attack_fraction;
  options->fault.attack_scale = attack_scale;
  options->robust = robust;
}

void BeginTelemetry(const TelemetryFlags& flags) {
  if (!flags.trace_out.empty()) obs::TraceRecorder::Default().Start();
}

void FinishTelemetry(const TelemetryFlags& flags) {
  if (!flags.trace_out.empty()) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
    recorder.Stop();
    const util::Status status = recorder.WriteChromeJson(flags.trace_out);
    if (!status.ok()) {
      FEDMIGR_LOG(kError) << "trace write failed: " << status.ToString();
    }
  }
  if (!flags.metrics_out.empty()) {
    const bool csv = flags.metrics_out.size() > 4 &&
                     flags.metrics_out.rfind(".csv") ==
                         flags.metrics_out.size() - 4;
    const obs::Registry& registry = obs::Registry::Default();
    const util::Status status = csv
                                    ? registry.WriteCsvFile(flags.metrics_out)
                                    : registry.WriteJsonFile(flags.metrics_out);
    if (!status.ok()) {
      FEDMIGR_LOG(kError) << "metrics write failed: " << status.ToString();
    }
  }
}

std::string PercentChange(double baseline, double value) {
  if (baseline == 0.0) return "n/a";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%+.0f%%",
                100.0 * (value - baseline) / baseline);
  return buffer;
}

}  // namespace fedmigr::bench
