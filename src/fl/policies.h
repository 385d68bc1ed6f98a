// Migration policies.
//
// A policy turns the current FL state into a MigrationPlan. This file holds
// every non-learned policy the paper evaluates or compares against:
//   - NoMigration            (FedAvg / FedProx: never migrate)
//   - RandomMigration        (RandMigr baseline)
//   - FedSwapPairing         (random pairwise swap through the PS)
//   - CrossLan / WithinLan   (the fixed strategies of Fig. 3)
//   - MaxEmd                 (greedy divergence heuristic, ablation oracle)
//   - Flmm                   (relaxed-QP + Hungarian planner from src/opt)
// The DRL-driven policy lives in src/rl (it needs the agent).

#ifndef FEDMIGR_FL_POLICIES_H_
#define FEDMIGR_FL_POLICIES_H_

#include <memory>
#include <string>
#include <vector>

#include "fl/migration.h"
#include "net/budget.h"
#include "net/topology.h"
#include "opt/flmm.h"
#include "util/rng.h"
#include "util/serial.h"

namespace fedmigr::fl {

// Everything a policy may look at when planning. Pointers are non-owning
// and valid only for the duration of the Plan() call.
struct PolicyContext {
  int epoch = 0;
  const net::Topology* topology = nullptr;
  int64_t model_bytes = 0;
  // Label distribution of each client's local dataset (fixed).
  const std::vector<std::vector<double>>* client_distributions = nullptr;
  // Effective label distribution seen by the model currently hosted on each
  // client (evolves as models migrate).
  const std::vector<std::vector<double>>* model_distributions = nullptr;
  double global_loss = 0.0;
  const net::Budget* budget = nullptr;
  util::Rng* rng = nullptr;
  // Per-client availability this epoch (crashes, quarantine). nullptr means
  // everyone is up. Learned planners mask unavailable clients out of their
  // action space; the trainer additionally cancels any planned move that
  // touches an unavailable endpoint.
  const std::vector<bool>* available = nullptr;
};

// Availability lookup against ctx.available (true when the vector is absent).
inline bool ClientAvailable(const PolicyContext& ctx, int client) {
  return ctx.available == nullptr ||
         (*ctx.available)[static_cast<size_t>(client)];
}

// Per-epoch outcome handed back to the policy after its plan executed.
// Learned policies (the DRL agent) turn this into the reward of
// Eqs. 17-18; fixed policies ignore it.
struct PolicyFeedback {
  int epoch = 0;
  double loss_before = 0.0;
  double loss_after = 0.0;
  // Resource cost of this epoch as a fraction of the total budgets
  // (0 when budgets are infinite).
  double compute_cost_fraction = 0.0;
  double bandwidth_cost_fraction = 0.0;
  // Terminal-epoch flags (Eq. 18): `done` marks the last epoch, `success`
  // whether training finished within budget.
  bool done = false;
  bool success = false;
};

class MigrationPolicy {
 public:
  virtual ~MigrationPolicy() = default;
  virtual MigrationPlan Plan(const PolicyContext& ctx) = 0;
  virtual void Feedback(const PolicyFeedback& feedback) { (void)feedback; }
  virtual std::string name() const = 0;

  // Run-snapshot hooks. Policies that carry mutable state across epochs
  // (the DRL agent, its replay buffer) serialize it here so an interrupted
  // run resumes bit-identically; stateless policies (which draw only from
  // the trainer's RNG, snapshotted separately) keep the no-op default.
  virtual void SaveState(util::ByteWriter* writer) const { (void)writer; }
  virtual util::Status LoadState(util::ByteReader* reader) {
    (void)reader;
    return util::Status::Ok();
  }
};

// D[i][j] = EMD between the model hosted at i and the data at j — the
// migration-gain matrix used by MaxEmd, Flmm and the DRL featurizer.
std::vector<std::vector<double>> MigrationGainMatrix(const PolicyContext& ctx);

class NoMigrationPolicy : public MigrationPolicy {
 public:
  MigrationPlan Plan(const PolicyContext& ctx) override;
  std::string name() const override { return "none"; }
};

class RandomMigrationPolicy : public MigrationPolicy {
 public:
  MigrationPlan Plan(const PolicyContext& ctx) override;
  std::string name() const override { return "random"; }
};

// Random disjoint pairs swapped through the parameter server.
class FedSwapPolicy : public MigrationPolicy {
 public:
  MigrationPlan Plan(const PolicyContext& ctx) override;
  std::string name() const override { return "fedswap"; }
};

// Random permutation constrained to cross-LAN (or within-LAN) moves.
class LanConstrainedPolicy : public MigrationPolicy {
 public:
  explicit LanConstrainedPolicy(bool cross_lan) : cross_lan_(cross_lan) {}
  MigrationPlan Plan(const PolicyContext& ctx) override;
  std::string name() const override {
    return cross_lan_ ? "cross-lan" : "within-lan";
  }

 private:
  bool cross_lan_;
};

// Hungarian matching that maximizes total migration gain, ignoring
// communication cost. The "how good can divergence-greedy get" oracle.
class MaxEmdPolicy : public MigrationPolicy {
 public:
  MigrationPlan Plan(const PolicyContext& ctx) override;
  std::string name() const override { return "max-emd"; }
};

// Relaxed-FLMM planner (projected-gradient QP + Hungarian rounding),
// balancing divergence gain against link cost.
class FlmmPolicy : public MigrationPolicy {
 public:
  explicit FlmmPolicy(opt::FlmmOptions options = {}) : options_(options) {}
  MigrationPlan Plan(const PolicyContext& ctx) override;
  std::string name() const override { return "flmm"; }

 private:
  opt::FlmmOptions options_;
};

}  // namespace fedmigr::fl

#endif  // FEDMIGR_FL_POLICIES_H_
