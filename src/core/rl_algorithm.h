// Shared owner of the Q-network behind the RL algorithms EA and AA
// (DESIGN.md §18).
//
// Both algorithms train one DqnAgent and score every session's candidates
// through an immutable nn::ModelSnapshot of its main network. This base
// keeps that snapshot current by rebuilding it wherever the instance changes
// its own weights — construction, the end of Train, SetWeights and
// LoadAgent — and hands the agent out read-only, so nothing else can change
// the weights and admission never has to rehash them.
#ifndef ISRL_CORE_RL_ALGORITHM_H_
#define ISRL_CORE_RL_ALGORITHM_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.h"
#include "common/status.h"
#include "core/algorithm.h"
#include "nn/network.h"
#include "nn/registry.h"
#include "rl/dqn.h"

namespace isrl {

/// An interactive algorithm driven by a DQN-trained Q-network.
class RlAlgorithm : public InteractiveAlgorithm {
 public:
  /// Reseeds the action-sampling Rng (per-user derived seed during
  /// evaluation; see core/session.cc).
  void Reseed(uint64_t seed) override { rng_ = Rng(seed); }

  /// Read-only: the weights change only through Train, LoadAgent and
  /// SetWeights, which keep ServingModel() current.
  const rl::DqnAgent& agent() const { return agent_; }
  /// Featurised (state, action) input dimension of the Q-network.
  size_t input_dim() const { return input_dim_; }

  /// The immutable serving snapshot of the Q-network (version 0 —
  /// unregistered), always a copy of the current weights. Sessions started
  /// without an explicit SessionConfig::model pin it, so retraining never
  /// affects an in-flight episode.
  std::shared_ptr<const nn::ModelSnapshot> ServingModel() const {
    return model_;
  }

  /// Persists the trained Q-network so a later process can skip Train()
  /// (extension; DESIGN.md §7).
  Status SaveAgent(const std::string& path) const;
  /// Restores a Q-network saved by SaveAgent: LoadNetwork, then SetWeights.
  Status LoadAgent(const std::string& path);
  /// Installs `weights` as the Q-network (architecture must match this
  /// instance's input_dim, else InvalidArgument and no change), syncs the
  /// target network and rebuilds ServingModel().
  Status SetWeights(const nn::Network& weights);

 protected:
  RlAlgorithm(uint64_t seed, size_t input_dim, const rl::DqnOptions& dqn);
  /// CloneForEval copy: same weights (Adam moments reset) and a replica of
  /// the serving snapshot — equal fingerprint, its own inference scratch,
  /// so evaluation threads never share it.
  RlAlgorithm(const RlAlgorithm& other);

  /// The snapshot a session started under `config` scores through: the
  /// explicit pin, else ServingModel().
  const std::shared_ptr<const nn::ModelSnapshot>& ModelFor(
      const SessionConfig& config) const {
    return config.model != nullptr ? config.model : model_;
  }

  /// Re-snapshots the Q-network; call after changing agent_'s weights.
  void RefreshServingModel();

  Rng rng_;
  size_t input_dim_;
  rl::DqnAgent agent_;
  size_t episodes_trained_ = 0;

 private:
  std::shared_ptr<const nn::ModelSnapshot> model_;
};

}  // namespace isrl

#endif  // ISRL_CORE_RL_ALGORITHM_H_
