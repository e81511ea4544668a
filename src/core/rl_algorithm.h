// Shared owner of the Q-network behind the RL algorithms EA and AA
// (DESIGN.md §18), and the session layer both score through.
//
// Both algorithms train one DqnAgent and score every session's candidates
// through an immutable nn::ModelSnapshot of its main network. This base
// keeps that snapshot current by rebuilding it wherever the instance changes
// its own weights — construction, the end of Train, SetWeights and
// LoadAgent — and hands the agent out read-only, so nothing else can change
// the weights and admission never has to rehash them. RlSession holds the
// pinned snapshot of one episode and the coalesced-scoring protocol.
#ifndef ISRL_CORE_RL_ALGORITHM_H_
#define ISRL_CORE_RL_ALGORITHM_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/algorithm.h"
#include "core/session_base.h"
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
  friend class RlSession;

  std::shared_ptr<const nn::ModelSnapshot> model_;
};

/// A session that picks each question by the greedy Q-value over a
/// candidate pool (EA, AA). The loop top stages the pool's features
/// (StageScoring); a driver may score them through ScoringModel() and post
/// the scores back, else NextQuestion() scores them itself — same matrix,
/// same weights, same argmax, so both routes are bit-identical.
class RlSession : public SessionBase {
 public:
  const Matrix* PendingCandidateFeatures() const final;
  const nn::ModelSnapshot* ScoringModel() const final;
  /// First-max argmax over the scores, exactly Vec::ArgMax over a
  /// PredictBatch row, then asks that candidate.
  void PostCandidateScores(const double* scores, size_t count) final;
  uint64_t ModelVersion() const final { return model_->version(); }

 protected:
  /// A live episode scoring through `owner`'s model for `config` (the
  /// explicit pin, else the serving snapshot), audited for non-finite
  /// weights at `audit_site` when the kNnFinite checker is on.
  RlSession(const RlAlgorithm& owner, const SessionConfig& config,
            size_t max_rounds, const char* audit_site);
  explicit RlSession(InteractionTrace* trace) : SessionBase(trace) {}

  /// This round's candidate features, one row per candidate: a pure
  /// function of the session state, so a restore recomputes the exact rows
  /// the saved session staged.
  virtual Matrix CandidateFeatures() const = 0;
  /// The dataset pair of candidate `index`.
  virtual Question Candidate(size_t index) const = 0;

  /// Stages this round's candidates for scoring (the loop guard passed).
  void StageScoring();
  /// The model's identity, not its weights: the §14 fingerprint and the
  /// registry version (0 = the instance's own model). Weights persist
  /// separately (nn/serialize, nn/registry).
  void EncodeModel(snapshot::Writer* w) const;
  /// Reads EncodeModel's fields and re-pins that model
  /// (snapshot::RepinModel).
  Status DecodeModel(snapshot::Reader* r, const RlAlgorithm& owner,
                     const SessionConfig& config);

 private:
  void ScorePending() final;
  void Resumed() final;

  /// The immutable model snapshot pinned at start (or re-pinned at
  /// restore); every score this session computes goes through it.
  std::shared_ptr<const nn::ModelSnapshot> model_;
  Matrix pending_features_;
};

}  // namespace isrl

#endif  // ISRL_CORE_RL_ALGORITHM_H_
