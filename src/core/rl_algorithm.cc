#include "core/rl_algorithm.h"

#include "audit/audit.h"
#include "audit/checkers.h"
#include "core/snapshot.h"
#include "nn/serialize.h"

namespace isrl {

RlAlgorithm::RlAlgorithm(uint64_t seed, size_t input_dim,
                         const rl::DqnOptions& dqn)
    : rng_(seed), input_dim_(input_dim), agent_(input_dim, dqn, rng_) {
  RefreshServingModel();
}

RlAlgorithm::RlAlgorithm(const RlAlgorithm& other)
    : rng_(other.rng_),
      input_dim_(other.input_dim_),
      agent_(other.agent_),
      episodes_trained_(other.episodes_trained_),
      model_(other.model_->Replicate()) {}

void RlAlgorithm::RefreshServingModel() {
  model_ = std::make_shared<const nn::ModelSnapshot>(0, agent_.main_network());
}

Status RlAlgorithm::SaveAgent(const std::string& path) const {
  return nn::SaveNetwork(agent_.main_network(), path);
}

Status RlAlgorithm::LoadAgent(const std::string& path) {
  ISRL_ASSIGN_OR_RETURN(nn::Network loaded, nn::LoadNetwork(path));
  return SetWeights(loaded);
}

Status RlAlgorithm::SetWeights(const nn::Network& weights) {
  ISRL_RETURN_IF_ERROR(agent_.SetWeights(weights));
  RefreshServingModel();
  return Status::Ok();
}

RlSession::RlSession(const RlAlgorithm& owner, const SessionConfig& config,
                     size_t max_rounds, const char* audit_site)
    : SessionBase(config, max_rounds), model_(owner.ModelFor(config)) {
  // Audit at the inference call site: a session served from a NaN-weighted
  // Q-network asks arbitrary questions yet terminates "normally". Check the
  // network the session will actually score through.
  if (audit::ShouldCheck(audit::Checker::kNnFinite)) {
    audit::Auditor().Record(
        audit::Checker::kNnFinite, audit_site,
        audit::CheckNetworkFinite(model_->network(), "main"));
  }
}

const Matrix* RlSession::PendingCandidateFeatures() const {
  return stage_ == SessionStage::kScoring ? &pending_features_ : nullptr;
}

const nn::ModelSnapshot* RlSession::ScoringModel() const {
  return stage_ == SessionStage::kScoring ? model_.get() : nullptr;
}

void RlSession::PostCandidateScores(const double* scores, size_t count) {
  ISRL_CHECK(stage_ == SessionStage::kScoring);
  ISRL_CHECK_EQ(count, pending_features_.rows());
  size_t pick = 0;
  for (size_t i = 1; i < count; ++i) {
    if (scores[i] > scores[pick]) pick = i;
  }
  Ask(Candidate(pick));
}

void RlSession::ScorePending() {
  // No driver scored the candidates: score them here.
  Ask(Candidate(model_->Score(pending_features_).ArgMax()));
}

void RlSession::StageScoring() {
  pending_features_ = CandidateFeatures();
  stage_ = SessionStage::kScoring;
}

void RlSession::Resumed() {
  if (stage_ == SessionStage::kScoring) pending_features_ = CandidateFeatures();
}

void RlSession::EncodeModel(snapshot::Writer* w) const {
  w->U64(model_->fingerprint());
  w->U64(model_->version());
}

Status RlSession::DecodeModel(snapshot::Reader* r, const RlAlgorithm& owner,
                              const SessionConfig& config) {
  const uint64_t fingerprint = r->U64();
  const uint64_t version = r->U64();
  ISRL_RETURN_IF_ERROR(r->status());
  ISRL_ASSIGN_OR_RETURN(model_,
                        snapshot::RepinModel(owner.name(), fingerprint, version,
                                             config, owner.ServingModel()));
  return Status::Ok();
}

}  // namespace isrl
