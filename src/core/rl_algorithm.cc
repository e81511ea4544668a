#include "core/rl_algorithm.h"

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

}  // namespace isrl
