#include "bench.h"

#include "common/rng.h"
#include "core/aa.h"
#include "core/ea.h"
#include "data/skyline.h"
#include "data/synthetic.h"
#include "trace.h"

namespace servebench {

namespace {

// Independent streams derived from the workload seed.
constexpr uint64_t kStreamData = 1;
constexpr uint64_t kStreamTraining = 2;
constexpr uint64_t kStreamModel = 3;
constexpr uint64_t kStreamUtilities = 4;
constexpr uint64_t kStreamSessions = 5;

isrl::rl::DqnOptions ServingDqn() {
  isrl::rl::DqnOptions options;
  options.hidden_neurons = kHiddenUnits;
  return options;
}

/// Trains, publishes, and hands out one clone and one registry replica per
/// shard; the trained instance itself is dropped.
template <typename Algorithm>
void TrainPublishClone(Algorithm& algorithm,
                       const std::vector<isrl::Vec>& train, Model* model) {
  const int64_t t0 = NowNs();
  algorithm.Train(train);
  const int64_t t1 = NowNs();
  model->registry.Publish(algorithm.agent().main_network());
  model->train_s = NsToS(t1 - t0);
  model->publish_us = NsToUs(NowNs() - t1);
  for (size_t k = 0; k < kShards; ++k) {
    model->clones.push_back(algorithm.CloneForEval());
    model->replicas.push_back(model->registry.Latest()->Replicate());
  }
}

}  // namespace

std::unique_ptr<Model> BuildModel(const WorkloadSpec& spec) {
  const uint64_t seed = spec.model_seed;
  auto model = std::make_unique<Model>();
  isrl::Rng data_rng(isrl::SplitSeed(seed, kStreamData));
  model->data = std::make_unique<isrl::Dataset>(isrl::SkylineOf(
      isrl::GenerateSynthetic(kPoints, spec.dim,
                              isrl::Distribution::kAntiCorrelated, data_rng)));
  isrl::Rng train_rng(isrl::SplitSeed(seed, kStreamTraining));
  std::vector<isrl::Vec> train;
  for (size_t i = 0; i < spec.train_episodes; ++i) {
    train.push_back(train_rng.SimplexUniform(spec.dim));
  }
  if (spec.aa) {
    isrl::AaOptions options;
    options.epsilon = spec.epsilon;
    options.dqn = ServingDqn();
    options.actions.pool_samples = kCandidateSamples;
    options.seed = isrl::SplitSeed(seed, kStreamModel);
    isrl::Aa aa(*model->data, options);
    TrainPublishClone(aa, train, model.get());
  } else {
    isrl::EaOptions options;
    options.epsilon = spec.epsilon;
    options.dqn = ServingDqn();
    options.actions.num_samples = kCandidateSamples;
    options.seed = isrl::SplitSeed(seed, kStreamModel);
    isrl::Ea ea(*model->data, options);
    TrainPublishClone(ea, train, model.get());
  }
  return model;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs inputs;
  isrl::Rng utility_rng(isrl::SplitSeed(seed, kStreamUtilities));
  const uint64_t session_master = isrl::SplitSeed(seed, kStreamSessions);
  for (size_t i = 0; i < spec.sessions; ++i) {
    inputs.utilities.push_back(utility_rng.SimplexUniform(spec.dim));
    inputs.session_seeds.push_back(isrl::SplitSeed(session_master, i));
  }
  return inputs;
}

isrl::SessionConfig MakeSessionConfig(const WorkloadSpec& spec,
                                      const Model& model, const Inputs& inputs,
                                      size_t id) {
  isrl::SessionConfig config;
  config.budget.max_rounds = spec.max_rounds;
  config.seed = inputs.session_seeds[id];
  if (spec.pinned) config.model = model.replicas[id % kShards];
  return config;
}

Outcome OutcomeOf(const isrl::InteractionResult& result) {
  return Outcome{result.best_index, result.rounds, result.termination};
}

size_t CountMismatches(const std::vector<Outcome>& want,
                       const std::vector<Outcome>& got) {
  size_t mismatches = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    if (i >= got.size() || !(got[i] == want[i])) ++mismatches;
  }
  return mismatches;
}

}  // namespace servebench
