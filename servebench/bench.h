// Shared definitions of the serving benchmark: workload specifications, the
// trained model a workload serves, and the seeded inputs of one run.
#ifndef ISRL_SERVEBENCH_BENCH_H_
#define ISRL_SERVEBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/budget.h"
#include "core/algorithm.h"
#include "data/dataset.h"
#include "nn/registry.h"

namespace servebench {

enum class Mode {
  kLockstep,        ///< closed loop, the question sink answers inline
  kDurableRestart,  ///< lock-step with durability and a planned restart
};

/// One named workload. Every workload serves on kShards shards.
struct WorkloadSpec {
  const char* name;
  Mode mode;
  bool aa;                ///< AA (LP geometry) instead of EA (polyhedron)
  size_t dim;
  double epsilon;
  size_t sessions;
  size_t train_episodes;  ///< fixed Train() episode count in set-up
  size_t max_rounds;      ///< per-session question cap (RunBudget)
  bool pinned;            ///< sessions pin a per-shard registry replica
  /// Seed of the data set and the training run. The data and the trained
  /// model are part of the workload's definition; --seed varies the
  /// traffic (utilities and session seeds) served over them.
  uint64_t model_seed;
};

inline constexpr size_t kShards = 2;
inline constexpr size_t kPoints = 800;
inline constexpr size_t kHiddenUnits = 256;
inline constexpr size_t kCandidateSamples = 16;
inline constexpr size_t kAnswersBeforeRestart = 3;
inline constexpr size_t kCheckpointEveryTicks = 8;

/// The trained model of one set-up: the data, the registry the trained
/// network is published to, and one clone of the trained algorithm and one
/// registry replica per shard.
struct Model {
  std::unique_ptr<isrl::Dataset> data;
  isrl::nn::ModelRegistry registry;
  std::vector<std::unique_ptr<isrl::InteractiveAlgorithm>> clones;
  std::vector<std::shared_ptr<const isrl::nn::ModelSnapshot>> replicas;
  double train_s = 0.0;
  double publish_us = 0.0;
};

/// Builds and trains the workload's model from spec.model_seed (the timed
/// set-up).
std::unique_ptr<Model> BuildModel(const WorkloadSpec& spec);

/// The generated inputs of one run: each user's hidden utility and each
/// session's seed.
struct Inputs {
  std::vector<isrl::Vec> utilities;
  std::vector<uint64_t> session_seeds;
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// The session config for session `id` on its shard.
isrl::SessionConfig MakeSessionConfig(const WorkloadSpec& spec,
                                      const Model& model, const Inputs& inputs,
                                      size_t id);

/// The fields of a result the correctness gate compares.
struct Outcome {
  size_t best_index = 0;
  size_t rounds = 0;
  isrl::Termination termination = isrl::Termination::kConverged;

  bool operator==(const Outcome&) const = default;
};

Outcome OutcomeOf(const isrl::InteractionResult& result);

/// Mismatches of `got` against `want` (a missing entry counts as one).
size_t CountMismatches(const std::vector<Outcome>& want,
                       const std::vector<Outcome>& got);

}  // namespace servebench

#endif  // ISRL_SERVEBENCH_BENCH_H_
