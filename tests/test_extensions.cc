// Tests for the opt-in extensions: flag parsing, prioritized replay,
// Double-DQN / Huber-loss agent variants, agent persistence, and the
// question-budget mode motivated by the paper's introduction (surveys should
// stay around 10 questions).
#include <cstdio>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "core/aa.h"
#include "core/ea.h"
#include "core/regret.h"
#include "data/skyline.h"
#include "data/synthetic.h"
#include "rl/dqn.h"
#include "rl/prioritized_replay.h"
#include "user/sampler.h"
#include "user/user.h"

namespace isrl {
namespace {

// ---------- Flags ----------

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog", "--eps=0.2", "--train=50", "--verbose",
                        "input.csv"};
  Flags flags = Flags::Parse(5, argv);
  EXPECT_DOUBLE_EQ(flags.GetDouble("eps", 0.0), 0.2);
  EXPECT_EQ(flags.GetInt("train", 0), 50);
  EXPECT_TRUE(flags.GetBool("verbose"));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "input.csv");
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags = Flags::Parse(1, argv);
  EXPECT_EQ(flags.GetString("algo", "ea"), "ea");
  EXPECT_DOUBLE_EQ(flags.GetDouble("eps", 0.1), 0.1);
  EXPECT_FALSE(flags.Has("eps"));
}

TEST(FlagsTest, MalformedDoubleFallsBack) {
  const char* argv[] = {"prog", "--eps=abc"};
  Flags flags = Flags::Parse(2, argv);
  EXPECT_DOUBLE_EQ(flags.GetDouble("eps", 0.3), 0.3);
}

TEST(FlagsTest, RequireKnownCatchesTypos) {
  const char* argv[] = {"prog", "--epz=0.2"};
  Flags flags = Flags::Parse(2, argv);
  EXPECT_TRUE(flags.RequireKnown({"eps"}).code() ==
              StatusCode::kInvalidArgument);
  EXPECT_TRUE(flags.RequireKnown({"epz"}).ok());
}

// ---------- Prioritized replay ----------

rl::Transition MakeTransition(double feature, double reward) {
  rl::Transition t;
  t.state_action = Vec{feature};
  t.reward = reward;
  t.terminal = true;
  return t;
}

// Fresh (non-stale) update handle for slot `index`.
rl::PrioritizedSample HandleFor(const rl::PrioritizedReplayMemory& mem,
                                size_t index) {
  rl::PrioritizedSample s;
  s.index = index;
  s.generation = mem.generation(index);
  return s;
}

TEST(PrioritizedReplayTest, NewEntriesGetMaxPriority) {
  rl::PrioritizedReplayMemory mem(8);
  mem.Add(MakeTransition(1.0, 0.0));
  EXPECT_TRUE(mem.UpdatePriority(HandleFor(mem, 0), 10.0));  // big TD error
  mem.Add(MakeTransition(2.0, 0.0));
  // The fresh entry inherits the running max priority.
  EXPECT_DOUBLE_EQ(mem.priority(1), mem.priority(0));
}

TEST(PrioritizedReplayTest, SamplingFollowsPriorities) {
  rl::PrioritizedReplayMemory mem(4);
  for (int i = 0; i < 4; ++i) mem.Add(MakeTransition(i, 0.0));
  mem.UpdatePriority(HandleFor(mem, 0), 100.0);  // huge priority
  for (int i = 1; i < 4; ++i) mem.UpdatePriority(HandleFor(mem, i), 1e-6);
  Rng rng(1);
  size_t hits = 0;
  auto batch = mem.Sample(500, rng);
  for (const auto& s : batch) {
    if (s.index == 0) ++hits;
  }
  EXPECT_GT(hits, 400u);  // ≫ uniform share of 125
}

TEST(PrioritizedReplayTest, WeightsNormalisedToAtMostOne) {
  rl::PrioritizedReplayMemory mem(8);
  for (int i = 0; i < 8; ++i) mem.Add(MakeTransition(i, 0.0));
  Rng rng(2);
  for (int i = 0; i < 8; ++i) mem.UpdatePriority(HandleFor(mem, i), 0.5 + i);
  for (const auto& s : mem.Sample(100, rng)) {
    EXPECT_GT(s.weight, 0.0);
    EXPECT_LE(s.weight, 1.0 + 1e-12);
  }
}

TEST(PrioritizedReplayTest, RingEviction) {
  rl::PrioritizedReplayMemory mem(2);
  mem.Add(MakeTransition(1.0, 1.0));
  mem.Add(MakeTransition(2.0, 2.0));
  mem.Add(MakeTransition(3.0, 3.0));  // evicts the first
  EXPECT_EQ(mem.size(), 2u);
  Rng rng(3);
  for (const auto& s : mem.Sample(50, rng)) {
    EXPECT_GE(s.transition->reward, 2.0);
  }
}

// ---------- DQN variants ----------

rl::DqnOptions VariantOptions() {
  rl::DqnOptions o;
  o.hidden_neurons = 16;
  o.batch_size = 16;
  o.min_replay_before_update = 16;
  o.learning_rate = 0.01;
  o.optimizer = rl::OptimizerKind::kAdam;
  return o;
}

class DqnVariant : public ::testing::TestWithParam<int> {};

TEST_P(DqnVariant, AllVariantsLearnTheBandit) {
  rl::DqnOptions opt = VariantOptions();
  switch (GetParam()) {
    case 0: break;                                  // plain (paper)
    case 1: opt.double_dqn = true; break;           // Double DQN
    case 2: opt.prioritized_replay = true; break;   // PER
    case 3: opt.loss = rl::LossKind::kHuber; break; // Huber
    case 4:                                         // everything on
      opt.double_dqn = true;
      opt.prioritized_replay = true;
      opt.loss = rl::LossKind::kHuber;
      opt.huber_delta = 5.0;
      break;
  }
  Rng rng(4 + GetParam());
  rl::DqnAgent agent(1, opt, rng);
  for (int i = 0; i < 300; ++i) {
    agent.Remember(MakeTransition(1.0, 10.0));
    agent.Remember(MakeTransition(-1.0, 0.0));
    agent.Update(rng);
  }
  EXPECT_GT(agent.QValue(Vec{1.0}), agent.QValue(Vec{-1.0}) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Variants, DqnVariant, ::testing::Range(0, 5));

TEST(DqnVariantTest, DoubleDqnBootstrapsChain) {
  rl::DqnOptions opt = VariantOptions();
  opt.double_dqn = true;
  opt.gamma = 0.5;
  Rng rng(9);
  rl::DqnAgent agent(1, opt, rng);
  for (int i = 0; i < 400; ++i) {
    agent.Remember(MakeTransition(1.0, 10.0));
    rl::Transition chain;
    chain.state_action = Vec{0.5};
    chain.reward = 0.0;
    chain.terminal = false;
    chain.next_candidates = {Vec{1.0}};
    agent.Remember(std::move(chain));
    agent.Update(rng);
  }
  EXPECT_NEAR(agent.QValue(Vec{0.5}), 5.0, 3.0);
}

// ---------- Agent persistence ----------

Dataset SmallSkyline(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Dataset raw = GenerateSynthetic(n, d, Distribution::kAntiCorrelated, rng);
  return SkylineOf(raw);
}

TEST(PersistenceTest, EaSaveLoadReproducesBehaviour) {
  Dataset sky = SmallSkyline(600, 3, 60);
  EaOptions opt;
  opt.seed = 5;
  Ea trained(sky, opt);
  Rng rng(6);
  trained.Train(SampleUtilityVectors(20, 3, rng));
  const std::string path = ::testing::TempDir() + "/ea_agent.net";
  ASSERT_TRUE(trained.SaveAgent(path).ok());

  Ea restored(sky, opt);  // same seed ⇒ same action sampling stream
  ASSERT_TRUE(restored.LoadAgent(path).ok());
  // The loaded Q-network matches the trained one on arbitrary inputs.
  const Matrix probe = Matrix::FromRows({Vec(trained.input_dim(), 0.1)});
  EXPECT_NEAR(trained.ServingModel()->Score(probe)[0],
              restored.ServingModel()->Score(probe)[0], 1e-12);
  // And the restored agent still honours the exact guarantee.
  LinearUser user(Vec{0.2, 0.5, 0.3});
  InteractionResult r = restored.Interact(user);
  EXPECT_LT(RegretRatioAt(sky, r.best_index, Vec{0.2, 0.5, 0.3}), opt.epsilon);
}

TEST(PersistenceTest, AaSaveLoadRoundTrip) {
  Dataset sky = SmallSkyline(500, 3, 61);
  AaOptions opt;
  opt.seed = 7;
  Aa trained(sky, opt);
  Rng rng(8);
  trained.Train(SampleUtilityVectors(15, 3, rng));
  const std::string path = ::testing::TempDir() + "/aa_agent.net";
  ASSERT_TRUE(trained.SaveAgent(path).ok());
  Aa restored(sky, opt);
  ASSERT_TRUE(restored.LoadAgent(path).ok());
  const Matrix probe = Matrix::FromRows({Vec(trained.input_dim(), 0.05)});
  EXPECT_NEAR(trained.ServingModel()->Score(probe)[0],
              restored.ServingModel()->Score(probe)[0], 1e-12);
}

TEST(PersistenceTest, LoadRejectsWrongArchitecture) {
  Dataset sky3 = SmallSkyline(300, 3, 62);
  Dataset sky4 = SmallSkyline(300, 4, 63);
  EaOptions opt;
  Ea ea3(sky3, opt);
  Ea ea4(sky4, opt);
  const std::string path = ::testing::TempDir() + "/ea3_agent.net";
  ASSERT_TRUE(ea3.SaveAgent(path).ok());
  EXPECT_FALSE(ea4.LoadAgent(path).ok());
}

TEST(PersistenceTest, LoadMissingFileFails) {
  Dataset sky = SmallSkyline(300, 3, 64);
  Ea ea(sky, EaOptions{});
  EXPECT_EQ(ea.LoadAgent("/nonexistent/agent.net").code(),
            StatusCode::kIoError);
}

// ---------- Question budget (marketing-research constraint) ----------

TEST(BudgetTest, EaRespectsTenQuestionBudget) {
  Dataset sky = SmallSkyline(800, 4, 65);
  EaOptions opt;
  opt.epsilon = 0.02;  // hard enough that the cap can bind
  opt.max_rounds = 10;
  Ea ea(sky, opt);
  Rng rng(66);
  for (int trial = 0; trial < 5; ++trial) {
    Vec u = rng.SimplexUniform(4);
    LinearUser user(u);
    InteractionResult r = ea.Interact(user);
    EXPECT_LE(r.rounds, 10u);
    // Even when capped, the fallback recommendation is sensible.
    EXPECT_LT(RegretRatioAt(sky, r.best_index, u), 0.5);
  }
}

TEST(BudgetTest, AaRespectsBudgetAndDegradesGracefully) {
  Dataset sky = SmallSkyline(800, 8, 67);
  AaOptions opt;
  opt.epsilon = 0.05;
  opt.max_rounds = 10;
  Aa aa(sky, opt);
  Rng rng(68);
  for (int trial = 0; trial < 3; ++trial) {
    Vec u = rng.SimplexUniform(8);
    LinearUser user(u);
    InteractionResult r = aa.Interact(user);
    EXPECT_LE(r.rounds, 10u);
    EXPECT_LT(RegretRatioAt(sky, r.best_index, u), 0.6);
  }
}

}  // namespace
}  // namespace isrl
