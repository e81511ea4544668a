// Question-budget bench — the paper's motivating constraint: marketing
// research caps surveys at ~10 questions (Section I). Caps every algorithm
// at B ∈ {5, 10, 20} questions and reports the best-effort regret of what it
// returns; the RL algorithms should be near-converged inside the budget
// while the short-term baselines are still far away.
#include "bench/common.h"

namespace isrl::bench {
namespace {

void Run() {
  const Scale scale = GetScale();
  const uint64_t seed = GetSeed();
  Rng rng(seed);
  Dataset sky = AntiCorrelatedSkyline(scale.n_low_d, 4, rng);
  Banner("Question budget",
         "regret achievable within a fixed budget (4-d, epsilon=0.1)", sky,
         scale);
  std::vector<Vec> eval = EvalUsers(scale.eval_users, 4, seed);
  // Train once without a cap; the cap applies only at interaction time.
  Ea ea_trained = MakeTrainedEa(sky, 0.1, scale.train_low_d, seed);
  Aa aa_trained = MakeTrainedAa(sky, 0.1, scale.train_low_d, seed);

  PrintEvalHeader("budget");
  for (size_t budget : {5, 10, 20}) {
    std::string label = Format("%zu", budget);
    {
      EaOptions opt;
      opt.epsilon = 0.1;
      opt.seed = seed;
      opt.max_rounds = budget;
      Ea ea(sky, opt);
      ISRL_CHECK(ea.SetWeights(ea_trained.agent().main_network()).ok());
      PrintEvalRow(label, Evaluate(ea, sky, eval, 0.1));
    }
    {
      AaOptions opt;
      opt.epsilon = 0.1;
      opt.seed = seed;
      opt.max_rounds = budget;
      Aa aa(sky, opt);
      ISRL_CHECK(aa.SetWeights(aa_trained.agent().main_network()).ok());
      PrintEvalRow(label, Evaluate(aa, sky, eval, 0.1));
    }
    {
      UhOptions opt;
      opt.epsilon = 0.1;
      opt.seed = seed;
      opt.max_rounds = budget;
      UhRandom uh(sky, opt);
      PrintEvalRow(label, Evaluate(uh, sky, eval, 0.1));
    }
    {
      UhOptions opt;
      opt.epsilon = 0.1;
      opt.seed = seed;
      opt.max_rounds = budget;
      UhSimplex uh(sky, opt);
      PrintEvalRow(label, Evaluate(uh, sky, eval, 0.1));
    }
    {
      SinglePassOptions opt;
      opt.epsilon = 0.1;
      opt.seed = seed;
      opt.max_questions = budget;
      SinglePass sp(sky, opt);
      PrintEvalRow(label, Evaluate(sp, sky, eval, 0.1));
    }
  }
  std::printf("# Note: within_eps is the fraction of users whose capped "
              "answer already meets the threshold.\n");
}

}  // namespace
}  // namespace isrl::bench

int main() {
  isrl::bench::Run();
  return 0;
}
