#include "core/ea.h"

#include <algorithm>
#include <optional>

#include "core/snapshot.h"
#include "core/terminal.h"
#include "geometry/halfspace.h"

namespace isrl {

namespace {
// v2 added the pinned model's registry version next to its fingerprint.
constexpr SessionFormat kEaFormat{"ea-session", 2, "EA", nullptr};
}  // namespace

Ea::Ea(const Dataset& data, const EaOptions& options)
    : RlAlgorithm(options.seed,
                  EaStateDim(data.dim(), options.state) + 3 * data.dim() +
                      kActionDescriptors,
                  options.dqn),
      data_(data),
      options_(options) {
  ISRL_CHECK(!data.empty());
  ISRL_CHECK_GT(options.epsilon, 0.0);
  ISRL_CHECK_LT(options.epsilon, 1.0);
}

Ea::RoundPlan Ea::PlanRound(const Polyhedron& range, Rng& rng) {
  RoundPlan plan;
  if (range.IsEmpty()) {
    // Callers keep R non-empty (TryCut); an empty R here is a numeric
    // degeneracy — stall instead of aborting.
    plan.stalled = true;
    return plan;
  }
  // Lemma 6 first: a single terminal polyhedron over the extreme vectors
  // certifies termination.
  if (IsTerminalRange(data_, range.vertices(), options_.epsilon,
                      &plan.winner)) {
    plan.terminal = true;
    return plan;
  }
  EaActionSpace space = BuildEaActionSpace(data_, range, options_.epsilon,
                                           options_.actions, rng);
  if (space.actions.empty()) {
    if (space.winners.empty()) {
      // Degenerate data (no utility vector of V had a positive top score):
      // no certificate and no question can make progress.
      plan.stalled = true;
      return plan;
    }
    // A single winner covered all of V ⊇ E — also a valid terminal
    // certificate (coverage of every extreme vector implies coverage of R
    // by convexity); return that winner.
    plan.terminal = true;
    plan.winner = space.winners.front();
    return plan;
  }
  plan.actions = std::move(space.actions);
  return plan;
}

Vec Ea::FeaturizeAction(const EaAction& action) const {
  const Vec& pi = data_.point(action.q.i);
  const Vec& pj = data_.point(action.q.j);
  Vec f = pi;
  f.Append(pj);
  f.Append(pi - pj);
  // Geometric descriptors: the split-quality signals the policy ranks on.
  f.PushBack(action.balance);
  f.PushBack(action.center_dist);
  return f;
}

std::vector<Vec> Ea::FeaturizeCandidates(
    const Vec& state, const std::vector<EaAction>& actions) const {
  std::vector<Vec> out;
  out.reserve(actions.size());
  for (const EaAction& action : actions) {
    out.push_back(Concat(state, FeaturizeAction(action)));
  }
  return out;
}

Matrix Ea::FeaturizeCandidatesMatrix(
    const Vec& state, const std::vector<EaAction>& actions) const {
  Matrix m(actions.size(), input_dim_);
  for (size_t r = 0; r < actions.size(); ++r) {
    double* row = m.row(r);
    std::copy(state.raw(), state.raw() + state.dim(), row);
    const Vec f = FeaturizeAction(actions[r]);
    ISRL_CHECK_EQ(state.dim() + f.dim(), input_dim_);
    std::copy(f.raw(), f.raw() + f.dim(), row + state.dim());
  }
  return m;
}

TrainStats Ea::Train(const std::vector<Vec>& training_utilities) {
  TrainStats stats;
  stats.episodes = training_utilities.size();
  size_t total_rounds = 0;
  double last_loss = 0.0;

  for (const Vec& u : training_utilities) {
    const double epsilon_greedy = agent_.EpsilonAt(episodes_trained_);
    Polyhedron range = Polyhedron::UnitSimplex(data_.dim());
    RoundPlan plan = PlanRound(range, rng_);
    Vec state = EncodeEaState(range, options_.state);

    size_t rounds = 0;
    while (!plan.terminal && !plan.stalled && rounds < options_.max_rounds) {
      std::vector<Vec> features = FeaturizeCandidates(state, plan.actions);
      size_t pick = agent_.SelectEpsilonGreedy(features, epsilon_greedy, rng_);
      const Question q = plan.actions[pick].q;

      // Simulated answer (Algorithm 1 lines 9-12): prefer p_i iff
      // u·p_i ≥ u·p_j, then keep the matching half-space.
      const bool prefers_i = Dot(u, data_.point(q.i)) >= Dot(u, data_.point(q.j));
      const Vec& winner = data_.point(prefers_i ? q.i : q.j);
      const Vec& loser = data_.point(prefers_i ? q.j : q.i);
      range.Cut(PreferenceHalfspace(winner, loser));
      ++rounds;
      if (range.IsEmpty()) break;  // numeric degeneracy guard

      RoundPlan next_plan = PlanRound(range, rng_);
      Vec next_state = EncodeEaState(range, options_.state);

      const bool episode_over = next_plan.terminal || next_plan.stalled;
      rl::Transition t;
      t.state_action = std::move(features[pick]);
      t.terminal = episode_over;
      t.reward = episode_over
                     ? agent_.options().reward_constant
                     : -agent_.options().step_penalty;
      if (!episode_over) {
        t.next_candidates = FeaturizeCandidates(next_state, next_plan.actions);
      }
      agent_.Remember(std::move(t));
      for (size_t k = 0; k < options_.updates_per_round; ++k) {
        last_loss = agent_.Update(rng_);
      }

      plan = std::move(next_plan);
      state = std::move(next_state);
    }
    for (size_t k = 0; k < options_.updates_per_episode; ++k) {
      last_loss = agent_.Update(rng_);
    }
    total_rounds += rounds;
    ++episodes_trained_;
  }

  stats.mean_rounds = training_utilities.empty()
                          ? 0.0
                          : static_cast<double>(total_rounds) /
                                static_cast<double>(training_utilities.size());
  stats.final_loss = last_loss;
  RefreshServingModel();
  return stats;
}

// Algorithm 2 inverted into a sans-IO state machine (DESIGN.md §13). The
// per-round sequence of the old blocking loop — guard, deadline, score,
// ask, cut, re-plan, record — is preserved exactly, split across the step
// API: Prepare() is the loop top (guards + candidate featurisation),
// NextQuestion()/PostCandidateScores() is the greedy pick, OnAnswer() is
// the loop body. Every geometric/RNG operation runs in the original order,
// so stepped episodes are bit-identical to Interact().
class Ea::Session final : public RlSession {
 public:
  Session(Ea& owner, const SessionConfig& config)
      : RlSession(owner, config, owner.options_.max_rounds, "Ea.StartSession"),
        owner_(owner),
        range_(Polyhedron::UnitSimplex(owner.data_.dim())) {
    plan_ = owner_.PlanRound(range_, rng());
    state_ = EncodeEaState(range_, owner_.options_.state);
    fallback_best_ = owner_.data_.TopIndex(range_.Centroid());
    Prepare();
  }

  /// Restore shell: no planning, no Rng draws.
  Session(Ea& owner, InteractionTrace* trace)
      : RlSession(trace),
        owner_(owner),
        range_(Polyhedron::UnitSimplex(owner.data_.dim())) {}

  std::optional<Vec> HarvestUtility() const override {
    if (range_.IsEmpty()) return std::nullopt;
    return range_.Centroid();
  }

 private:
  Owner owner() const override {
    return {kEaFormat, owner_, owner_.data_, &owner_.rng_};
  }

  void OnAnswer(Answer answer) override {
    if (answer == Answer::kNoAnswer) {
      // Timed-out question: learn nothing, re-plan (the action sampler is
      // stochastic, so the next round asks a fresh set of questions).
      plan_ = owner_.PlanRound(range_, rng());
      TraceRange(fallback_best_, range_);
      Prepare();
      return;
    }
    const bool prefers_i = answer == Answer::kFirst;
    const Question q = question_.pair;
    const Vec& winner = owner_.data_.point(prefers_i ? q.i : q.j);
    const Vec& loser = owner_.data_.point(prefers_i ? q.j : q.i);
    if (!range_.TryCut(PreferenceHalfspace(winner, loser))) {
      // The answer contradicts everything learned so far (inconsistent
      // noisy user): dropping the minimal most-recent suffix of conflicting
      // half-spaces — here exactly this one, since R was non-empty before —
      // keeps the session alive.
      ++result_.dropped_answers;
      plan_ = owner_.PlanRound(range_, rng());
      TraceRange(fallback_best_, range_);
      Prepare();
      return;
    }

    plan_ = owner_.PlanRound(range_, rng());
    if (!plan_.terminal && !plan_.stalled) {
      state_ = EncodeEaState(range_, owner_.options_.state);
    }
    fallback_best_ = plan_.terminal
                         ? plan_.winner
                         : owner_.data_.TopIndex(range_.Centroid());
    TraceRange(fallback_best_, range_);
    Prepare();
  }

  // Prepare() already terminated every certificate/stall state, so a
  // cancelled session is mid-question.
  size_t BestSoFar() const override { return fallback_best_; }

  Matrix CandidateFeatures() const override {
    return owner_.FeaturizeCandidatesMatrix(state_, plan_.actions);
  }

  Question Candidate(size_t index) const override {
    return plan_.actions[index].q;
  }

  /// The top of the old blocking loop: evaluate the loop guard and the
  /// deadline, then stage the candidate features for scoring.
  void Prepare() {
    if (plan_.terminal) {
      EndEpisode(plan_.winner, Certified());
    } else if (plan_.stalled) {
      EndEpisode(fallback_best_, Termination::kDegraded);
    } else if (result_.rounds >= max_rounds_ || deadline_.Expired()) {
      EndEpisode(fallback_best_, Termination::kBudgetExhausted);
    } else {
      StageScoring();
    }
  }

  void EncodePayload(snapshot::Writer* w) const override {
    EncodeModel(w);
    snapshot::EncodePolyhedron(range_, w);
    w->Bool(plan_.terminal);
    w->Bool(plan_.stalled);
    w->U64(plan_.winner);
    w->U64(plan_.actions.size());
    for (const EaAction& a : plan_.actions) {
      w->U64(a.q.i);
      w->U64(a.q.j);
      w->F64(a.balance);
      w->F64(a.center_dist);
    }
    snapshot::EncodeVec(state_, w);
    w->U64(fallback_best_);
  }

  Status DecodePayload(snapshot::Reader* r, SessionStage stage,
                       const SessionConfig& config) override {
    ISRL_RETURN_IF_ERROR(DecodeModel(r, owner_, config));
    Result<Polyhedron> range = snapshot::DecodePolyhedron(r);
    ISRL_RETURN_IF_ERROR(range.status());
    const size_t n = owner_.data_.size();
    if (range->dim() != owner_.data_.dim()) {
      return Status::InvalidArgument(
          "EA snapshot: polyhedron dimension does not match the dataset");
    }
    RoundPlan plan;
    plan.terminal = r->Bool();
    plan.stalled = r->Bool();
    plan.winner = static_cast<size_t>(r->U64());
    const uint64_t num_actions = r->U64();
    if (!r->failed() && num_actions > snapshot::kMaxElements) {
      return Status::InvalidArgument("EA snapshot: implausible action count");
    }
    for (uint64_t i = 0; i < num_actions && !r->failed(); ++i) {
      EaAction a;
      a.q.i = static_cast<size_t>(r->U64());
      a.q.j = static_cast<size_t>(r->U64());
      a.balance = r->FiniteF64();
      a.center_dist = r->FiniteF64();
      if (!r->failed() && (a.q.i >= n || a.q.j >= n)) {
        return Status::InvalidArgument(
            "EA snapshot: action index out of dataset range");
      }
      plan.actions.push_back(a);
    }
    Vec state;
    ISRL_RETURN_IF_ERROR(snapshot::DecodeVec(r, &state));
    const uint64_t fallback = r->U64();
    ISRL_RETURN_IF_ERROR(PayloadEnd(*r));
    if (plan.winner >= n || fallback >= n) {
      return Status::InvalidArgument(
          "EA snapshot: recommendation index out of dataset range");
    }
    const size_t expected_state_dim =
        owner_.input_dim_ - 3 * owner_.data_.dim() - Ea::kActionDescriptors;
    if (state.dim() != expected_state_dim) {
      return Status::InvalidArgument(
          "EA snapshot: state vector dimension mismatch");
    }
    if (stage == SessionStage::kScoring &&
        (plan.terminal || plan.stalled || plan.actions.empty())) {
      return Status::InvalidArgument(
          "EA snapshot: scoring stage without staged candidates");
    }
    range_ = std::move(range.value());
    plan_ = std::move(plan);
    state_ = std::move(state);
    fallback_best_ = static_cast<size_t>(fallback);
    return Status::Ok();
  }

  Ea& owner_;
  Polyhedron range_;
  RoundPlan plan_;
  Vec state_;
  size_t fallback_best_ = 0;
};

std::unique_ptr<InteractionSession> Ea::StartSession(
    const SessionConfig& config) {
  return std::make_unique<Session>(*this, config);
}

Result<std::unique_ptr<InteractionSession>> Ea::RestoreSession(
    const std::string& bytes, const SessionConfig& config) {
  return SessionBase::Restore(std::make_unique<Session>(*this, config.trace),
                              bytes, config);
}

}  // namespace isrl
