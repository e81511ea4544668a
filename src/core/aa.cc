#include "core/aa.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/snapshot.h"
#include "geometry/hit_and_run.h"

namespace isrl {

namespace {
// v2 added the pinned model's registry version next to its fingerprint.
constexpr SessionFormat kAaFormat{"aa-session", 2, "AA", nullptr};
}  // namespace

Aa::Aa(const Dataset& data, const AaOptions& options)
    : RlAlgorithm(options.seed,
                  AaStateDim(data.dim()) + 3 * data.dim() + kActionDescriptors,
                  options.dqn),
      data_(data),
      options_(options) {
  ISRL_CHECK(!data.empty());
  ISRL_CHECK_GT(options.epsilon, 0.0);
  ISRL_CHECK_LT(options.epsilon, 1.0);
}

double Aa::StopDistance() const {
  return 2.0 * std::sqrt(static_cast<double>(data_.dim())) * options_.epsilon;
}

Vec Aa::FeaturizeAction(const AaAction& action) const {
  const Vec& pi = data_.point(action.q.i);
  const Vec& pj = data_.point(action.q.j);
  Vec f = pi;
  f.Append(pj);
  f.Append(pi - pj);
  // Geometric descriptors: the decision-relevant second-order quantities the
  // network would otherwise have to learn from raw coordinates.
  f.PushBack(action.balance);
  f.PushBack(action.alignment);
  f.PushBack(action.center_dist);
  return f;
}

std::vector<Vec> Aa::FeaturizeCandidates(
    const Vec& state, const std::vector<AaAction>& actions) const {
  std::vector<Vec> out;
  out.reserve(actions.size());
  for (const AaAction& action : actions) {
    out.push_back(Concat(state, FeaturizeAction(action)));
  }
  return out;
}

Matrix Aa::FeaturizeCandidatesMatrix(
    const Vec& state, const std::vector<AaAction>& actions) const {
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

size_t Aa::MidpointBest(const AaGeometry& geometry) const {
  Vec mid = (geometry.e_min + geometry.e_max) / 2.0;
  return data_.TopIndex(mid);
}

TrainStats Aa::Train(const std::vector<Vec>& training_utilities) {
  TrainStats stats;
  stats.episodes = training_utilities.size();
  size_t total_rounds = 0;
  double last_loss = 0.0;
  const double stop_dist = StopDistance();

  for (const Vec& u : training_utilities) {
    const double epsilon_greedy = agent_.EpsilonAt(episodes_trained_);
    std::vector<LearnedHalfspace> h;
    AaGeometry geo = ComputeAaGeometry(data_.dim(), h);
    if (!geo.feasible) {
      // The empty-H geometry is the unit simplex; an LP failure here is a
      // numerical fluke. Skip the episode rather than aborting training.
      ++episodes_trained_;
      continue;
    }
    Vec state = EncodeAaState(geo);
    std::vector<AaAction> actions =
        BuildAaActionSpace(data_, h, geo, options_.actions, rng_);

    size_t rounds = 0;
    while (Distance(geo.e_min, geo.e_max) > stop_dist && !actions.empty() &&
           rounds < options_.max_rounds) {
      std::vector<Vec> features = FeaturizeCandidates(state, actions);
      size_t pick = agent_.SelectEpsilonGreedy(features, epsilon_greedy, rng_);
      const Question q = actions[pick].q;

      const bool prefers_i =
          Dot(u, data_.point(q.i)) >= Dot(u, data_.point(q.j));
      LearnedHalfspace lh;
      lh.winner = prefers_i ? q.i : q.j;
      lh.loser = prefers_i ? q.j : q.i;
      lh.h = PreferenceHalfspace(data_.point(lh.winner), data_.point(lh.loser));
      h.push_back(std::move(lh));
      ++rounds;

      AaGeometry next_geo = ComputeAaGeometry(data_.dim(), h);
      if (!next_geo.feasible) break;  // cannot happen with consistent answers
      Vec next_state = EncodeAaState(next_geo);
      bool terminal = Distance(next_geo.e_min, next_geo.e_max) <= stop_dist;
      std::vector<AaAction> next_actions;
      if (!terminal) {
        next_actions =
            BuildAaActionSpace(data_, h, next_geo, options_.actions, rng_);
        if (next_actions.empty()) terminal = true;  // no splitting pair left
      }

      rl::Transition t;
      t.state_action = std::move(features[pick]);
      t.terminal = terminal;
      t.reward = terminal ? agent_.options().reward_constant
                          : -agent_.options().step_penalty;
      if (!terminal) {
        t.next_candidates = FeaturizeCandidates(next_state, next_actions);
      }
      agent_.Remember(std::move(t));
      for (size_t k = 0; k < options_.updates_per_round; ++k) {
        last_loss = agent_.Update(rng_);
      }

      geo = std::move(next_geo);
      state = std::move(next_state);
      actions = std::move(next_actions);
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

// Algorithm 4 inverted into a sans-IO state machine (DESIGN.md §13). Same
// structure as Ea::Session: Prepare() is the old loop top, OnAnswer() the
// loop body, with every LP/RNG call in the original order so stepped
// episodes are bit-identical to Interact().
class Aa::Session final : public RlSession {
 public:
  Session(Aa& owner, const SessionConfig& config)
      : RlSession(owner, config, owner.options_.max_rounds, "Aa.StartSession"),
        owner_(owner),
        stop_dist_(owner.StopDistance()),
        max_lp_(config.budget.max_lp_iterations) {
    geo_ = ComputeAaGeometry(owner_.data_.dim(), h_, max_lp_);
    if (!geo_.feasible) {
      // The empty-H geometry is the unit simplex itself; failure means the
      // LP budget is too tight even for the trivial model. Recommend
      // something sensible and report the abort instead of crashing.
      const size_t d = owner_.data_.dim();
      result_.status = Status::Internal("initial AA geometry LP failed");
      EndEpisode(owner_.data_.TopIndex(Vec(d, 1.0 / d)), Termination::kAborted);
      return;
    }
    state_ = EncodeAaState(geo_);
    actions_ = BuildAaActionSpace(owner_.data_, h_, geo_,
                                  owner_.options_.actions, rng());
    best_ = owner_.MidpointBest(geo_);
    Prepare();
  }

  /// Restore shell (see Ea::Session).
  Session(Aa& owner, InteractionTrace* trace)
      : RlSession(trace), owner_(owner), stop_dist_(owner.StopDistance()) {}

  std::optional<Vec> HarvestUtility() const override {
    if (!geo_.feasible) return std::nullopt;
    return (geo_.e_min + geo_.e_max) / 2.0;
  }

 private:
  Owner owner() const override {
    return {kAaFormat, owner_, owner_.data_, &owner_.rng_};
  }

  void OnAnswer(Answer answer) override {
    if (answer == Answer::kNoAnswer) {
      // Timed-out question: learn nothing; re-sample the action pool so the
      // next round asks a different question.
      actions_ = BuildAaActionSpace(owner_.data_, h_, geo_,
                                    owner_.options_.actions, rng());
      TraceBest({});
      Prepare();
      return;
    }
    const bool prefers_i = answer == Answer::kFirst;
    const Question q = question_.pair;
    LearnedHalfspace lh;
    lh.winner = prefers_i ? q.i : q.j;
    lh.loser = prefers_i ? q.j : q.i;
    lh.h = PreferenceHalfspace(owner_.data_.point(lh.winner),
                               owner_.data_.point(lh.loser));
    h_.push_back(std::move(lh));

    AaGeometry next_geo = ComputeAaGeometry(owner_.data_.dim(), h_, max_lp_);
    if (!next_geo.feasible) {
      // Contradictory answers (noisy user): H has no common utility vector.
      // Drop the minimal most-recent suffix of half-spaces that restores
      // feasibility and continue from the reduced H.
      while (!h_.empty() && !next_geo.feasible) {
        h_.pop_back();
        ++result_.dropped_answers;
        next_geo = ComputeAaGeometry(owner_.data_.dim(), h_, max_lp_);
      }
      if (!next_geo.feasible) {
        // Even H = ∅ failed: the LP itself is broken. Abort gracefully.
        result_.status = Status::Internal("AA geometry LP failed on empty H");
        EndEpisode(best_, Termination::kAborted);
        TraceBest({});
        return;
      }
    }
    geo_ = std::move(next_geo);
    state_ = EncodeAaState(geo_);
    actions_ = BuildAaActionSpace(owner_.data_, h_, geo_,
                                  owner_.options_.actions, rng());
    best_ = owner_.MidpointBest(geo_);

    if (trace_ != nullptr) {
      std::vector<Halfspace> cuts;
      cuts.reserve(h_.size());
      for (const LearnedHalfspace& learned : h_) cuts.push_back(learned.h);
      std::vector<Vec> consistent = HitAndRunSample(
          cuts, geo_.inner.center, trace_->regret_samples(), trace_->rng());
      TraceBest(consistent);
    }
    Prepare();
  }

  size_t BestSoFar() const override { return best_; }

  Matrix CandidateFeatures() const override {
    return owner_.FeaturizeCandidatesMatrix(state_, actions_);
  }

  Question Candidate(size_t index) const override { return actions_[index].q; }

  void Prepare() {
    const double distance = Distance(geo_.e_min, geo_.e_max);
    if (distance <= stop_dist_) {
      EndEpisode(best_, Certified());
    } else if (actions_.empty()) {
      // No splitting pair left although the rectangle is still wide: the
      // sampler is exhausted. Best-so-far under a degraded certificate.
      EndEpisode(best_, Termination::kDegraded);
    } else if (!(distance > stop_dist_) || result_.rounds >= max_rounds_ ||
               deadline_.Expired()) {  // a NaN distance stops here too
      EndEpisode(best_, Termination::kBudgetExhausted);
    } else {
      StageScoring();
    }
  }

  void TraceBest(const std::vector<Vec>& consistent) {
    if (trace_ != nullptr) TraceRound(watch_.ElapsedSeconds(), best_, consistent);
  }

  void EncodePayload(snapshot::Writer* w) const override {
    EncodeModel(w);
    w->U64(max_lp_);
    w->U64(h_.size());
    for (const LearnedHalfspace& lh : h_) {
      snapshot::EncodeLearnedHalfspace(lh, w);
    }
    w->Bool(geo_.feasible);
    snapshot::EncodeVec(geo_.inner.center, w);
    w->F64(geo_.inner.radius);
    snapshot::EncodeVec(geo_.e_min, w);
    snapshot::EncodeVec(geo_.e_max, w);
    snapshot::EncodeVec(state_, w);
    w->U64(actions_.size());
    for (const AaAction& a : actions_) {
      w->U64(a.q.i);
      w->U64(a.q.j);
      w->F64(a.balance);
      w->F64(a.alignment);
      w->F64(a.center_dist);
    }
    w->U64(best_);
  }

  Status DecodePayload(snapshot::Reader* r, SessionStage stage,
                       const SessionConfig& config) override {
    ISRL_RETURN_IF_ERROR(DecodeModel(r, owner_, config));
    const size_t n = owner_.data_.size();
    const size_t d = owner_.data_.dim();
    const uint64_t max_lp = r->U64();
    const uint64_t num_h = r->U64();
    if (!r->failed() && num_h > snapshot::kMaxElements) {
      return Status::InvalidArgument("AA snapshot: implausible H size");
    }
    std::vector<LearnedHalfspace> h;
    for (uint64_t i = 0; i < num_h && !r->failed(); ++i) {
      LearnedHalfspace lh;
      ISRL_RETURN_IF_ERROR(snapshot::DecodeLearnedHalfspace(r, &lh, n));
      if (lh.h.normal.dim() != d) {
        return Status::InvalidArgument(
            "AA snapshot: learned halfspace dimension mismatch");
      }
      h.push_back(std::move(lh));
    }
    AaGeometry geo;
    geo.feasible = r->Bool();
    ISRL_RETURN_IF_ERROR(snapshot::DecodeVec(r, &geo.inner.center));
    geo.inner.radius = r->FiniteF64();
    ISRL_RETURN_IF_ERROR(snapshot::DecodeVec(r, &geo.e_min));
    ISRL_RETURN_IF_ERROR(snapshot::DecodeVec(r, &geo.e_max));
    Vec state;
    ISRL_RETURN_IF_ERROR(snapshot::DecodeVec(r, &state));
    const uint64_t num_actions = r->U64();
    if (!r->failed() && num_actions > snapshot::kMaxElements) {
      return Status::InvalidArgument("AA snapshot: implausible action count");
    }
    std::vector<AaAction> actions;
    for (uint64_t i = 0; i < num_actions && !r->failed(); ++i) {
      AaAction a;
      a.q.i = static_cast<size_t>(r->U64());
      a.q.j = static_cast<size_t>(r->U64());
      a.balance = r->FiniteF64();
      a.alignment = r->FiniteF64();
      a.center_dist = r->FiniteF64();
      if (!r->failed() && (a.q.i >= n || a.q.j >= n)) {
        return Status::InvalidArgument(
            "AA snapshot: action index out of dataset range");
      }
      actions.push_back(a);
    }
    const uint64_t best = r->U64();
    ISRL_RETURN_IF_ERROR(PayloadEnd(*r));
    if (best >= n) {
      return Status::InvalidArgument(
          "AA snapshot: recommendation index out of dataset range");
    }
    if (stage != SessionStage::kFinished) {
      // Live sessions always hold a feasible geometry of the dataset's
      // dimension (infeasible geometries only occur on the abort paths,
      // which finish the session before it can be saved mid-flight).
      if (!geo.feasible || geo.inner.center.dim() != d ||
          geo.e_min.dim() != d || geo.e_max.dim() != d) {
        return Status::InvalidArgument(
            "AA snapshot: live session carries an unusable geometry");
      }
      const size_t expected_state_dim =
          owner_.input_dim_ - 3 * d - Aa::kActionDescriptors;
      if (state.dim() != expected_state_dim) {
        return Status::InvalidArgument(
            "AA snapshot: state vector dimension mismatch");
      }
    }
    if (stage == SessionStage::kScoring && actions.empty()) {
      return Status::InvalidArgument(
          "AA snapshot: scoring stage without staged candidates");
    }
    max_lp_ = static_cast<size_t>(max_lp);
    h_ = std::move(h);
    geo_ = std::move(geo);
    state_ = std::move(state);
    actions_ = std::move(actions);
    best_ = static_cast<size_t>(best);
    return Status::Ok();
  }

  Aa& owner_;
  double stop_dist_;
  size_t max_lp_ = 0;

  std::vector<LearnedHalfspace> h_;
  AaGeometry geo_;
  Vec state_;
  std::vector<AaAction> actions_;
  size_t best_ = 0;
};

std::unique_ptr<InteractionSession> Aa::StartSession(
    const SessionConfig& config) {
  return std::make_unique<Session>(*this, config);
}

Result<std::unique_ptr<InteractionSession>> Aa::RestoreSession(
    const std::string& bytes, const SessionConfig& config) {
  return SessionBase::Restore(std::make_unique<Session>(*this, config.trace),
                              bytes, config);
}

}  // namespace isrl
