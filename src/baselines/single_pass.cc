#include "baselines/single_pass.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/session_base.h"
#include "core/snapshot.h"
#include "geometry/hit_and_run.h"
#include "user/sampler.h"

namespace isrl {
namespace {

constexpr SessionFormat kSpFormat{"sp-session", 1, "SinglePass", "protocol"};

// Axis-aligned bounding box of a utility-vector sample, padded by `pad` and
// clipped to [0,1]. An inner approximation of the true outer rectangle; the
// padding compensates so the stop certificate is not absurdly optimistic.
void SampleRect(const std::vector<Vec>& samples, double pad, Vec* e_min,
                Vec* e_max) {
  const size_t d = (*e_min).dim();
  for (size_t k = 0; k < d; ++k) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (const Vec& u : samples) {
      lo = std::min(lo, u[k]);
      hi = std::max(hi, u[k]);
    }
    (*e_min)[k] = std::max(0.0, lo - pad);
    (*e_max)[k] = std::min(1.0, hi + pad);
  }
}

}  // namespace

SinglePass::SinglePass(const Dataset& data, const SinglePassOptions& options)
    : data_(data), options_(options), rng_(options.seed) {
  ISRL_CHECK(!data.empty());
  ISRL_CHECK_GT(options.epsilon, 0.0);
  ISRL_CHECK_LT(options.epsilon, 1.0);
}

// The streaming champion loop inverted into a sans-IO state machine
// (DESIGN.md §13): the nested pass/stream loops become two cursors (pass_,
// pos_) that Advance() walks exactly as the old for-loops did — including
// the pass epilogue's certificate checks and the end-of-pass reshuffle
// (which the old loop ran even before a final, never-executed pass), so
// stepped episodes are bit-identical to Interact() down to the Rng state.
class SinglePass::Session final : public SessionBase {
 public:
  Session(SinglePass& owner, const SessionConfig& config)
      : SessionBase(config, owner.options_.max_questions),
        owner_(owner),
        d_(owner.data_.dim()),
        max_lp_(config.budget.max_lp_iterations),
        stop_dist_(2.0 * std::sqrt(static_cast<double>(owner.data_.dim())) *
                   owner.options_.epsilon),
        pad_(0.5 * owner.options_.epsilon),
        e_min_(owner.data_.dim(), 0.0),
        e_max_(owner.data_.dim(), 1.0),
        order_(owner.data_.size()) {
    // SinglePass keeps no polyhedron and solves no LPs; its entire learned
    // state is the half-space list plus a particle set of consistent
    // utility vectors that powers both the rule-based filter and the stop
    // certificate.
    particles_ = SampleUtilityVectors(owner_.options_.particles, d_, rng());
    std::iota(order_.begin(), order_.end(), 0);
    rng().Shuffle(&order_);
    champion_ = order_[0];
    Advance();
  }

  /// Restore shell (see Ea::Session). Fixed parameters (d, the stop bound,
  /// the rectangle padding) are recomputed from the owner; everything
  /// learned comes from DecodePayload().
  Session(SinglePass& owner, InteractionTrace* trace)
      : SessionBase(trace),
        owner_(owner),
        d_(owner.data_.dim()),
        max_lp_(0),
        stop_dist_(2.0 * std::sqrt(static_cast<double>(owner.data_.dim())) *
                   owner.options_.epsilon),
        pad_(0.5 * owner.options_.epsilon),
        e_min_(owner.data_.dim(), 0.0),
        e_max_(owner.data_.dim(), 1.0) {}

 private:
  Owner owner() const override {
    return {kSpFormat, owner_, owner_.data_, &owner_.rng_};
  }

  void OnAnswer(Answer answer) override {
    const size_t idx = challenger_;
    ++questions_this_pass_;
    if (answer == Answer::kNoAnswer) {
      // Timed-out question: the stream moves on; the challenger gets
      // another chance next pass.
      TraceChampion();
      ++pos_;
      Advance();
      return;
    }
    const bool prefers_challenger = answer == Answer::kFirst;

    LearnedHalfspace lh;
    lh.winner = prefers_challenger ? idx : champion_;
    lh.loser = prefers_challenger ? champion_ : idx;
    lh.h = PreferenceHalfspace(owner_.data_.point(lh.winner),
                               owner_.data_.point(lh.loser));
    h_.push_back(std::move(lh));
    if (prefers_challenger) champion_ = idx;

    // Filter particles by the new answer; replenish when thin.
    const Halfspace& learned = h_.back().h;
    particles_.erase(std::remove_if(particles_.begin(), particles_.end(),
                                    [&](const Vec& u) {
                                      return !learned.Contains(u, 0.0);
                                    }),
                     particles_.end());
    Replenish();
    if (!particles_.empty()) SampleRect(particles_, pad_, &e_min_, &e_max_);

    TraceChampion();
    // Mid-pass: the cheap particle certificate only (the LP rectangle is
    // reserved for pass boundaries).
    if (result_.rounds % owner_.options_.stop_check_every == 0 &&
        ParticleStop()) {
      certified_ = true;
      Terminate();
      return;
    }
    ++pos_;
    Advance();
  }

  size_t BestSoFar() const override { return champion_; }

  /// Walks the stream cursors to the next askable challenger, running pass
  /// epilogues (certificates, stuck detection, reshuffle) along the way —
  /// the exact control flow of the old nested loops.
  void Advance() {
    while (true) {
      if (pass_ >= owner_.options_.max_passes) {
        Terminate();
        return;
      }
      while (pos_ < order_.size()) {
        const size_t idx = order_[pos_];
        if (idx == champion_) {
          ++pos_;
          continue;
        }
        if (result_.rounds >= max_rounds_ || deadline_.Expired()) break;
        if (ChallengerImpossible(idx)) {
          ++pos_;
          continue;
        }
        challenger_ = idx;
        Ask(Question{idx, champion_});
        return;
      }
      // Pass epilogue (also reached on a budget/deadline inner break).
      if (result_.rounds >= max_rounds_ || deadline_.Expired()) {
        Terminate();
        return;
      }
      if (CertifiedStop()) {
        certified_ = true;
        Terminate();
        return;
      }
      if (questions_this_pass_ == 0) {
        // The filter skips every challenger although no certificate fired:
        // the particle rectangle cannot shrink further. Best-so-far,
        // degraded.
        stuck_ = true;
        Terminate();
        return;
      }
      rng().Shuffle(&order_);
      ++pass_;
      pos_ = 0;
      questions_this_pass_ = 0;
    }
  }

  // Rule-based filter: skip the challenger when even the loosest utility in
  // the rectangle around the consistent region cannot prefer it.
  bool ChallengerImpossible(size_t idx) const {
    const Vec& p = owner_.data_.point(idx);
    const Vec& c = owner_.data_.point(champion_);
    double ub = 0.0;
    for (size_t k = 0; k < d_; ++k) {
      double diff = p[k] - c[k];
      ub += diff >= 0.0 ? e_max_[k] * diff : e_min_[k] * diff;
    }
    return ub <= 0.0;
  }

  void Replenish() {
    if (particles_.size() >= owner_.options_.min_particles) return;
    // Walk over the most recent cuts only — bounds the chain's per-step
    // cost as |H| grows into the thousands. Samples may violate ancient
    // cuts and land slightly outside R; that only makes the particle-based
    // filter and stop test more conservative.
    const size_t window = std::min<size_t>(512, h_.size());
    std::vector<Halfspace> cuts;
    cuts.reserve(window);
    for (size_t k = h_.size() - window; k < h_.size(); ++k) {
      cuts.push_back(h_[k].h);
    }
    Vec start = particles_.empty() ? Vec(d_, 1.0 / static_cast<double>(d_))
                                   : particles_.back();
    std::vector<Vec> fresh =
        HitAndRunSample(cuts, start, owner_.options_.particles, rng());
    if (!fresh.empty()) particles_ = std::move(fresh);
  }

  // Stop certificate, two-tiered and cheap:
  //  (1) the champion's maximum regret ratio over the consistent particles
  //      is below ε/2 (the particles sample the region still in play; the
  //      2× safety factor compensates their inner-approximation bias), or
  //  (2) the sound LP outer rectangle over a window of the most recent
  //      half-spaces satisfies the ‖e_min − e_max‖ ≤ 2√d·ε bound (exact
  //      while |H| fits the window, conservative afterwards).
  bool ParticleStop() const {
    if (particles_.size() < owner_.options_.min_particles) return false;
    const Vec& champ = owner_.data_.point(champion_);
    double worst = 0.0;
    for (const Vec& u : particles_) {
      double top = owner_.data_.TopUtility(u);
      worst = std::max(worst, (top - Dot(u, champ)) / top);
      if (worst > 0.5 * owner_.options_.epsilon) return false;
    }
    return worst <= 0.5 * owner_.options_.epsilon;
  }

  bool CertifiedStop() {
    if (ParticleStop()) return true;
    const size_t window =
        std::min(owner_.options_.stop_check_window, h_.size());
    std::vector<LearnedHalfspace> recent(h_.end() - window, h_.end());
    AaGeometry geo = ComputeAaGeometry(d_, recent, max_lp_);
    if (!geo.feasible) return false;
    return Distance(geo.e_min, geo.e_max) <= stop_dist_;
  }

  void TraceChampion() {
    if (trace_ != nullptr) {
      TraceRound(watch_.ElapsedSeconds(), champion_, particles_);
    }
  }

  void Terminate() {
    // Neither certified nor stuck: max_questions, max_passes, or the
    // deadline ran out first.
    EndEpisode(champion_, certified_ ? Certified()
                          : stuck_   ? Termination::kDegraded
                                     : Termination::kBudgetExhausted);
  }

  void EncodePayload(snapshot::Writer* w) const override {
    w->U64(max_lp_);
    w->U64(h_.size());
    for (const LearnedHalfspace& lh : h_) {
      snapshot::EncodeLearnedHalfspace(lh, w);
    }
    w->U64(particles_.size());
    for (const Vec& u : particles_) snapshot::EncodeVec(u, w);
    snapshot::EncodeVec(e_min_, w);
    snapshot::EncodeVec(e_max_, w);
    snapshot::EncodeIndexVector(order_, w);
    w->U64(champion_);
    w->U64(pass_);
    w->U64(pos_);
    w->U64(questions_this_pass_);
    w->U64(challenger_);
    w->Bool(certified_);
    w->Bool(stuck_);
  }

  Status DecodePayload(snapshot::Reader* r, SessionStage /*stage*/,
                       const SessionConfig& /*config*/) override {
    const size_t n = owner_.data_.size();
    const uint64_t max_lp = r->U64();
    const uint64_t num_h = r->U64();
    if (!r->failed() && num_h > snapshot::kMaxElements) {
      return Status::InvalidArgument(
          "SinglePass snapshot: implausible H size");
    }
    std::vector<LearnedHalfspace> h;
    for (uint64_t i = 0; i < num_h && !r->failed(); ++i) {
      LearnedHalfspace lh;
      ISRL_RETURN_IF_ERROR(snapshot::DecodeLearnedHalfspace(r, &lh, n));
      if (lh.h.normal.dim() != d_) {
        return Status::InvalidArgument(
            "SinglePass snapshot: halfspace dimension mismatch");
      }
      h.push_back(std::move(lh));
    }
    const uint64_t num_particles = r->U64();
    if (!r->failed() && num_particles > snapshot::kMaxElements) {
      return Status::InvalidArgument(
          "SinglePass snapshot: implausible particle count");
    }
    std::vector<Vec> particles;
    for (uint64_t i = 0; i < num_particles && !r->failed(); ++i) {
      Vec u;
      ISRL_RETURN_IF_ERROR(snapshot::DecodeVec(r, &u));
      if (u.dim() != d_) {
        return Status::InvalidArgument(
            "SinglePass snapshot: particle dimension mismatch");
      }
      particles.push_back(std::move(u));
    }
    Vec e_min, e_max;
    ISRL_RETURN_IF_ERROR(snapshot::DecodeVec(r, &e_min));
    ISRL_RETURN_IF_ERROR(snapshot::DecodeVec(r, &e_max));
    std::vector<size_t> order;
    ISRL_RETURN_IF_ERROR(snapshot::DecodeIndexVector(r, &order, n));
    const uint64_t champion = r->U64();
    const uint64_t pass = r->U64();
    const uint64_t pos = r->U64();
    const uint64_t questions_this_pass = r->U64();
    const uint64_t challenger = r->U64();
    const bool certified = r->Bool();
    const bool stuck = r->Bool();
    ISRL_RETURN_IF_ERROR(PayloadEnd(*r));
    if (e_min.dim() != d_ || e_max.dim() != d_) {
      return Status::InvalidArgument(
          "SinglePass snapshot: rectangle dimension mismatch");
    }
    // Advance() walks order_[pos_] directly, so the stream order must be a
    // genuine permutation of the dataset and the cursor must stay within
    // one-past-the-end.
    if (order.size() != n) {
      return Status::InvalidArgument(
          "SinglePass snapshot: stream order size mismatch");
    }
    std::vector<bool> seen(n, false);
    for (size_t idx : order) {
      if (seen[idx]) {
        return Status::InvalidArgument(
            "SinglePass snapshot: stream order is not a permutation");
      }
      seen[idx] = true;
    }
    if (champion >= n || challenger >= n || pos > n) {
      return Status::InvalidArgument(
          "SinglePass snapshot: stream cursor out of range");
    }

    max_lp_ = static_cast<size_t>(max_lp);
    h_ = std::move(h);
    particles_ = std::move(particles);
    e_min_ = std::move(e_min);
    e_max_ = std::move(e_max);
    order_ = std::move(order);
    champion_ = static_cast<size_t>(champion);
    pass_ = static_cast<size_t>(pass);
    pos_ = static_cast<size_t>(pos);
    questions_this_pass_ = static_cast<size_t>(questions_this_pass);
    challenger_ = static_cast<size_t>(challenger);
    certified_ = certified;
    stuck_ = stuck;
    return Status::Ok();
  }

  SinglePass& owner_;
  size_t d_;
  size_t max_lp_;
  double stop_dist_;
  double pad_;

  std::vector<LearnedHalfspace> h_;
  std::vector<Vec> particles_;
  Vec e_min_, e_max_;
  std::vector<size_t> order_;
  size_t champion_ = 0;
  size_t pass_ = 0;
  size_t pos_ = 0;
  size_t questions_this_pass_ = 0;
  size_t challenger_ = 0;
  bool certified_ = false;
  bool stuck_ = false;
};

std::unique_ptr<InteractionSession> SinglePass::StartSession(
    const SessionConfig& config) {
  return std::make_unique<Session>(*this, config);
}

Result<std::unique_ptr<InteractionSession>> SinglePass::RestoreSession(
    const std::string& bytes, const SessionConfig& config) {
  return SessionBase::Restore(std::make_unique<Session>(*this, config.trace),
                              bytes, config);
}

}  // namespace isrl
