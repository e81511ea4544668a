#include "baselines/utility_approx.h"

#include <algorithm>
#include <cmath>

#include "core/session_base.h"
#include "core/snapshot.h"

namespace isrl {

namespace {
constexpr SessionFormat kUaFormat{"ua-session", 1, "UtilityApprox",
                                  "protocol"};
}  // namespace

UtilityApprox::UtilityApprox(const Dataset& data,
                             const UtilityApproxOptions& options)
    : data_(data), options_(options) {
  ISRL_CHECK(!data.empty());
  ISRL_CHECK_GE(data.dim(), 2u);
  ISRL_CHECK_GT(options.epsilon, 0.0);
}

// The ratio-bisection loop inverted into a sans-IO state machine (DESIGN.md
// §13). Prepare() is the old loop top — budget guard, geometry certificate
// (with its in-loop converged return), widest-interval pick, fake-tuple
// construction — and OnAnswer() the loop body, in the original order, so
// stepped episodes are bit-identical to Interact(). The questions compare
// constructed points, so SessionQuestion::synthetic is set and the answer
// handling works off the stored point vectors, never dataset indices.
class UtilityApprox::Session final : public SessionBase {
 public:
  Session(UtilityApprox& owner, const SessionConfig& config)
      : SessionBase(config, owner.options_.max_rounds),
        owner_(owner),
        d_(owner.data_.dim()),
        stop_dist_(2.0 * std::sqrt(static_cast<double>(owner.data_.dim())) *
                   owner.options_.epsilon),
        max_lp_(config.budget.max_lp_iterations),
        lo_(d_, 0.0),
        hi_(d_, owner.options_.max_ratio) {
    // Per-dimension binary-search interval for r_c = u[c]/u[0].
    lo_[0] = hi_[0] = 1.0;
    Prepare();
  }

  /// Restore shell (see Ea::Session).
  Session(UtilityApprox& owner, InteractionTrace* trace)
      : SessionBase(trace),
        owner_(owner),
        d_(owner.data_.dim()),
        stop_dist_(2.0 * std::sqrt(static_cast<double>(owner.data_.dim())) *
                   owner.options_.epsilon),
        max_lp_(0),
        lo_(d_, 0.0),
        hi_(d_, 0.0) {}

 private:
  Owner owner() const override {
    return {kUaFormat, owner_, owner_.data_, nullptr};
  }

  void OnAnswer(Answer answer) override {
    if (answer == Answer::kNoAnswer) {
      // Timed-out question: re-ask the widest interval next round.
      Prepare();
      return;
    }
    const bool prefers_a = answer == Answer::kFirst;
    const Vec& a = question_.first;
    const Vec& b = question_.second;

    LearnedHalfspace lh;
    lh.winner = 0;  // fake tuples have no dataset index
    lh.loser = 0;
    lh.h = prefers_a ? PreferenceHalfspace(a, b) : PreferenceHalfspace(b, a);
    h_.push_back(std::move(lh));
    if (prefers_a) {
      lo_[c_] = t_;  // u[c] ≥ t·u[0]
    } else {
      hi_[c_] = t_;
    }

    if (trace_ != nullptr) {
      const double elapsed = watch_.ElapsedSeconds();
      AaGeometry mid_geo = ComputeAaGeometry(d_, h_, max_lp_);
      size_t best =
          mid_geo.feasible
              ? owner_.data_.TopIndex((mid_geo.e_min + mid_geo.e_max) / 2.0)
              : result_.best_index;
      TraceRound(elapsed, best, {});
    }
    Prepare();
  }

  /// Best-so-far from the current geometry — exactly the budget-exhausted
  /// exit of the old loop.
  size_t BestSoFar() const override {
    AaGeometry geo = ComputeAaGeometry(d_, h_, max_lp_);
    Vec estimate(d_, 1.0 / static_cast<double>(d_));
    if (geo.feasible) estimate = (geo.e_min + geo.e_max) / 2.0;
    return owner_.data_.TopIndex(estimate);
  }

  void Prepare() {
    if (result_.rounds >= max_rounds_ || deadline_.Expired()) {
      TerminateFinal();
      return;
    }
    // Certificate: outer rectangle of the learned half-spaces.
    AaGeometry geo = ComputeAaGeometry(d_, h_, max_lp_);
    if (!geo.feasible) {
      // Contradictory answers (noisy user): drop the minimal most-recent
      // suffix of half-spaces until the set is consistent again. The ratio
      // intervals stay as narrowed — they are estimates, not certificates.
      while (!h_.empty() && !geo.feasible) {
        h_.pop_back();
        ++result_.dropped_answers;
        geo = ComputeAaGeometry(d_, h_, max_lp_);
      }
      if (!geo.feasible) {
        // LP failed even on H = ∅: the solver itself is broken.
        result_.status = Status::Internal("geometry LP failed on empty H");
        TerminateFinal();
        return;
      }
    }
    if (Distance(geo.e_min, geo.e_max) <= stop_dist_) {
      EndEpisode(owner_.data_.TopIndex((geo.e_min + geo.e_max) / 2.0),
                 Certified());
      return;
    }

    // Pick the dimension with the widest remaining ratio interval.
    size_t c = 0;
    double widest = 0.0;
    for (size_t k = 1; k < d_; ++k) {
      size_t cand = 1 + (cursor_ + k - 1) % (d_ - 1);
      if (hi_[cand] - lo_[cand] > widest) {
        widest = hi_[cand] - lo_[cand];
        c = cand;
      }
    }
    if (c == 0 || widest < 1e-6) {
      resolved_ = true;  // all ratios pinned; certificate soon follows
      TerminateFinal();
      return;
    }
    cursor_ = c;
    c_ = c;
    t_ = 0.5 * (lo_[c] + hi_[c]);

    // Fake tuples for the question "is u[c] ≥ t·u[0]?": a puts everything
    // on attribute c, b puts t (rescaled into (0,1]) on attribute 0.
    Vec a(d_, 1e-6), b(d_, 1e-6);
    const double scale = std::max(1.0, t_);
    a[c_] = 1.0 / scale;
    b[0] = t_ / scale;
    question_.first = std::move(a);
    question_.second = std::move(b);
    question_.pair = Question{};
    question_.synthetic = true;
    stage_ = SessionStage::kAsking;
  }

  void TerminateFinal() {
    EndEpisode(BestSoFar(), !result_.status.ok() ? Termination::kAborted
                            : resolved_          ? Certified()
                                                 : Termination::kBudgetExhausted);
  }

  void EncodePayload(snapshot::Writer* w) const override {
    w->U64(max_lp_);
    snapshot::EncodeVec(Vec(lo_), w);
    snapshot::EncodeVec(Vec(hi_), w);
    w->U64(h_.size());
    for (const LearnedHalfspace& lh : h_) {
      snapshot::EncodeLearnedHalfspace(lh, w);
    }
    w->U64(cursor_);
    w->U64(c_);
    w->F64(t_);
    w->Bool(resolved_);
  }

  Status DecodePayload(snapshot::Reader* r, SessionStage /*stage*/,
                       const SessionConfig& /*config*/) override {
    const uint64_t max_lp = r->U64();
    Vec lo, hi;
    ISRL_RETURN_IF_ERROR(snapshot::DecodeVec(r, &lo));
    ISRL_RETURN_IF_ERROR(snapshot::DecodeVec(r, &hi));
    const uint64_t num_h = r->U64();
    if (!r->failed() && num_h > snapshot::kMaxElements) {
      return Status::InvalidArgument(
          "UtilityApprox snapshot: implausible H size");
    }
    std::vector<LearnedHalfspace> h;
    for (uint64_t i = 0; i < num_h && !r->failed(); ++i) {
      LearnedHalfspace lh;
      // Fake-tuple half-spaces carry no dataset indices (winner = loser =
      // 0), so the bound only needs to admit index 0.
      ISRL_RETURN_IF_ERROR(
          snapshot::DecodeLearnedHalfspace(r, &lh, owner_.data_.size()));
      if (lh.h.normal.dim() != d_) {
        return Status::InvalidArgument(
            "UtilityApprox snapshot: halfspace dimension mismatch");
      }
      h.push_back(std::move(lh));
    }
    const uint64_t cursor = r->U64();
    const uint64_t c = r->U64();
    const double t = r->FiniteF64();
    const bool resolved = r->Bool();
    ISRL_RETURN_IF_ERROR(PayloadEnd(*r));
    if (lo.dim() != d_ || hi.dim() != d_) {
      return Status::InvalidArgument(
          "UtilityApprox snapshot: ratio interval dimension mismatch");
    }
    if (cursor == 0 || cursor >= d_ || c >= d_) {
      return Status::InvalidArgument(
          "UtilityApprox snapshot: bisection cursor out of range");
    }

    max_lp_ = static_cast<size_t>(max_lp);
    lo_ = lo.data();
    hi_ = hi.data();
    h_ = std::move(h);
    cursor_ = static_cast<size_t>(cursor);
    c_ = static_cast<size_t>(c);
    t_ = t;
    resolved_ = resolved;
    return Status::Ok();
  }

  UtilityApprox& owner_;
  size_t d_;
  double stop_dist_;
  size_t max_lp_;

  std::vector<double> lo_, hi_;
  std::vector<LearnedHalfspace> h_;
  size_t cursor_ = 1;  // round-robin over dimensions 1..d-1
  size_t c_ = 0;       // dimension of the in-flight question
  double t_ = 0.0;     // bisection threshold of the in-flight question
  bool resolved_ = false;
};

std::unique_ptr<InteractionSession> UtilityApprox::StartSession(
    const SessionConfig& config) {
  return std::make_unique<Session>(*this, config);
}

Result<std::unique_ptr<InteractionSession>> UtilityApprox::RestoreSession(
    const std::string& bytes, const SessionConfig& config) {
  return SessionBase::Restore(std::make_unique<Session>(*this, config.trace),
                              bytes, config);
}

}  // namespace isrl
