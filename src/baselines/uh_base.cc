#include "baselines/uh_base.h"

#include <algorithm>
#include <numeric>

#include "core/session_base.h"
#include "core/snapshot.h"
#include "geometry/halfspace.h"

namespace isrl {

namespace {
constexpr SessionFormat kUhFormat{"uh-session", 1, "UH", "UH protocol"};
}  // namespace

UhBase::UhBase(const Dataset& data, const UhOptions& options)
    : data_(data), options_(options), rng_(options.seed) {
  ISRL_CHECK(!data.empty());
  ISRL_CHECK_GT(options.epsilon, 0.0);
  ISRL_CHECK_LT(options.epsilon, 1.0);
}

bool UhBase::IsInformative(const Question& q, const Polyhedron& range) const {
  Halfspace h = PreferenceHalfspace(data_.point(q.i), data_.point(q.j));
  if (h.normal.Norm() < 1e-12) return false;
  bool positive = false, negative = false;
  for (const Vec& v : range.vertices()) {
    double margin = h.Margin(v);
    if (margin > 1e-9) positive = true;
    if (margin < -1e-9) negative = true;
    if (positive && negative) return true;
  }
  return false;
}

void UhBase::PruneCandidates(std::vector<size_t>* candidates, size_t winner,
                             const Polyhedron& range) const {
  const Vec& w = data_.point(winner);
  auto beaten_everywhere = [&](size_t q) {
    if (q == winner) return false;
    const Vec& p = data_.point(q);
    for (const Vec& v : range.vertices()) {
      if (Dot(v, w - p) < 0.0) return false;
    }
    return true;
  };
  candidates->erase(
      std::remove_if(candidates->begin(), candidates->end(), beaten_everywhere),
      candidates->end());
}

void UhBase::FullPrune(std::vector<size_t>* candidates,
                       const Polyhedron& range) const {
  // Order by utility at the centroid so the likely winner is kept first;
  // keep-first semantics makes ties collapse onto one survivor.
  Vec centroid = range.Centroid();
  std::vector<size_t> ordered = *candidates;
  std::sort(ordered.begin(), ordered.end(), [&](size_t a, size_t b) {
    return Dot(centroid, data_.point(a)) > Dot(centroid, data_.point(b));
  });
  std::vector<size_t> kept;
  for (size_t q : ordered) {
    const Vec& pq = data_.point(q);
    bool beaten = false;
    for (size_t p : kept) {
      const Vec& pp = data_.point(p);
      beaten = true;
      for (const Vec& v : range.vertices()) {
        if (Dot(v, pp - pq) < 0.0) {
          beaten = false;
          break;
        }
      }
      if (beaten) break;
    }
    if (!beaten) kept.push_back(q);
  }
  *candidates = std::move(kept);
}

// The hardened UH loop inverted into a sans-IO state machine (DESIGN.md
// §13). Prepare() is the old loop top — budget/deadline guard, best
// recompute, resolution check, question selection with the FullPrune
// fallback — and OnAnswer() the loop body, in the original order, so
// stepped episodes are bit-identical to Interact().
class UhBase::Session final : public SessionBase {
 public:
  Session(UhBase& owner, const SessionConfig& config)
      : SessionBase(config, owner.options_.max_rounds),
        owner_(owner),
        range_(Polyhedron::UnitSimplex(owner.data_.dim())),
        candidates_(owner.data_.size()) {
    std::iota(candidates_.begin(), candidates_.end(), 0);
    best_ = owner_.data_.TopIndex(range_.Centroid());
    Prepare();
  }

  /// Restore shell (see Ea::Session).
  Session(UhBase& owner, InteractionTrace* trace)
      : SessionBase(trace),
        owner_(owner),
        range_(Polyhedron::UnitSimplex(owner.data_.dim())) {}

 private:
  Owner owner() const override {
    return {kUhFormat, owner_, owner_.data_, &owner_.rng_};
  }

  void OnAnswer(Answer answer) override {
    if (answer == Answer::kNoAnswer) {
      // Timed-out question: learn nothing (selection is stochastic, so the
      // next round tries a different pair).
      TraceRange(best_, range_);
      Prepare();
      return;
    }
    const Question q = question_.pair;
    const bool prefers_i = answer == Answer::kFirst;
    const size_t winner = prefers_i ? q.i : q.j;
    const size_t loser = prefers_i ? q.j : q.i;
    if (!range_.TryCut(PreferenceHalfspace(owner_.data_.point(winner),
                                           owner_.data_.point(loser)))) {
      // Contradictory answer (noisy user): dropping it — the minimal
      // most-recent conflicting suffix — keeps R non-empty.
      ++result_.dropped_answers;
      TraceRange(best_, range_);
      Prepare();
      return;
    }

    owner_.PruneCandidates(&candidates_, winner, range_);
    best_ = owner_.data_.TopIndex(range_.Centroid());
    owner_.PruneCandidates(&candidates_, best_, range_);
    TraceRange(best_, range_);
    Prepare();
  }

  size_t BestSoFar() const override { return best_; }

  void Prepare() {
    if (result_.rounds >= max_rounds_ || deadline_.Expired()) {
      Terminate();
      return;
    }
    best_ = candidates_.size() == 1 ? candidates_[0]
                                    : owner_.data_.TopIndex(range_.Centroid());
    if (candidates_.size() <= 1) {
      resolved_ = true;
      Terminate();
      return;
    }

    std::optional<Question> q =
        owner_.SelectQuestion(candidates_, range_, rng());
    if (!q.has_value()) {
      // Selection stalled: collapse candidates that R already resolves. If
      // survivors are still plural they are indistinguishable within R (no
      // informative question exists) — that is full resolution too.
      owner_.FullPrune(&candidates_, range_);
      if (candidates_.size() > 1) {
        q = owner_.SelectQuestion(candidates_, range_, rng());
      }
      if (!q.has_value()) {
        resolved_ = true;
        Terminate();
        return;
      }
    }
    Ask(*q);
  }

  void Terminate() {
    EndEpisode(best_,
               resolved_ ? Certified() : Termination::kBudgetExhausted);
  }

  void EncodePayload(snapshot::Writer* w) const override {
    snapshot::EncodePolyhedron(range_, w);
    snapshot::EncodeIndexVector(candidates_, w);
    w->U64(best_);
    w->Bool(resolved_);
  }

  Status DecodePayload(snapshot::Reader* r, SessionStage /*stage*/,
                       const SessionConfig& /*config*/) override {
    const size_t n = owner_.data_.size();
    Result<Polyhedron> range = snapshot::DecodePolyhedron(r);
    ISRL_RETURN_IF_ERROR(range.status());
    if (range->dim() != owner_.data_.dim()) {
      return Status::InvalidArgument(
          "UH snapshot: polyhedron dimension does not match the dataset");
    }
    std::vector<size_t> candidates;
    ISRL_RETURN_IF_ERROR(snapshot::DecodeIndexVector(r, &candidates, n));
    const uint64_t best = r->U64();
    const bool resolved = r->Bool();
    ISRL_RETURN_IF_ERROR(PayloadEnd(*r));
    if (best >= n) {
      return Status::InvalidArgument(
          "UH snapshot: recommendation index out of dataset range");
    }
    range_ = std::move(range.value());
    candidates_ = std::move(candidates);
    best_ = static_cast<size_t>(best);
    resolved_ = resolved;
    return Status::Ok();
  }

  UhBase& owner_;
  Polyhedron range_;
  std::vector<size_t> candidates_;
  size_t best_ = 0;
  bool resolved_ = false;
};

std::unique_ptr<InteractionSession> UhBase::StartSession(
    const SessionConfig& config) {
  return std::make_unique<Session>(*this, config);
}

Result<std::unique_ptr<InteractionSession>> UhBase::RestoreSession(
    const std::string& bytes, const SessionConfig& config) {
  return SessionBase::Restore(std::make_unique<Session>(*this, config.trace),
                              bytes, config);
}

}  // namespace isrl
