#include "core/session_base.h"

#include "common/check.h"
#include "common/strings.h"
#include "core/snapshot.h"
#include "geometry/polyhedron.h"

namespace isrl {

SessionBase::SessionBase(const SessionConfig& config, size_t max_rounds)
    : trace_(config.trace),
      max_rounds_(config.budget.EffectiveMaxRounds(max_rounds)),
      deadline_(Deadline::FromBudget(config.budget)),
      owned_rng_(config.seed ? std::optional<Rng>(Rng(*config.seed))
                             : std::nullopt) {}

std::optional<SessionQuestion> SessionBase::NextQuestion() {
  if (stage_ == SessionStage::kFinished) return std::nullopt;
  if (stage_ == SessionStage::kScoring) ScorePending();
  return question_;
}

void SessionBase::PostAnswer(Answer answer) {
  ISRL_CHECK(stage_ == SessionStage::kAsking);
  ++result_.rounds;
  if (answer == Answer::kNoAnswer) ++result_.no_answers;
  OnAnswer(answer);
}

void SessionBase::Cancel() {
  if (stage_ == SessionStage::kFinished) return;
  EndEpisode(BestSoFar(), Termination::kBudgetExhausted);
}

InteractionResult SessionBase::Finish() {
  ISRL_CHECK(stage_ == SessionStage::kFinished);
  InteractionResult result = result_;
  result.converged = result.termination == Termination::kConverged;
  return result;
}

void SessionBase::ScorePending() {
  // Only RlSession stages candidates (and overrides this); Restore() refuses
  // a scoring stage for every other kind, so this check never passes.
  ISRL_CHECK(stage_ != SessionStage::kScoring);
}

void SessionBase::Ask(Question q) {
  const Dataset& data = owner().data;
  question_.first = data.point(q.i);
  question_.second = data.point(q.j);
  question_.pair = q;
  question_.synthetic = false;
  stage_ = SessionStage::kAsking;
}

void SessionBase::EndEpisode(size_t best, Termination termination) {
  result_.best_index = best;
  result_.termination = termination;
  result_.seconds += watch_.ElapsedSeconds();
  stage_ = SessionStage::kFinished;
}

Termination SessionBase::Certified() const {
  return result_.dropped_answers > 0 ? Termination::kDegraded
                                     : Termination::kConverged;
}

void SessionBase::TraceRound(double elapsed, size_t best,
                             const std::vector<Vec>& consistent) {
  trace_->Record(best, consistent, elapsed);
  watch_.Restart();  // exclude trace bookkeeping from algorithm time
  result_.seconds += elapsed;
}

void SessionBase::TraceRange(size_t best, const Polyhedron& range) {
  if (trace_ == nullptr) return;
  const double elapsed = watch_.ElapsedSeconds();
  std::vector<Vec> consistent;
  if (!range.IsEmpty()) {
    consistent.reserve(trace_->regret_samples());
    for (size_t s = 0; s < trace_->regret_samples(); ++s) {
      consistent.push_back(range.SampleInterior(trace_->rng()));
    }
  }
  TraceRound(elapsed, best, consistent);
}

Status SessionBase::PayloadEnd(const snapshot::Reader& r) const {
  ISRL_RETURN_IF_ERROR(r.status());
  if (!r.AtEnd()) {
    return Status::InvalidArgument(Format("%s snapshot: trailing payload bytes",
                                          owner().format.label));
  }
  return Status::Ok();
}

Result<std::string> SessionBase::SaveState() const {
  const Owner o = owner();
  snapshot::SessionCore core;
  core.algorithm = o.algorithm.name();
  core.data_size = o.data.size();
  core.data_dim = o.data.dim();
  core.result = result_;
  // Fold the live stopwatch into the persisted seconds; a fresh stopwatch
  // starts at restore, so snapshot downtime never counts as algorithm time.
  if (!Finished()) core.result.seconds += watch_.ElapsedSeconds();
  core.max_rounds = max_rounds_;
  core.deadline = deadline_;
  core.stage = stage_;
  core.question = question_;
  core.has_rng = o.rng != nullptr;
  if (core.has_rng) core.rng = owned_rng_ ? *owned_rng_ : *o.rng;
  core.trace = trace_;  // figure vectors ride along (may be null)
  snapshot::Writer w;
  snapshot::EncodeSessionCore(core, &w);
  EncodePayload(&w);
  return snapshot::WrapFrame(o.format.kind, o.format.version, w.Take());
}

Result<std::unique_ptr<InteractionSession>> SessionBase::Restore(
    std::unique_ptr<SessionBase> shell, const std::string& bytes,
    const SessionConfig& config) {
  const Owner o = shell->owner();
  const char* label = o.format.label;
  ISRL_ASSIGN_OR_RETURN(
      std::string_view payload,
      snapshot::UnwrapFrame(o.format.kind, o.format.version, bytes));
  snapshot::Reader r(payload);
  snapshot::SessionCore core;
  ISRL_RETURN_IF_ERROR(snapshot::DecodeSessionCore(&r, &core));
  ISRL_RETURN_IF_ERROR(snapshot::ValidateSessionCore(
      core, o.algorithm.name(), o.data.size(), o.data.dim()));
  if (o.rng != nullptr && !core.has_rng) {
    return Status::InvalidArgument(
        Format("%s snapshot: missing rng state", label));
  }
  if (o.format.protocol != nullptr && core.stage == SessionStage::kScoring) {
    return Status::InvalidArgument(
        Format("%s snapshot: scoring stage is not part of the %s", label,
               o.format.protocol));
  }
  ISRL_RETURN_IF_ERROR(shell->DecodePayload(&r, core.stage, config));
  const size_t n = o.data.size();
  if (core.stage == SessionStage::kAsking &&
      (core.question.pair.i >= n || core.question.pair.j >= n)) {
    return Status::InvalidArgument(Format(
        "%s snapshot: in-flight question index out of dataset range", label));
  }

  shell->result_ = core.result;
  shell->max_rounds_ = static_cast<size_t>(core.max_rounds);
  shell->deadline_ = core.deadline;
  // Restored sessions always own their Rng, even when the original drew
  // from the instance's generator: the episode becomes self-contained.
  if (o.rng != nullptr) shell->owned_rng_ = core.rng;
  if (core.has_trace && shell->trace_ != nullptr) {
    shell->trace_->RestoreHistory(std::move(core.trace_max_regret),
                                  std::move(core.trace_seconds),
                                  std::move(core.trace_best_index));
  }
  shell->question_ = std::move(core.question);
  shell->stage_ = core.stage;
  shell->Resumed();
  shell->watch_.Restart();
  return std::unique_ptr<InteractionSession>(std::move(shell));
}

}  // namespace isrl
