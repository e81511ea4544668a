// The episode skeleton every algorithm's sans-IO session shares (DESIGN.md
// §13, §14).
//
// The paper's Algorithms 2 and 4 and the baselines run one interactive loop:
// ask, take the answer, update. SessionBase keeps that loop's bookkeeping —
// the running result, the round cap and deadline, the Rng, the trace hook,
// the in-flight question and the stage — and the snapshot core built from
// it. A concrete session keeps only its region state, its question choice,
// its terminal rule and its own payload fields.
#ifndef ISRL_CORE_SESSION_BASE_H_
#define ISRL_CORE_SESSION_BASE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/vec.h"
#include "core/algorithm.h"
#include "data/dataset.h"

namespace isrl {

class Polyhedron;
namespace snapshot {
class Reader;
class Writer;
}  // namespace snapshot

/// Where a session's state machine stands. The values are the stage's
/// snapshot encoding (DESIGN.md §14).
enum class SessionStage : uint8_t {
  kScoring = 0,   ///< RL sessions: candidates staged, awaiting scores
  kAsking = 1,    ///< question emitted, awaiting its answer
  kFinished = 2,  ///< terminated; Finish() holds the result
};

/// The snapshot frame of one session kind.
struct SessionFormat {
  const char* kind;   ///< frame kind tag, e.g. "ea-session"
  uint32_t version;   ///< frame format version
  const char* label;  ///< restore-error prefix: "EA" -> "EA snapshot: ..."
  /// The protocol a restore names when a snapshot of a kind without a
  /// scoring stage claims one; null for RL sessions, which score.
  const char* protocol;
};

/// Base of every algorithm session. It implements the parts of the
/// InteractionSession contract that do not depend on the algorithm; the
/// algorithm supplies its answer handling, its cancel recommendation and its
/// snapshot payload through the protected hooks.
class SessionBase : public InteractionSession {
 public:
  std::optional<SessionQuestion> NextQuestion() final;
  /// Counts the round (and an unanswered question), then hands the answer
  /// to OnAnswer().
  void PostAnswer(Answer answer) final;
  /// Ends the episode with BestSoFar() as a budget-exhausted result.
  void Cancel() final;
  bool Finished() const final { return stage_ == SessionStage::kFinished; }
  InteractionResult Finish() final;
  /// Session core (identity, result, budget, stage, question, Rng, trace
  /// history), then EncodePayload(), in the kind's frame.
  Result<std::string> SaveState() const final;

  /// The RestoreSession body of every kind. Unwraps `bytes` in the shell's
  /// frame, decodes the session core and checks it against the restoring
  /// instance (kind, dataset, Rng presence, scoring stage), lets the shell
  /// read its payload, checks the in-flight question, and only then commits
  /// the core — so a failed restore leaves `config.trace` untouched. Every
  /// failure is a descriptive Status.
  static Result<std::unique_ptr<InteractionSession>> Restore(
      std::unique_ptr<SessionBase> shell, const std::string& bytes,
      const SessionConfig& config);

 protected:
  /// What the skeleton reads from the algorithm instance. Read through a
  /// hook so a session stores nothing beyond its own owner reference.
  struct Owner {
    const SessionFormat& format;
    const InteractiveAlgorithm& algorithm;
    const Dataset& data;
    /// The instance generator a seedless session draws from; null when the
    /// algorithm has no randomness (its snapshots then carry no Rng).
    Rng* rng;
  };

  /// A live episode: the round cap is `config.budget` applied to
  /// `max_rounds`, the deadline is armed, and a seeded config gets a private
  /// Rng.
  SessionBase(const SessionConfig& config, size_t max_rounds);
  /// An empty shell for Restore(); every field comes from the snapshot.
  explicit SessionBase(InteractionTrace* trace) : trace_(trace) {}

  virtual Owner owner() const = 0;
  /// Learns from the answer to question_ and moves to the next stage: a new
  /// question (Ask), staged scoring, or EndEpisode().
  virtual void OnAnswer(Answer answer) = 0;
  /// The recommendation of a session cancelled mid-episode.
  virtual size_t BestSoFar() const = 0;
  /// Scores the staged candidates and asks the winner. Reached only in the
  /// scoring stage, which only RL sessions enter.
  virtual void ScorePending();
  /// Called by Restore() once every field is committed.
  virtual void Resumed() {}
  virtual void EncodePayload(snapshot::Writer* w) const = 0;
  /// Reads the payload into the shell; `stage` is the decoded core's.
  virtual Status DecodePayload(snapshot::Reader* r, SessionStage stage,
                               const SessionConfig& config) = 0;

  /// The private Rng of a seeded or restored session, else the instance's.
  Rng& rng() { return owned_rng_ ? *owned_rng_ : *owner().rng; }
  /// Emits dataset pair `q` as the question.
  void Ask(Question q);
  /// Terminates with `best`: folds the stopwatch into result_.seconds.
  void EndEpisode(size_t best, Termination termination);
  /// The termination of a certified stop: degraded once answers were
  /// dropped.
  Termination Certified() const;
  /// Appends a round to the trace (which must be attached). `elapsed` is
  /// read before any trace-only work, which is excluded from algorithm time.
  void TraceRound(double elapsed, size_t best,
                  const std::vector<Vec>& consistent);
  /// TraceRound with interior samples of `range` as the consistent
  /// utilities; no-op without a trace.
  void TraceRange(size_t best, const Polyhedron& range);
  /// The reader's first failure, else InvalidArgument on unread bytes.
  Status PayloadEnd(const snapshot::Reader& r) const;

  InteractionTrace* trace_;
  InteractionResult result_;
  Stopwatch watch_;
  size_t max_rounds_ = 0;
  Deadline deadline_;
  std::optional<Rng> owned_rng_;
  SessionQuestion question_;
  SessionStage stage_ = SessionStage::kAsking;
};

}  // namespace isrl

#endif  // ISRL_CORE_SESSION_BASE_H_
