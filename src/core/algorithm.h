// The common interface of all interactive algorithms (EA, AA, and the
// baselines), plus the per-round tracing used for the interaction-progress
// figures (Figures 7 and 8).
//
// Interaction is sans-IO (DESIGN.md §13): every algorithm exposes its episode
// as a resumable InteractionSession — a state machine that emits questions
// and consumes answers without ever touching a UserOracle or a socket. The
// blocking Interact() entry point is a thin driver over that step API, so
// synchronous callers are untouched while asynchronous drivers (a real human
// on stdin, the multi-session SessionScheduler) can interleave thousands of
// user-paced episodes on one thread.
#ifndef ISRL_CORE_ALGORITHM_H_
#define ISRL_CORE_ALGORITHM_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/vec.h"
#include "data/dataset.h"
#include "user/user.h"

namespace isrl {

class Matrix;
namespace nn {
class ModelProvider;
class ModelSnapshot;
}  // namespace nn

/// A question: "do you prefer data.point(i) or data.point(j)?".
struct Question {
  size_t i = 0;
  size_t j = 0;
};

/// Outcome of one full interaction. Interactions never abort the process:
/// every session ends with a recommendation (best_index) and a Termination
/// explaining how it got there.
struct InteractionResult {
  size_t best_index = 0;   ///< returned tuple (always valid, best-so-far)
  size_t rounds = 0;       ///< questions asked (including unanswered ones)
  double seconds = 0.0;    ///< algorithm time, excluding trace bookkeeping
  bool converged = false;  ///< termination == kConverged (kept for callers)
  Termination termination = Termination::kConverged;
  size_t dropped_answers = 0;  ///< conflicting half-spaces dropped (noise)
  size_t no_answers = 0;       ///< questions the user declined to answer
  Status status;  ///< non-OK only when termination == kAborted
};

/// Optional per-round tracing (Figures 7/8). When attached, after every round
/// the algorithm reports its current recommendation and a sample of utility
/// vectors still consistent with what it has learned; the trace computes the
/// maximum regret ratio over that sample, mirroring the paper's metric.
class InteractionTrace {
 public:
  InteractionTrace(const Dataset* data, size_t regret_samples, Rng* rng)
      : data_(data), regret_samples_(regret_samples), rng_(rng) {}

  /// Called by algorithms at the end of each round. `consistent_utilities`
  /// may be empty, in which case the regret entry repeats the previous value
  /// (or 1.0 at round 0).
  void Record(size_t best_index, const std::vector<Vec>& consistent_utilities,
              double elapsed_seconds);

  size_t regret_samples() const { return regret_samples_; }
  Rng& rng() const { return *rng_; }

  /// Replaces the recorded history with checkpointed vectors (core/snapshot
  /// trace codec). The three vectors must have equal length; used when a
  /// driver restores a session together with its trace so the combined
  /// figure data is bit-identical to an uninterrupted run.
  void RestoreHistory(std::vector<double> max_regret,
                      std::vector<double> cumulative_seconds,
                      std::vector<size_t> best_index) {
    ISRL_CHECK_EQ(max_regret.size(), cumulative_seconds.size());
    ISRL_CHECK_EQ(max_regret.size(), best_index.size());
    max_regret_ = std::move(max_regret);
    cumulative_seconds_ = std::move(cumulative_seconds);
    best_index_ = std::move(best_index);
  }

  const std::vector<double>& max_regret() const { return max_regret_; }
  const std::vector<double>& cumulative_seconds() const {
    return cumulative_seconds_;
  }
  const std::vector<size_t>& best_index() const { return best_index_; }
  size_t rounds() const { return max_regret_.size(); }

 private:
  const Dataset* data_;
  size_t regret_samples_;
  Rng* rng_;
  std::vector<double> max_regret_;
  std::vector<double> cumulative_seconds_;
  std::vector<size_t> best_index_;
};

/// The question an InteractionSession is currently waiting on: the two
/// points shown to the user. For most algorithms these are dataset tuples
/// (indices in `pair`); UtilityApprox asks about constructed points, marked
/// `synthetic` (then `pair` is meaningless).
struct SessionQuestion {
  Vec first;
  Vec second;
  Question pair;
  bool synthetic = false;
};

/// How an interaction session is started: the resource budget (armed into a
/// wall-clock deadline at session start), the optional per-round trace, and
/// the randomness source.
struct SessionConfig {
  RunBudget budget;
  InteractionTrace* trace = nullptr;
  /// When set, the session owns a private Rng seeded with *seed, making it
  /// independent of every other session — required when several sessions of
  /// one algorithm instance are in flight (SessionScheduler). When unset the
  /// session draws from the algorithm's member Rng, exactly like the
  /// blocking Interact() path — never run two seedless sessions
  /// concurrently.
  std::optional<uint64_t> seed;
  /// The immutable model snapshot this session scores through, pinned for
  /// the whole episode (nn/registry.h, DESIGN.md §18). RL algorithms fall
  /// back to their instance's serving snapshot when unset; either way a later
  /// ModelRegistry::Publish never changes what an in-flight session
  /// computes. Ignored by model-free baselines.
  std::shared_ptr<const nn::ModelSnapshot> model;
  /// Restore-time model resolver (RestoreSession only): maps the registry
  /// version recorded in a session snapshot back to a pinned snapshot.
  /// When null, restore pins `model` if set, else the algorithm instance's
  /// serving snapshot — always subject to the §14 fingerprint check. A
  /// version-0 (unpinned) session always re-pins the instance's snapshot.
  nn::ModelProvider* models = nullptr;
};

/// One resumable interactive episode, inverted into a sans-IO state machine
/// (DESIGN.md §13). All per-episode state — polyhedron / half-space set /
/// candidate set, budget, deadline, trace hook — lives inside the session;
/// the driver owns only the IO:
///
///   auto session = algorithm.StartSession(config);
///   while (auto q = session->NextQuestion()) {
///     session->PostAnswer(AskTheUserSomehow(*q));   // may take days
///   }
///   InteractionResult result = session->Finish();
///
/// Sessions borrow their algorithm (and its dataset): the algorithm must
/// outlive every session it started.
class InteractionSession {
 public:
  virtual ~InteractionSession() = default;

  /// The question awaiting an answer, or nullopt once the session has
  /// terminated (then call Finish()). Idempotent: repeated calls without an
  /// intervening PostAnswer return the same question and do not advance the
  /// state machine.
  virtual std::optional<SessionQuestion> NextQuestion() = 0;

  /// Delivers the user's answer to the current question and advances the
  /// state machine to the next question or to termination. kNoAnswer is a
  /// valid delivery (timed-out question).
  virtual void PostAnswer(Answer answer) = 0;

  /// Ends the session now with its best-so-far recommendation (the user
  /// walked away). No-op once terminated; NextQuestion() returns nullopt
  /// afterwards.
  virtual void Cancel() = 0;

  /// True once the session has terminated (NextQuestion() returns nullopt).
  virtual bool Finished() const = 0;

  /// The episode outcome. Only valid once Finished().
  virtual InteractionResult Finish() = 0;

  // ---- Cross-session batched-scoring protocol (optional; EA/AA). --------
  // An RL session that is about to pick its next question first exposes the
  // row-stacked features of its candidate pool here. A driver MAY score
  // them (one Q-value per row, via ScoringModel()->Score — the
  // SessionScheduler coalesces the rows of every session pinning the same
  // ModelSnapshot into one PredictBatch per tick) and post the scores back;
  // a driver that ignores the protocol loses nothing, as the session scores
  // itself on the next NextQuestion(). Both routes are bit-identical
  // (PredictBatch is bit-identical per row at any batch size).

  /// Candidate features awaiting scoring, or nullptr. One row per
  /// candidate; valid until PostCandidateScores/NextQuestion/PostAnswer.
  virtual const Matrix* PendingCandidateFeatures() const { return nullptr; }

  /// The immutable model snapshot that must score
  /// PendingCandidateFeatures() (nn/registry.h). Sessions pinned to the
  /// same snapshot share the pointer, which is what makes cross-session
  /// coalescing possible. Null when no scoring is pending.
  virtual const nn::ModelSnapshot* ScoringModel() const { return nullptr; }

  /// Delivers the Q-values of PendingCandidateFeatures() (`count` must equal
  /// its row count); the session picks argmax exactly as it would have
  /// scoring itself.
  virtual void PostCandidateScores(const double* scores, size_t count) {
    (void)scores;
    (void)count;
  }

  // ---- Continuous-learning hooks (optional; DESIGN.md §18). --------------

  /// Version of the model snapshot driving this session: what the session
  /// pinned at start (0 for the algorithm instance's own serving snapshot
  /// and for model-free baselines). Recorded in harvest records.
  virtual uint64_t ModelVersion() const { return 0; }

  /// A point estimate of the user's utility vector as learned by this
  /// episode (EA: centroid of the final range; AA: rectangle midpoint) —
  /// the replay sample trace-driven retraining feeds back into Train().
  /// nullopt when the algorithm learns no utility region or the region
  /// degenerated.
  virtual std::optional<Vec> HarvestUtility() const { return std::nullopt; }

  // ---- Durability (DESIGN.md §14). ---------------------------------------

  /// Serialises the complete episode state into a versioned, CRC-framed
  /// byte string (core/snapshot framing). A session restored from these
  /// bytes via InteractiveAlgorithm::RestoreSession continues bit-
  /// identically: same questions, same Rng draw order, same Termination.
  /// Q-network weights are NOT embedded — RL snapshots carry the pinned
  /// model's version and fingerprint, and restore re-pins that exact model
  /// (snapshot::RepinModel). Callable in any state, including mid-question
  /// and after termination. Default: Unimplemented (a session type without
  /// durability support degrades to a Status, never a crash).
  virtual Result<std::string> SaveState() const {
    return Status::Unimplemented("session checkpointing not supported");
  }
};

/// An interactive algorithm bound to a dataset and a regret threshold ε.
/// Interact() and StartSession() are re-entrant: each call is an independent
/// episode.
class InteractiveAlgorithm {
 public:
  virtual ~InteractiveAlgorithm() = default;

  /// Human-readable algorithm name ("EA", "UH-Random", ...).
  virtual std::string name() const = 0;

  /// Evaluation-time clone hook (core of the parallel evaluation layer; see
  /// DESIGN.md §10): returns an independent deep copy — same dataset
  /// binding, same learned weights — that a worker thread can interact with
  /// concurrently. Returns nullptr when the algorithm cannot be cloned,
  /// which makes Evaluate fall back to the sequential single-instance path.
  virtual std::unique_ptr<InteractiveAlgorithm> CloneForEval() const {
    return nullptr;
  }

  /// Reseeds the algorithm's private Rng so the next Interact() episode's
  /// stochastic choices are a pure function of `seed`. The evaluation layer
  /// calls this with a per-user derived seed (SplitSeed) before every
  /// episode, making results independent of user order, worker assignment,
  /// and thread count. Algorithms without internal randomness keep the
  /// default no-op; algorithms WITH internal randomness must override both
  /// this and CloneForEval to be deterministically evaluable in parallel.
  virtual void Reseed(uint64_t seed) { (void)seed; }

  /// Opens one episode as a resumable sans-IO session (DESIGN.md §13). The
  /// session must never abort on user answers, LP outcomes, or geometry
  /// degeneracies: conflicting answers degrade (dropping the minimal
  /// most-recent suffix of half-spaces), budget exhaustion returns
  /// best-so-far, and unrecoverable failures surface as termination ==
  /// kAborted with a non-OK status — still with the best available
  /// recommendation.
  virtual std::unique_ptr<InteractionSession> StartSession(
      const SessionConfig& config) = 0;

  /// Reopens a session from InteractionSession::SaveState bytes
  /// (DESIGN.md §14). Only `config.trace`, `config.models`, and
  /// `config.model` are honoured — budget caps, the remaining deadline, and
  /// the Rng state all come from the snapshot, so the restored episode
  /// continues bit-identically to one that never stopped. RL sessions
  /// re-pin the model recorded in the snapshot: version 0 (unpinned) is
  /// this instance's serving snapshot; a registry version resolves through
  /// `config.models`, else `config.model`, else the instance's snapshot.
  /// Either way the §14 fingerprint is verified. Every failure mode — wrong
  /// algorithm kind, truncated or corrupted frames, version skew, non-finite
  /// payloads, dataset or Q-network mismatch — returns a descriptive
  /// Status; restore never crashes. Default: Unimplemented.
  virtual Result<std::unique_ptr<InteractionSession>> RestoreSession(
      const std::string& bytes, const SessionConfig& config) {
    (void)bytes;
    (void)config;
    return Status::Unimplemented("session restore not supported");
  }

  /// Runs one full interaction against `user`; when `trace` is non-null the
  /// algorithm records per-round progress into it.
  InteractionResult Interact(UserOracle& user,
                             InteractionTrace* trace = nullptr) {
    return Interact(user, RunBudget{}, trace);
  }

  /// Interact() under a resource budget: the session additionally stops —
  /// with Termination::kBudgetExhausted and its best-so-far recommendation —
  /// when the budget's round cap or wall-clock deadline is reached.
  ///
  /// This is the blocking driver over the step API; results are
  /// bit-identical to stepping the session externally.
  InteractionResult Interact(UserOracle& user, const RunBudget& budget,
                             InteractionTrace* trace = nullptr) {
    SessionConfig config;
    config.budget = budget;
    config.trace = trace;
    std::unique_ptr<InteractionSession> session = StartSession(config);
    while (std::optional<SessionQuestion> q = session->NextQuestion()) {
      session->PostAnswer(user.Ask(q->first, q->second));
    }
    return session->Finish();
  }
};

}  // namespace isrl

#endif  // ISRL_CORE_ALGORITHM_H_
