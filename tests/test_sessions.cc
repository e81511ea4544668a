// Step-API equivalence suite (DESIGN.md §13): for every algorithm, an
// externally stepped InteractionSession must yield a bit-identical
// InteractionResult — and identical trace vectors — to the blocking
// Interact() driver, under honest users, faulty users (flips, kNoAnswer
// timeouts), and exhausted budgets. Plus SessionScheduler: N coalesced
// sessions equal N sequential Interact() calls, answer-order independent,
// and a tick asks only the sessions that became ready since the last one.
#include <algorithm>
#include <deque>
#include <initializer_list>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/single_pass.h"
#include "baselines/uh_random.h"
#include "baselines/uh_simplex.h"
#include "baselines/utility_approx.h"
#include "common/budget.h"
#include "common/rng.h"
#include "core/aa.h"
#include "core/ea.h"
#include "core/scheduler.h"
#include "core/session.h"
#include "core/snapshot.h"
#include "data/skyline.h"
#include "data/synthetic.h"
#include "user/faulty.h"
#include "user/sampler.h"
#include "user/user.h"

namespace isrl {
namespace {

Dataset SmallSkyline(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Dataset raw = GenerateSynthetic(n, d, Distribution::kAntiCorrelated, rng);
  return SkylineOf(raw);
}

rl::DqnOptions FastDqn() {
  rl::DqnOptions o;
  o.hidden_neurons = 32;
  o.batch_size = 16;
  o.min_replay_before_update = 16;
  return o;
}

// Everything in an InteractionResult except `seconds` (wall clock).
void ExpectSameResult(const InteractionResult& a, const InteractionResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.best_index, b.best_index) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.converged, b.converged) << label;
  EXPECT_EQ(a.termination, b.termination) << label;
  EXPECT_EQ(a.dropped_answers, b.dropped_answers) << label;
  EXPECT_EQ(a.no_answers, b.no_answers) << label;
  EXPECT_EQ(a.status.ok(), b.status.ok()) << label;
}

// Drives a session by hand, exactly as an asynchronous caller would —
// checking along the way that NextQuestion() is idempotent (a second call
// returns the same question without advancing the state machine).
InteractionResult StepByHand(InteractiveAlgorithm& algo, UserOracle& user,
                             const RunBudget& budget,
                             InteractionTrace* trace = nullptr) {
  SessionConfig config;
  config.budget = budget;
  config.trace = trace;
  std::unique_ptr<InteractionSession> session = algo.StartSession(config);
  while (true) {
    std::optional<SessionQuestion> q = session->NextQuestion();
    if (!q.has_value()) break;
    std::optional<SessionQuestion> again = session->NextQuestion();
    EXPECT_TRUE(again.has_value()) << "NextQuestion not idempotent";
    if (again.has_value()) {
      EXPECT_EQ(q->pair.i, again->pair.i);
      EXPECT_EQ(q->pair.j, again->pair.j);
      EXPECT_EQ(q->synthetic, again->synthetic);
    }
    EXPECT_FALSE(session->Finished());
    session->PostAnswer(user.Ask(q->first, q->second));
  }
  EXPECT_TRUE(session->Finished());
  InteractionResult result = session->Finish();
  result.converged = result.termination == Termination::kConverged;
  return result;
}

// The five-algorithm roster every equivalence test loops over.
struct Roster {
  Dataset sky;
  Ea ea;
  Aa aa;
  UhRandom uh_random;
  UhSimplex uh_simplex;
  SinglePass single_pass;
  UtilityApprox utility_approx;

  explicit Roster(Dataset dataset)
      : sky(std::move(dataset)),
        ea(sky, EaOpt()),
        aa(sky, AaOpt()),
        uh_random(sky, UhOpt()),
        uh_simplex(sky, UhOpt()),
        single_pass(sky, SpOpt()),
        utility_approx(sky, UaOpt()) {}

  std::vector<InteractiveAlgorithm*> all() {
    return {&ea, &aa, &uh_random, &uh_simplex, &single_pass, &utility_approx};
  }

  static EaOptions EaOpt() {
    EaOptions o;
    o.epsilon = 0.1;
    o.dqn = FastDqn();
    return o;
  }
  static AaOptions AaOpt() {
    AaOptions o;
    o.epsilon = 0.15;
    o.dqn = FastDqn();
    return o;
  }
  static UhOptions UhOpt() {
    UhOptions o;
    o.epsilon = 0.1;
    return o;
  }
  static SinglePassOptions SpOpt() {
    SinglePassOptions o;
    o.epsilon = 0.1;
    return o;
  }
  static UtilityApproxOptions UaOpt() {
    UtilityApproxOptions o;
    o.epsilon = 0.1;
    return o;
  }
};

// ------------------------------------------- stepped == blocking, honest

TEST(SessionEquivalenceTest, SteppedEqualsBlockingForEveryAlgorithm) {
  Roster roster(SmallSkyline(250, 3, 11));
  RunBudget budget;
  budget.max_rounds = 50;
  Rng urng(12);
  for (int trial = 0; trial < 4; ++trial) {
    const Vec u = urng.SimplexUniform(3);
    for (InteractiveAlgorithm* algo : roster.all()) {
      const uint64_t seed = 100 + static_cast<uint64_t>(trial);
      algo->Reseed(seed);
      LinearUser blocking_user(u);
      InteractionResult blocking = algo->Interact(blocking_user, budget);

      algo->Reseed(seed);
      LinearUser stepped_user(u);
      InteractionResult stepped = StepByHand(*algo, stepped_user, budget);
      ExpectSameResult(blocking, stepped, algo->name());
    }
  }
}

// ------------------------------------ stepped == blocking, faulty oracles

TEST(SessionEquivalenceTest, SteppedEqualsBlockingUnderFaultyUsers) {
  Roster roster(SmallSkyline(250, 3, 21));
  RunBudget budget;
  budget.max_rounds = 40;
  Rng urng(22);
  for (int trial = 0; trial < 4; ++trial) {
    const Vec u = urng.SimplexUniform(3);
    FaultyUserOptions fopt;
    fopt.flip_rate = 0.2;
    fopt.no_answer_rate = 0.15;  // exercises the kNoAnswer paths
    fopt.seed = 300 + static_cast<uint64_t>(trial);
    for (InteractiveAlgorithm* algo : roster.all()) {
      const uint64_t seed = 400 + static_cast<uint64_t>(trial);
      algo->Reseed(seed);
      FaultyUser blocking_user(u, fopt);
      InteractionResult blocking = algo->Interact(blocking_user, budget);

      algo->Reseed(seed);
      FaultyUser stepped_user(u, fopt);  // same fault stream, fresh state
      InteractionResult stepped = StepByHand(*algo, stepped_user, budget);
      ExpectSameResult(blocking, stepped, algo->name());
      EXPECT_EQ(blocking_user.flips(), stepped_user.flips()) << algo->name();
    }
  }
}

// --------------------------------------- stepped == blocking, tiny budgets

TEST(SessionEquivalenceTest, SteppedEqualsBlockingUnderExhaustedBudgets) {
  Roster roster(SmallSkyline(300, 4, 31));
  Rng urng(32);
  const Vec u = urng.SimplexUniform(4);
  // 0 is RunBudget's "unset" sentinel: the algorithm's own cap applies.
  for (size_t max_rounds : {0u, 1u, 3u}) {
    RunBudget budget;
    budget.max_rounds = max_rounds;
    for (InteractiveAlgorithm* algo : roster.all()) {
      algo->Reseed(7);
      LinearUser blocking_user(u);
      InteractionResult blocking = algo->Interact(blocking_user, budget);

      algo->Reseed(7);
      LinearUser stepped_user(u);
      InteractionResult stepped = StepByHand(*algo, stepped_user, budget);
      ExpectSameResult(blocking, stepped, algo->name());
      if (max_rounds > 0) {
        EXPECT_LE(stepped.rounds, max_rounds) << algo->name();
      }
      ASSERT_LT(stepped.best_index, roster.sky.size()) << algo->name();
    }
  }
}

// ------------------------------------------------- trace vectors identical

TEST(SessionEquivalenceTest, TraceVectorsMatchBetweenSteppedAndBlocking) {
  Roster roster(SmallSkyline(250, 3, 41));
  RunBudget budget;
  budget.max_rounds = 30;
  Rng urng(42);
  const Vec u = urng.SimplexUniform(3);
  for (InteractiveAlgorithm* algo : roster.all()) {
    algo->Reseed(9);
    Rng blocking_rng(77);
    InteractionTrace blocking_trace(&roster.sky, 16, &blocking_rng);
    LinearUser blocking_user(u);
    InteractionResult blocking =
        algo->Interact(blocking_user, budget, &blocking_trace);

    algo->Reseed(9);
    Rng stepped_rng(77);
    InteractionTrace stepped_trace(&roster.sky, 16, &stepped_rng);
    LinearUser stepped_user(u);
    InteractionResult stepped =
        StepByHand(*algo, stepped_user, budget, &stepped_trace);

    ExpectSameResult(blocking, stepped, algo->name());
    EXPECT_EQ(blocking_trace.max_regret(), stepped_trace.max_regret())
        << algo->name();
    EXPECT_EQ(blocking_trace.best_index(), stepped_trace.best_index())
        << algo->name();
    EXPECT_EQ(blocking_trace.rounds(), stepped_trace.rounds())
        << algo->name();
  }
}

// ------------------------------------------- seeded sessions == Reseed()

// A session with SessionConfig::seed owns a private Rng(seed) — by
// construction the same generator state Reseed(seed) gives the member Rng,
// so the two paths are bit-identical. This is what lets the scheduler run
// many sessions of one algorithm instance concurrently.
TEST(SessionEquivalenceTest, SeededSessionMatchesReseededBlockingRun) {
  Roster roster(SmallSkyline(250, 3, 51));
  RunBudget budget;
  budget.max_rounds = 40;
  Rng urng(52);
  const Vec u = urng.SimplexUniform(3);
  for (InteractiveAlgorithm* algo : roster.all()) {
    const uint64_t seed = 0xABCDu;
    algo->Reseed(seed);
    LinearUser blocking_user(u);
    InteractionResult blocking = algo->Interact(blocking_user, budget);

    algo->Reseed(999);  // clobber the member Rng: the session must not use it
    SessionConfig config;
    config.budget = budget;
    config.seed = seed;
    std::unique_ptr<InteractionSession> session = algo->StartSession(config);
    LinearUser stepped_user(u);
    while (std::optional<SessionQuestion> q = session->NextQuestion()) {
      session->PostAnswer(stepped_user.Ask(q->first, q->second));
    }
    InteractionResult stepped = session->Finish();
    stepped.converged = stepped.termination == Termination::kConverged;
    ExpectSameResult(blocking, stepped, algo->name());
  }
}

// ------------------------------------------------------------------ Cancel

TEST(SessionTest, CancelFinishesWithBestSoFar) {
  Roster roster(SmallSkyline(250, 3, 61));
  RunBudget budget;
  budget.max_rounds = 50;
  for (InteractiveAlgorithm* algo : roster.all()) {
    algo->Reseed(3);
    SessionConfig config;
    config.budget = budget;
    std::unique_ptr<InteractionSession> session = algo->StartSession(config);
    std::optional<SessionQuestion> q = session->NextQuestion();
    if (q.has_value()) {  // tiny datasets may resolve instantly
      session->Cancel();
    }
    EXPECT_TRUE(session->Finished()) << algo->name();
    EXPECT_FALSE(session->NextQuestion().has_value()) << algo->name();
    InteractionResult r = session->Finish();
    ASSERT_LT(r.best_index, roster.sky.size()) << algo->name();
    EXPECT_NE(r.termination, Termination::kConverged) << algo->name();
  }
}

// ------------------------------------------------ scheduler == sequential

TEST(SchedulerTest, CoalescedSessionsMatchSequentialInteract) {
  Roster roster(SmallSkyline(250, 3, 71));
  RunBudget budget;
  budget.max_rounds = 40;
  const size_t kSessions = 8;
  const uint64_t master = 0x5EEDu;
  Rng urng(72);
  std::vector<Vec> utilities;
  for (size_t i = 0; i < kSessions; ++i) {
    utilities.push_back(urng.SimplexUniform(3));
  }

  for (InteractiveAlgorithm* algo : roster.all()) {
    // Sequential reference: the established Evaluate() discipline.
    std::vector<InteractionResult> sequential;
    for (size_t i = 0; i < kSessions; ++i) {
      algo->Reseed(SplitSeed(master, i));
      LinearUser user(utilities[i]);
      sequential.push_back(algo->Interact(user, budget));
    }

    // Scheduler: all sessions in flight at once, scoring coalesced.
    SessionScheduler scheduler;
    std::vector<std::unique_ptr<UserOracle>> owned_users;
    std::vector<UserOracle*> users;
    for (size_t i = 0; i < kSessions; ++i) {
      SessionConfig config;
      config.budget = budget;
      config.seed = SplitSeed(master, i);
      scheduler.Add(algo->StartSession(config));
      owned_users.push_back(std::make_unique<LinearUser>(utilities[i]));
      users.push_back(owned_users.back().get());
    }
    std::vector<InteractionResult> batched =
        DriveWithUsers(scheduler, users);

    ASSERT_EQ(batched.size(), kSessions);
    for (size_t i = 0; i < kSessions; ++i) {
      ExpectSameResult(sequential[i], batched[i],
                       algo->name() + " session " + std::to_string(i));
    }
  }
}

TEST(SchedulerTest, CoalescedSessionsMatchSequentialUnderFaultyUsers) {
  Roster roster(SmallSkyline(250, 3, 81));
  RunBudget budget;
  budget.max_rounds = 30;
  const size_t kSessions = 8;
  const uint64_t master = 0xFAB5u;
  Rng urng(82);
  std::vector<Vec> utilities;
  for (size_t i = 0; i < kSessions; ++i) {
    utilities.push_back(urng.SimplexUniform(3));
  }
  auto fopt_for = [](size_t i) {
    FaultyUserOptions fopt;
    fopt.flip_rate = 0.15;
    fopt.no_answer_rate = 0.1;
    fopt.seed = 500 + static_cast<uint64_t>(i);
    return fopt;
  };

  for (InteractiveAlgorithm* algo :
       std::initializer_list<InteractiveAlgorithm*>{&roster.ea, &roster.aa}) {
    std::vector<InteractionResult> sequential;
    for (size_t i = 0; i < kSessions; ++i) {
      algo->Reseed(SplitSeed(master, i));
      FaultyUser user(utilities[i], fopt_for(i));
      sequential.push_back(algo->Interact(user, budget));
    }

    SessionScheduler scheduler;
    std::vector<std::unique_ptr<UserOracle>> owned_users;
    std::vector<UserOracle*> users;
    for (size_t i = 0; i < kSessions; ++i) {
      SessionConfig config;
      config.budget = budget;
      config.seed = SplitSeed(master, i);
      scheduler.Add(algo->StartSession(config));
      owned_users.push_back(
          std::make_unique<FaultyUser>(utilities[i], fopt_for(i)));
      users.push_back(owned_users.back().get());
    }
    std::vector<InteractionResult> batched =
        DriveWithUsers(scheduler, users);

    for (size_t i = 0; i < kSessions; ++i) {
      ExpectSameResult(sequential[i], batched[i],
                       algo->name() + " session " + std::to_string(i));
    }
  }
}

// Answer arrival order must not change any session's outcome: deliver the
// tick's answers in reverse order and compare against DriveWithUsers.
TEST(SchedulerTest, AnswerOrderWithinATickDoesNotChangeResults) {
  Roster roster(SmallSkyline(250, 3, 91));
  RunBudget budget;
  budget.max_rounds = 30;
  const size_t kSessions = 6;
  const uint64_t master = 0x0DDu;
  Rng urng(92);
  std::vector<Vec> utilities;
  for (size_t i = 0; i < kSessions; ++i) {
    utilities.push_back(urng.SimplexUniform(3));
  }

  auto run = [&](bool reverse) {
    SessionScheduler scheduler;
    std::vector<std::unique_ptr<UserOracle>> users;
    for (size_t i = 0; i < kSessions; ++i) {
      SessionConfig config;
      config.budget = budget;
      config.seed = SplitSeed(master, i);
      scheduler.Add(roster.ea.StartSession(config));
      users.push_back(std::make_unique<LinearUser>(utilities[i]));
    }
    while (scheduler.active() > 0) {
      std::vector<PendingQuestion> pending = scheduler.Tick();
      if (reverse) std::reverse(pending.begin(), pending.end());
      for (const PendingQuestion& pq : pending) {
        const Answer answer =
            users[pq.session_id]->Ask(pq.question.first, pq.question.second);
        EXPECT_TRUE(scheduler.TryPostAnswer(pq.session_id, answer).ok());
      }
    }
    std::vector<InteractionResult> results;
    for (size_t i = 0; i < kSessions; ++i) {
      results.push_back(scheduler.TryTake(i).value());
    }
    return results;
  };

  std::vector<InteractionResult> forward = run(false);
  std::vector<InteractionResult> backward = run(true);
  for (size_t i = 0; i < kSessions; ++i) {
    ExpectSameResult(forward[i], backward[i],
                     "session " + std::to_string(i));
  }
}

TEST(SchedulerTest, CancelMidFlightAndMixedAlgorithms) {
  Roster roster(SmallSkyline(250, 3, 101));
  RunBudget budget;
  budget.max_rounds = 40;
  SessionScheduler scheduler;
  std::vector<std::unique_ptr<UserOracle>> users;
  Rng urng(102);
  std::vector<InteractiveAlgorithm*> algos = roster.all();
  for (size_t i = 0; i < algos.size(); ++i) {
    SessionConfig config;
    config.budget = budget;
    config.seed = SplitSeed(0xCAFEu, i);
    scheduler.Add(algos[i]->StartSession(config));
    users.push_back(std::make_unique<LinearUser>(urng.SimplexUniform(3)));
  }

  size_t ticks = 0;
  while (scheduler.active() > 0) {
    std::vector<PendingQuestion> pending = scheduler.Tick();
    ++ticks;
    for (const PendingQuestion& pq : pending) {
      if (ticks == 2 && pq.session_id == 0) {
        // User 0 walks away mid-episode.
        ASSERT_TRUE(scheduler.TryCancel(pq.session_id).ok());
        continue;
      }
      const Answer answer =
          users[pq.session_id]->Ask(pq.question.first, pq.question.second);
      ASSERT_TRUE(scheduler.TryPostAnswer(pq.session_id, answer).ok());
    }
  }
  for (size_t i = 0; i < algos.size(); ++i) {
    EXPECT_TRUE(scheduler.finished(i));
    InteractionResult r = scheduler.TryTake(i).value();
    ASSERT_LT(r.best_index, roster.sky.size()) << algos[i]->name();
  }
}

// ------------------------------------------------- event-driven delivery

/// Deterministic stand-in session for the delivery contract: asks `rounds`
/// questions — question k of session s is the pair (s, k) — then finishes
/// with a result that encodes every answer it got. Every NextQuestion()
/// call is counted per session id, so a test sees exactly which sessions a
/// Tick() touched.
class CountingSession final : public InteractionSession {
 public:
  CountingSession(size_t id, size_t rounds, size_t asked, size_t code,
                  std::vector<size_t>* calls)
      : id_(id), rounds_(rounds), asked_(asked), code_(code), calls_(calls) {}

  std::optional<SessionQuestion> NextQuestion() override {
    ++(*calls_)[id_];
    if (Finished()) return std::nullopt;
    SessionQuestion question;
    question.pair = Question{id_, asked_};
    return question;
  }
  void PostAnswer(Answer answer) override {
    code_ = code_ * 3 + static_cast<size_t>(answer);
    ++asked_;
  }
  void Cancel() override { rounds_ = asked_; }
  bool Finished() const override { return asked_ >= rounds_; }
  InteractionResult Finish() override {
    InteractionResult result;
    result.best_index = code_;
    result.rounds = asked_;
    return result;
  }
  Result<std::string> SaveState() const override {
    snapshot::Writer w;
    w.U64(id_);
    w.U64(rounds_);
    w.U64(asked_);
    w.U64(code_);
    return w.Take();
  }

 private:
  size_t id_;
  size_t rounds_;
  size_t asked_;
  size_t code_;
  std::vector<size_t>* calls_;
};

/// Starts CountingSessions; the session id is the config's seed.
class CountingAlgorithm final : public InteractiveAlgorithm {
 public:
  explicit CountingAlgorithm(size_t rounds) : rounds_(rounds) {}

  std::string name() const override { return "Counting"; }
  std::unique_ptr<InteractionSession> StartSession(
      const SessionConfig& config) override {
    return Open(static_cast<size_t>(config.seed.value_or(0)), rounds_, 0, 0);
  }
  Result<std::unique_ptr<InteractionSession>> RestoreSession(
      const std::string& bytes, const SessionConfig& /*config*/) override {
    snapshot::Reader r(bytes);
    const size_t id = r.U64();
    const size_t rounds = r.U64();
    const size_t asked = r.U64();
    const size_t code = r.U64();
    ISRL_RETURN_IF_ERROR(r.status());
    return Open(id, rounds, asked, code);
  }

  size_t TotalCalls() const {
    return std::accumulate(calls.begin(), calls.end(), size_t{0});
  }
  AlgorithmResolver Resolver() {
    return [this](const std::string&) -> InteractiveAlgorithm* { return this; };
  }

  std::vector<size_t> calls;  ///< NextQuestion() calls per session id

 private:
  std::unique_ptr<InteractionSession> Open(size_t id, size_t rounds,
                                           size_t asked, size_t code) {
    if (calls.size() <= id) calls.resize(id + 1, 0);
    return std::make_unique<CountingSession>(id, rounds, asked, code, &calls);
  }

  size_t rounds_;
};

Answer CountingAnswer(const PendingQuestion& pq) {
  return (pq.question.pair.i + pq.question.pair.j) % 2 == 0 ? Answer::kFirst
                                                            : Answer::kSecond;
}

// Users pace themselves: one answer per tick across 1024 in-flight
// sessions. Each Tick() must ask only the session just answered (or, when
// that answer finished it, the session added in its place) — never re-ask
// the 1023 sessions still waiting on their users — so every tick returns
// exactly one question and costs O(1) NextQuestion() calls. A restored
// population is asked once per live session, then only as answers arrive.
TEST(SchedulerDeliveryTest, TickAsksOnlyReadySessions) {
  const size_t kSessions = 1024;
  const size_t kRounds = 3;
  CountingAlgorithm algo(kRounds);
  size_t next_id = 0;
  auto add = [&](SessionScheduler& s) {
    SessionConfig config;
    config.seed = next_id++;
    return s.Add(algo.StartSession(config), &algo);
  };
  SessionScheduler scheduler;
  for (size_t i = 0; i < kSessions; ++i) add(scheduler);
  std::vector<PendingQuestion> first = scheduler.Tick();
  ASSERT_EQ(first.size(), kSessions);
  EXPECT_EQ(algo.TotalCalls(), kSessions);
  std::deque<PendingQuestion> waiting(first.begin(), first.end());

  // One answer per tick, oldest question first.
  auto answer_one = [&](SessionScheduler& s) {
    const PendingQuestion pq = waiting.front();
    waiting.pop_front();
    ASSERT_TRUE(s.TryPostAnswer(pq.session_id, CountingAnswer(pq)).ok());
    const size_t answered_calls = algo.calls[pq.session_id];
    const size_t total_calls = algo.TotalCalls();
    const bool last = pq.question.pair.j + 1 == kRounds;
    const size_t expect_id = last ? add(s) : pq.session_id;
    std::vector<PendingQuestion> asked = s.Tick();
    ASSERT_EQ(asked.size(), 1u) << "answer to session " << pq.session_id;
    EXPECT_EQ(asked[0].session_id, expect_id);
    EXPECT_EQ(algo.calls[pq.session_id], answered_calls + 1);
    EXPECT_EQ(algo.TotalCalls(), total_calls + (last ? 2 : 1));
    waiting.push_back(asked[0]);
  };
  for (size_t answer = 0; answer < kRounds * kSessions; ++answer) {
    answer_one(scheduler);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(scheduler.active(), kSessions);

  Result<std::string> bytes = scheduler.CheckpointAll();
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  Result<SessionScheduler> restored =
      SessionScheduler::RestoreAll(*bytes, algo.Resolver());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const size_t total_calls = algo.TotalCalls();
  std::vector<PendingQuestion> reasked = restored->Tick();
  ASSERT_EQ(reasked.size(), kSessions);
  EXPECT_EQ(algo.TotalCalls(), total_calls + kSessions);
  std::sort(waiting.begin(), waiting.end(),
            [](const PendingQuestion& a, const PendingQuestion& b) {
              return a.session_id < b.session_id;
            });
  for (size_t i = 0; i < kSessions; ++i) {
    EXPECT_EQ(reasked[i].session_id, waiting[i].session_id);
    EXPECT_EQ(reasked[i].question.pair.j, waiting[i].question.pair.j);
  }
  waiting.assign(reasked.begin(), reasked.end());
  for (size_t answer = 0; answer < kRounds * 16; ++answer) {
    answer_one(*restored);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Crash recovery re-asks each in-flight question exactly once: the first
// Tick() after RecoverScheduler emits one question per live session (the
// questions replay asked went to no user), the next Tick() emits nothing
// until an answer arrives, and the population finishes exactly as an
// uninterrupted run does.
TEST(SchedulerDeliveryTest, RecoveryReissuesEachInFlightQuestionOnce) {
  const size_t kSessions = 64;
  const size_t kRounds = 4;
  auto start = [&](CountingAlgorithm& algo, SessionScheduler& scheduler) {
    for (size_t i = 0; i < kSessions; ++i) {
      SessionConfig config;
      config.seed = i;
      scheduler.Add(algo.StartSession(config), &algo);
    }
  };
  auto finish = [&](SessionScheduler& scheduler,
                    std::vector<PendingQuestion> pending) {
    while (scheduler.active() > 0) {
      for (const PendingQuestion& pq : pending) {
        EXPECT_TRUE(scheduler.TryPostAnswer(pq.session_id, CountingAnswer(pq)).ok());
      }
      pending = scheduler.Tick();
    }
    std::vector<InteractionResult> results;
    for (size_t i = 0; i < scheduler.size(); ++i) {
      results.push_back(scheduler.TryTake(i).value());
    }
    return results;
  };
  CountingAlgorithm reference_algo(kRounds);
  SessionScheduler reference;
  start(reference_algo, reference);
  std::vector<InteractionResult> expected =
      finish(reference, reference.Tick());

  // Trickle answers through the write-ahead log, then crash with the last
  // answer logged and applied but its tick never run.
  CountingAlgorithm algo(kRounds);
  SessionScheduler scheduler;
  start(algo, scheduler);
  SessionStore store;
  Result<std::string> epoch = scheduler.CheckpointAll();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  store.BeginEpoch(*epoch);
  std::deque<PendingQuestion> waiting;
  for (PendingQuestion& pq : scheduler.Tick()) waiting.push_back(std::move(pq));
  for (size_t answer = 0; answer < 100; ++answer) {
    const PendingQuestion pq = waiting.front();
    waiting.pop_front();
    store.LogAnswer(pq.session_id, CountingAnswer(pq));
    ASSERT_TRUE(scheduler.TryPostAnswer(pq.session_id, CountingAnswer(pq)).ok());
    if (answer == 99) break;  // crash before this answer's tick
    for (PendingQuestion& next : scheduler.Tick()) {
      waiting.push_back(std::move(next));
    }
  }

  Result<SessionScheduler> recovered =
      RecoverScheduler(store, algo.Resolver());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  std::vector<PendingQuestion> reissued = recovered->Tick();
  ASSERT_EQ(reissued.size(), recovered->active());
  std::vector<size_t> seen(kSessions, 0);
  for (const PendingQuestion& pq : reissued) ++seen[pq.session_id];
  for (const PendingQuestion& pq : waiting) {
    EXPECT_EQ(seen[pq.session_id], 1u) << "in-flight session " << pq.session_id;
  }
  const size_t total_calls = algo.TotalCalls();
  EXPECT_TRUE(recovered->Tick().empty());
  EXPECT_EQ(algo.TotalCalls(), total_calls);

  std::vector<InteractionResult> results =
      finish(*recovered, std::move(reissued));
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(results[i].best_index, expected[i].best_index) << i;
    EXPECT_EQ(results[i].rounds, expected[i].rounds) << i;
  }
}

// ------------------------------------------------------------ OutcomeCounts

TEST(OutcomeCountsTest, CountsEveryFailureKindAndIgnoresConverged) {
  OutcomeCounts counts;
  counts.Count(Termination::kConverged);
  counts.Count(Termination::kDegraded);
  counts.Count(Termination::kDegraded);
  counts.Count(Termination::kBudgetExhausted);
  counts.Count(Termination::kAborted);
  EXPECT_EQ(counts.degraded, 2u);
  EXPECT_EQ(counts.budget_exhausted, 1u);
  EXPECT_EQ(counts.aborted, 1u);
  EXPECT_EQ(counts.Failures(), 4u);
}

TEST(OutcomeCountsTest, AggregatesInheritTheSharedCounters) {
  // EvalStats and TraceSummary share OutcomeCounts — the members must be
  // reachable exactly as before the deduplication.
  EvalStats stats;
  stats.Count(Termination::kBudgetExhausted);
  EXPECT_EQ(stats.budget_exhausted, 1u);
  EXPECT_EQ(stats.degraded, 0u);

  TraceSummary summary;
  summary.Count(Termination::kAborted);
  summary.Count(Termination::kDegraded);
  EXPECT_EQ(summary.aborted, 1u);
  EXPECT_EQ(summary.degraded, 1u);
  EXPECT_EQ(summary.Failures(), 2u);
}

}  // namespace
}  // namespace isrl
