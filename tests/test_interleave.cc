// Seeded interleaving generator (`ctest -L fuzz`). The hand-written suites
// list scenarios one by one; this one generates them. Each seed drives a
// mixed population through a random sequence of boundary operations —
// answers trickled in random subsets (from one session per tick up to
// lock-step), cancellations, takes, unknown and wrong ids, checkpoint and
// restore, crash and recovery; against the sharded engine also Stop/Start
// and durable Recover points — while checking the delivery contract on the
// way: a question is emitted once, plus exactly once per restore, recovery
// or Start() while it is in flight. Model registry publishes land between
// operations: EA/AA admissions alternate between unpinned and pinned to the
// newest version, and every restore and recovery re-pins through the
// registry (or a per-shard replica cache). Every run must end bit-identical
// to sequential Interact() (stepped sessions for cancelled users and pinned
// sessions), and every misuse must come back as the documented Status code.
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/single_pass.h"
#include "baselines/uh_random.h"
#include "baselines/uh_simplex.h"
#include "baselines/utility_approx.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "core/aa.h"
#include "core/ea.h"
#include "core/scheduler.h"
#include "data/skyline.h"
#include "data/synthetic.h"
#include "nn/layer.h"
#include "nn/registry.h"
#include "serve/sharding.h"
#include "user/user.h"

namespace isrl {
namespace {

constexpr size_t kAlgorithms = 6;

rl::DqnOptions FastDqn() {
  rl::DqnOptions o;
  o.hidden_neurons = 32;
  o.batch_size = 16;
  o.min_replay_before_update = 16;
  return o;
}

Dataset SmallSkyline(uint64_t seed) {
  Rng rng(seed);
  Dataset raw = GenerateSynthetic(150, 3, Distribution::kAntiCorrelated, rng);
  return SkylineOf(raw);
}

/// One instance of each of the six algorithms over one dataset.
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
        uh_random(sky, Eps<UhOptions>()),
        uh_simplex(sky, Eps<UhOptions>()),
        single_pass(sky, Eps<SinglePassOptions>()),
        utility_approx(sky, Eps<UtilityApproxOptions>()) {}

  std::vector<InteractiveAlgorithm*> all() {
    return {&ea, &aa, &uh_random, &uh_simplex, &single_pass, &utility_approx};
  }

  static EaOptions EaOpt() {
    EaOptions o = Eps<EaOptions>();
    o.dqn = FastDqn();
    return o;
  }
  static AaOptions AaOpt() {
    AaOptions o;
    o.epsilon = 0.15;
    o.dqn = FastDqn();
    return o;
  }
  template <typename Options>
  static Options Eps() {
    Options o;
    o.epsilon = 0.1;
    return o;
  }
};

/// The registry a run pins its RL sessions to. Publish() adds a perturbed
/// copy of the EA or AA instance's weights; the instances themselves never
/// change, so unpinned sessions keep scoring with their version-0 snapshots.
struct Models {
  nn::ModelRegistry registry;
  uint64_t latest[2] = {0, 0};  ///< newest version per RL slot (EA, AA)
  size_t rl_admissions = 0;

  Models(Roster& roster, Rng& rng) {
    Publish(roster, rng, 0);
    Publish(roster, rng, 1);
  }

  /// Publishes a new version of EA's or AA's network, picked at random.
  void Publish(Roster& roster, Rng& rng) {
    Publish(roster, rng, rng.Bernoulli(0.5) ? 1 : 0);
  }

  void Publish(Roster& roster, Rng& rng, size_t algo) {
    const rl::DqnAgent& agent =
        algo == 0 ? roster.ea.agent() : roster.aa.agent();
    nn::Network weights = agent.main_network().Clone();
    std::vector<double>& w =
        static_cast<nn::Linear&>(weights.layer(0)).weights();
    const int64_t last = static_cast<int64_t>(w.size()) - 1;
    w[static_cast<size_t>(rng.UniformInt(0, last))] += rng.Uniform(-0.5, 0.5);
    latest[algo] = registry.Publish(weights);
  }

  /// EA/AA admissions alternate between unpinned and pinned to the newest
  /// version of their network; baselines carry no model.
  void Admit(size_t algo, SessionConfig* config) {
    if (algo < 2 && rl_admissions++ % 2 == 1) {
      config->model = registry.Pin(latest[algo]);
    }
  }
};

/// Per-shard CloneForEval() copies of a roster, so no Q-network scratch is
/// shared across shard workers.
struct ShardStacks {
  std::vector<std::vector<std::unique_ptr<InteractiveAlgorithm>>> stacks;

  ShardStacks(Roster& roster, size_t shards) : stacks(shards) {
    for (auto& stack : stacks) {
      for (InteractiveAlgorithm* algo : roster.all()) {
        stack.push_back(algo->CloneForEval());
      }
    }
  }

  ShardAlgorithmResolver Resolver() {
    return [this](size_t shard, const std::string& name) -> InteractiveAlgorithm* {
      for (auto& algo : stacks[shard]) {
        if (algo->name() == name) return algo.get();
      }
      return nullptr;
    };
  }
};

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

bool SameQuestion(const SessionQuestion& a, const SessionQuestion& b) {
  return a.pair.i == b.pair.i && a.pair.j == b.pair.j && a.first == b.first &&
         a.second == b.second && a.synthetic == b.synthetic;
}

/// The seeded users of one generated population and how each was treated.
struct Population {
  std::vector<size_t> algo;  ///< roster index per session
  std::vector<SessionConfig> configs;
  std::vector<std::unique_ptr<LinearUser>> users;
  std::vector<size_t> answers;  ///< answers delivered per session
  std::vector<bool> cancelled;  ///< cancelled while awaiting after `answers`

  Population(Rng& rng, size_t sessions, uint64_t master)
      : answers(sessions, 0), cancelled(sessions, false) {
    for (size_t i = 0; i < sessions; ++i) {
      algo.push_back(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(kAlgorithms) - 1)));
      SessionConfig config;
      config.budget.max_rounds = 12;
      config.seed = SplitSeed(master, i);
      configs.push_back(config);
      users.push_back(std::make_unique<LinearUser>(rng.SimplexUniform(3)));
    }
  }

  Answer Ask(size_t id, const SessionQuestion& question) {
    ++answers[id];
    return users[id]->Ask(question.first, question.second);
  }

  /// Sequential reference: Interact() for an unpinned user who answered
  /// everything; otherwise a session with the same config stepped through
  /// the same answers — to the end for a pinned one, and cancelled where a
  /// cancelled user walked away.
  InteractionResult Reference(Roster& roster, size_t id) {
    InteractiveAlgorithm& owner = *roster.all()[algo[id]];
    if (!cancelled[id] && configs[id].model == nullptr) {
      owner.Reseed(*configs[id].seed);
      return owner.Interact(*users[id], configs[id].budget);
    }
    std::unique_ptr<InteractionSession> session = owner.StartSession(configs[id]);
    for (size_t k = 0; !cancelled[id] || k < answers[id]; ++k) {
      std::optional<SessionQuestion> q = session->NextQuestion();
      if (!q.has_value()) break;
      session->PostAnswer(users[id]->Ask(q->first, q->second));
    }
    if (cancelled[id]) {
      (void)session->NextQuestion();
      session->Cancel();
    }
    InteractionResult result = session->Finish();
    result.converged = result.termination == Termination::kConverged;
    return result;
  }
};

// ------------------------------------------------------ SessionScheduler

/// The test's view of one SessionScheduler slot.
struct Slot {
  enum State { kPending, kRunnable, kAwaiting, kReissue, kFinished, kTaken };
  State state = kPending;  ///< not admitted yet
  SessionQuestion question;  ///< out with the user (kAwaiting, kReissue)
  std::optional<InteractionResult> taken;
  bool taken_durably = false;  ///< taken before the current WAL epoch
};

class SchedulerRun {
 public:
  SchedulerRun(Roster& roster, uint64_t seed)
      : roster_(roster),
        rng_(seed),
        models_(roster, rng_),
        population_(rng_, 4 + static_cast<size_t>(rng_.UniformInt(0, 8)), seed),
        slots_(population_.configs.size()) {
    // Trickle (a few percent of the waiting users answer per tick) up to
    // lock-step (every one does).
    answer_p_ = rng_.Bernoulli(0.25) ? 1.0 : rng_.Uniform(0.05, 0.8);
    // Some sessions are admitted later, after registry publishes.
    const size_t initial = 1 + static_cast<size_t>(rng_.UniformInt(
                                   0, static_cast<int64_t>(slots_.size()) - 1));
    while (admitted_ < initial) Admit();
    NewEpoch();
  }

  void Run() {
    for (size_t tick = 0; Live() > 0; ++tick) {
      ASSERT_LT(tick, 5000u) << "population never drained";
      CheckTick();
      if (::testing::Test::HasFailure()) return;
      Misuse();
      AnswerSome();
      if (::testing::Test::HasFailure()) return;
      if (rng_.Bernoulli(0.2)) {
        models_.Publish(roster_, rng_);
      }
      if (admitted_ < slots_.size() && rng_.Bernoulli(0.3)) {
        Admit();
        NewEpoch();  // the WAL does not log admissions
      }
      if (rng_.Bernoulli(0.05)) {
        // Checkpoint and restore in place: the restored scheduler re-asks
        // every question that is out.
        Result<std::string> bytes = scheduler_.CheckpointAll();
        ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
        Result<SessionScheduler> restored = SessionScheduler::RestoreAll(
            *bytes, Resolver(), &models_.registry);
        ASSERT_TRUE(restored.ok()) << restored.status().ToString();
        scheduler_ = std::move(*restored);
        ExpectReissue();
      }
      if (rng_.Bernoulli(0.1)) NewEpoch();
    }
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].state == Slot::kFinished) Take(i);
      ASSERT_TRUE(slots_[i].taken.has_value()) << i;
      ExpectSameResult(population_.Reference(roster_, i), *slots_[i].taken,
                       "session " + std::to_string(i));
    }
  }

 private:
  AlgorithmResolver Resolver() {
    return [this](const std::string& name) -> InteractiveAlgorithm* {
      for (InteractiveAlgorithm* algo : roster_.all()) {
        if (algo->name() == name) return algo;
      }
      return nullptr;
    };
  }

  size_t Live() const {
    size_t live = 0;
    for (const Slot& slot : slots_) {
      live += slot.state != Slot::kFinished && slot.state != Slot::kTaken;
    }
    return live;
  }

  /// Admits the next session in id order, pinned or not (Models::Admit).
  void Admit() {
    const size_t id = admitted_++;
    models_.Admit(population_.algo[id], &population_.configs[id]);
    InteractiveAlgorithm* owner = roster_.all()[population_.algo[id]];
    const size_t added =
        scheduler_.Add(owner->StartSession(population_.configs[id]), owner);
    ASSERT_EQ(added, id);
    slots_[id].state = Slot::kRunnable;
  }

  void NewEpoch() {
    Result<std::string> bytes = scheduler_.CheckpointAll();
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    store_.BeginEpoch(std::move(*bytes));
    for (Slot& slot : slots_) slot.taken_durably = slot.state == Slot::kTaken;
  }

  /// After a restore or recovery, the next tick hands every question that
  /// is out to the users once more.
  void ExpectReissue() {
    for (Slot& slot : slots_) {
      if (slot.state == Slot::kAwaiting) slot.state = Slot::kReissue;
    }
  }

  /// One Tick(): it must ask exactly the runnable sessions that did not
  /// finish, re-ask each re-issued question once and unchanged, and leave
  /// every other waiting session alone.
  void CheckTick() {
    std::vector<bool> asked(slots_.size(), false);
    for (const PendingQuestion& pq : scheduler_.Tick()) {
      ASSERT_LT(pq.session_id, slots_.size());
      Slot& slot = slots_[pq.session_id];
      ASSERT_FALSE(asked[pq.session_id]) << "asked twice: " << pq.session_id;
      asked[pq.session_id] = true;
      if (slot.state == Slot::kReissue) {
        EXPECT_TRUE(SameQuestion(slot.question, pq.question)) << pq.session_id;
      } else {
        ASSERT_EQ(slot.state, Slot::kRunnable)
            << "question for a session not ready: " << pq.session_id;
      }
      slot.state = Slot::kAwaiting;
      slot.question = pq.question;
    }
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].state == Slot::kRunnable) {
        ASSERT_TRUE(scheduler_.finished(i)) << "runnable but not asked: " << i;
        slots_[i].state = Slot::kFinished;
      }
      ASSERT_NE(slots_[i].state, Slot::kReissue) << "not re-asked: " << i;
    }
  }

  /// Hostile and stale traffic: every call must return its precise Status.
  /// Ids not admitted yet are unknown to the scheduler.
  void Misuse() {
    const size_t n = admitted_;
    const size_t unknown = n + static_cast<size_t>(rng_.UniformInt(0, 5));
    if (rng_.Bernoulli(0.3)) {
      EXPECT_EQ(scheduler_.TryPostAnswer(unknown, Answer::kFirst).code(),
                StatusCode::kNotFound);
      EXPECT_EQ(scheduler_.TryCancel(unknown).code(), StatusCode::kNotFound);
      EXPECT_EQ(scheduler_.TryTake(unknown).status().code(), StatusCode::kNotFound);
    }
    const size_t id = static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(n) - 1));
    Slot& slot = slots_[id];
    if (slot.state != Slot::kAwaiting && rng_.Bernoulli(0.3)) {
      EXPECT_EQ(scheduler_.TryPostAnswer(id, Answer::kSecond).code(),
                StatusCode::kFailedPrecondition)
          << id;
    }
    if (slot.state == Slot::kTaken) {
      EXPECT_EQ(scheduler_.TryTake(id).status().code(),
                StatusCode::kFailedPrecondition);
      EXPECT_TRUE(scheduler_.TryCancel(id).ok());
    } else if (slot.state == Slot::kFinished) {
      if (rng_.Bernoulli(0.5)) Take(id);
    } else {
      EXPECT_EQ(scheduler_.TryTake(id).status().code(),
                StatusCode::kFailedPrecondition)
          << id;
    }
  }

  void Take(size_t id) {
    Result<InteractionResult> result = scheduler_.TryTake(id);
    ASSERT_TRUE(result.ok()) << id << ": " << result.status().ToString();
    Slot& slot = slots_[id];
    if (slot.taken.has_value()) {
      // Taken before a crash that lost the take: the same result again.
      ExpectSameResult(*slot.taken, *result, "re-taken " + std::to_string(id));
    }
    slot.taken = std::move(*result);
    slot.state = Slot::kTaken;
  }

  /// A random subset of the waiting users answers (at least one, so the
  /// run progresses); a few walk away instead. Each delivery is logged
  /// first, and the run may crash at any of them.
  void AnswerSome() {
    std::vector<size_t> waiting;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].state == Slot::kAwaiting) waiting.push_back(i);
    }
    if (waiting.empty()) return;
    const size_t forced = waiting[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(waiting.size()) - 1))];
    for (size_t id : waiting) {
      if (id != forced && !rng_.Bernoulli(answer_p_)) continue;
      Slot& slot = slots_[id];
      const bool cancel = rng_.Bernoulli(0.03);
      const bool crash = rng_.Bernoulli(0.01);
      // A crash after the log write but before the apply still delivers:
      // recovery replays the logged record.
      const bool apply = !crash || rng_.Bernoulli(0.5);
      if (cancel) {
        store_.LogCancel(id);
        if (apply) {
          ASSERT_TRUE(scheduler_.TryCancel(id).ok());
        }
        population_.cancelled[id] = true;
        slot.state = Slot::kFinished;
      } else {
        const Answer answer = population_.Ask(id, slot.question);
        store_.LogAnswer(id, answer);
        if (apply) {
          ASSERT_TRUE(scheduler_.TryPostAnswer(id, answer).ok());
        }
        slot.state = Slot::kRunnable;
        if (apply && rng_.Bernoulli(0.2)) {
          EXPECT_EQ(scheduler_.TryPostAnswer(id, answer).code(),
                    StatusCode::kFailedPrecondition);
        }
      }
      if (crash) {
        Recover();
        return;
      }
    }
  }

  /// The process dies: everything not in the store is lost, including
  /// takes since the epoch began (those slots come back finished).
  void Recover() {
    Result<SessionScheduler> recovered =
        RecoverScheduler(store_, Resolver(), &models_.registry);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    scheduler_ = std::move(*recovered);
    for (Slot& slot : slots_) {
      if (slot.state == Slot::kTaken && !slot.taken_durably) {
        slot.state = Slot::kFinished;
      }
    }
    ExpectReissue();
  }

  Roster& roster_;
  Rng rng_;
  Models models_;
  Population population_;
  std::vector<Slot> slots_;
  size_t admitted_ = 0;
  double answer_p_ = 1.0;
  SessionScheduler scheduler_;
  SessionStore store_;
};

TEST(InterleaveFuzzTest, SchedulerRandomInterleavingsMatchSequentialInteract) {
  Roster roster(SmallSkyline(301));
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SchedulerRun(roster, seed).Run();
    if (::testing::Test::HasFailure()) return;
  }
}

// ------------------------------------------------------ ShardedScheduler

/// What the sinks deliver: a question, or a finished session's harvest.
struct Event {
  size_t id = 0;
  bool harvest = false;
  SessionQuestion question;
};

struct EventQueue {
  Mutex mu;
  std::deque<Event> events ISRL_GUARDED_BY(mu);

  void Push(Event event) {
    MutexLock lock(mu);
    events.push_back(std::move(event));
  }

  /// Waits up to `seconds` for an event; false if none arrived. Polls, so
  /// a delivery the engine never makes fails the test instead of hanging it.
  bool Pop(Event* event, double seconds) {
    Stopwatch watch;
    while (true) {
      {
        MutexLock lock(mu);
        if (!events.empty()) {
          *event = std::move(events.front());
          events.pop_front();
          return true;
        }
      }
      if (watch.ElapsedSeconds() >= seconds) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
};

/// The test's view of one sharded session.
struct Client {
  enum State { kInFlight, kHeld, kReissue, kCancelling, kFinished, kTaken };
  State state = kInFlight;
  SessionQuestion question;  ///< out with the user (kHeld, kReissue)
  std::optional<InteractionResult> taken;
  bool reharvest_ok = false;  ///< a recovery may finish it once more
};

class ShardedRun {
 public:
  ShardedRun(Roster& roster, uint64_t seed)
      : roster_(roster),
        rng_(seed),
        models_(roster, rng_),
        population_(rng_, 6 + static_cast<size_t>(rng_.UniformInt(0, 10)), seed),
        clients_(population_.configs.size()),
        prefix_(::testing::TempDir() + "/isrl_interleave_" + std::to_string(seed)),
        recancel_on_harvest_(seed % 2 == 0) {
    options_.shards = 1 + static_cast<size_t>(rng_.UniformInt(0, 2));
    options_.checkpoint_every_ticks = static_cast<size_t>(rng_.UniformInt(0, 3));
    answer_p_ = rng_.Bernoulli(0.25) ? 1.0 : rng_.Uniform(0.1, 0.8);
    stacks_ = std::make_unique<ShardStacks>(roster_, options_.shards);
    NewCaches();
    engine_ = std::make_unique<ShardedScheduler>(options_);
    for (size_t i = 0; i < clients_.size(); ++i) {
      if (rng_.Bernoulli(0.3)) {
        models_.Publish(roster_, rng_);
      }
      const size_t shard = i % options_.shards;
      models_.Admit(population_.algo[i], &population_.configs[i]);
      // The engine's session scores through its shard's replica; the
      // reference keeps the registry's snapshot (same weights).
      SessionConfig config = population_.configs[i];
      if (config.model != nullptr) {
        config.model = caches_[shard]->Pin(config.model->version());
      }
      InteractiveAlgorithm* owner =
          stacks_->stacks[shard][population_.algo[i]].get();
      engine_->Add(owner->StartSession(config), owner);
    }
  }

  ~ShardedRun() {
    engine_.reset();
    for (size_t k = 0; k < options_.shards; ++k) {
      std::remove(ShardedScheduler::ShardPath(prefix_, k).c_str());
    }
    std::remove(ShardedScheduler::ManifestPath(prefix_).c_str());
  }

  void Run() {
    ASSERT_TRUE(engine_->EnableDurability(prefix_, &models_.registry).ok());
    Serve();
    for (size_t step = 0; Live() > 0; ++step) {
      ASSERT_LT(step, 20000u) << "population never drained";
      Event event;
      if (queue_.Pop(&event, Busy() ? 10.0 : 0.0)) {
        Apply(event);
      } else {
        ASSERT_FALSE(Busy()) << "a delivery owed to the users never came";
        Act();
      }
      if (rng_.Bernoulli(0.05)) {
        models_.Publish(roster_, rng_);
      }
      if (::testing::Test::HasFailure()) return;
      if (restarts_ < 4 && rng_.Bernoulli(0.02)) Restart();
      if (::testing::Test::HasFailure()) return;
    }
    // Bounded: a session the engine never counts as finished fails the
    // test instead of hanging WaitUntilDrained.
    Stopwatch watch;
    while (engine_->active() > 0 && watch.ElapsedSeconds() < 10.0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ASSERT_EQ(engine_->active(), 0u) << "the engine never drained";
    ASSERT_TRUE(engine_->WaitUntilDrained().ok());
    engine_->Stop();
    Drain();
    for (size_t i = 0; i < clients_.size(); ++i) {
      Client& client = clients_[i];
      Result<InteractionResult> result = engine_->TryTake(i);
      if (client.state == Client::kTaken && !result.ok()) {
        EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
      } else {
        ASSERT_TRUE(result.ok()) << i << ": " << result.status().ToString();
        if (client.taken.has_value()) {
          ExpectSameResult(*client.taken, *result, "re-taken " + std::to_string(i));
        }
        client.taken = std::move(*result);
      }
      ExpectSameResult(population_.Reference(roster_, i), *client.taken,
                       "session " + std::to_string(i));
    }
  }

 private:
  size_t Live() const {
    size_t live = 0;
    for (const Client& c : clients_) {
      live += c.state != Client::kFinished && c.state != Client::kTaken;
    }
    return live;
  }

  /// True while some delivery is owed to the users, so waiting for the
  /// next event cannot block forever.
  bool Busy() const {
    for (const Client& c : clients_) {
      if (c.state == Client::kInFlight || c.state == Client::kReissue ||
          c.state == Client::kCancelling) {
        return true;
      }
    }
    return false;
  }

  void Serve() {
    engine_->SetHarvestSink([this](size_t id, const SessionTraceRecord&) {
      // A cancel retried as the session finishes reaches the worker after
      // the record that finished it: a no-op that must not change the
      // result, the drain count or what a recovery replays.
      if (recancel_on_harvest_) {
        EXPECT_TRUE(engine_->TryCancel(id).ok()) << id;
      }
      queue_.Push(Event{id, true, {}});
    });
    engine_->Start([this](size_t id, const SessionQuestion& question) {
      queue_.Push(Event{id, false, question});
    });
  }

  void Apply(const Event& event) {
    ASSERT_LT(event.id, clients_.size());
    Client& client = clients_[event.id];
    if (event.harvest) {
      if (client.state == Client::kFinished || client.state == Client::kTaken) {
        ASSERT_TRUE(client.reharvest_ok) << "finished twice: " << event.id;
        client.reharvest_ok = false;
        return;
      }
      ASSERT_NE(client.state, Client::kHeld) << "finished unanswered: " << event.id;
      ASSERT_NE(client.state, Client::kReissue) << event.id;
      client.state = Client::kFinished;
      return;
    }
    if (client.state == Client::kReissue) {
      EXPECT_TRUE(SameQuestion(client.question, event.question)) << event.id;
    } else {
      ASSERT_EQ(client.state, Client::kInFlight)
          << "unexpected delivery (state " << client.state << "): " << event.id;
    }
    client.state = Client::kHeld;
    client.question = event.question;
  }

  /// Users answer (or walk away from) a random subset of held questions,
  /// mixed with misuse that must come back as a precise Status.
  void Act() {
    const size_t n = clients_.size();
    const size_t unknown = n + static_cast<size_t>(rng_.UniformInt(0, 5));
    if (rng_.Bernoulli(0.2)) {
      EXPECT_EQ(engine_->TryPostAnswer(unknown, Answer::kFirst).code(),
                StatusCode::kNotFound);
      EXPECT_EQ(engine_->TryCancel(unknown).code(), StatusCode::kNotFound);
      EXPECT_EQ(engine_->TryTake(unknown).status().code(), StatusCode::kNotFound);
    }
    std::vector<size_t> held;
    for (size_t i = 0; i < n; ++i) {
      Client& client = clients_[i];
      switch (client.state) {
        case Client::kHeld:
          held.push_back(i);
          if (rng_.Bernoulli(0.1)) {
            EXPECT_EQ(engine_->TryTake(i).status().code(),
                      StatusCode::kFailedPrecondition);
          }
          break;
        case Client::kFinished:
          if (rng_.Bernoulli(0.1)) {
            EXPECT_EQ(engine_->TryPostAnswer(i, Answer::kFirst).code(),
                      StatusCode::kFailedPrecondition);
          }
          if (!client.reharvest_ok && rng_.Bernoulli(0.2)) {
            Result<InteractionResult> result = engine_->TryTake(i);
            ASSERT_TRUE(result.ok()) << i << ": " << result.status().ToString();
            client.taken = std::move(*result);
            client.state = Client::kTaken;
          }
          break;
        case Client::kCancelling:
          if (rng_.Bernoulli(0.3)) {
            EXPECT_EQ(engine_->TryPostAnswer(i, Answer::kFirst).code(),
                      StatusCode::kFailedPrecondition);
            EXPECT_TRUE(engine_->TryCancel(i).ok());
          }
          break;
        default:
          break;
      }
    }
    if (held.empty()) return;
    const size_t forced = held[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(held.size()) - 1))];
    for (size_t id : held) {
      if (id != forced && !rng_.Bernoulli(answer_p_)) continue;
      Client& client = clients_[id];
      if (rng_.Bernoulli(0.03)) {
        ASSERT_TRUE(engine_->TryCancel(id).ok());
        population_.cancelled[id] = true;
        client.state = Client::kCancelling;
        continue;
      }
      const Status posted =
          engine_->TryPostAnswer(id, population_.Ask(id, client.question));
      ASSERT_TRUE(posted.ok()) << id << ": " << posted.ToString();
      client.state = Client::kInFlight;
    }
  }

  void Drain() {
    Event event;
    while (queue_.Pop(&event, 0.0)) Apply(event);
  }

  /// One replica cache per shard over the run's registry (a recovered
  /// process starts with empty caches).
  void NewCaches() {
    caches_.clear();
    for (size_t k = 0; k < options_.shards; ++k) {
      caches_.push_back(
          std::make_unique<nn::ModelReplicaCache>(&models_.registry));
    }
  }

  /// Stop() — then either Start() again, or drop the engine and Recover()
  /// it from its files. Stop applies every queued record, so afterwards no
  /// answer or cancel is owed; each held question is handed over exactly
  /// once more by the next Start().
  void Restart() {
    ++restarts_;
    engine_->Stop();
    Drain();
    for (size_t i = 0; i < clients_.size(); ++i) {
      Client& client = clients_[i];
      ASSERT_NE(client.state, Client::kInFlight) << "answer lost at Stop: " << i;
      ASSERT_NE(client.state, Client::kCancelling) << "cancel lost at Stop: " << i;
      if (client.state == Client::kReissue) client.state = Client::kHeld;
      if (client.state == Client::kHeld) {
        EXPECT_EQ(engine_->TryPostAnswer(i, Answer::kFirst).code(),
                  StatusCode::kFailedPrecondition)
            << "posted while stopped: " << i;
      }
    }
    if (rng_.Bernoulli(0.5)) {
      engine_.reset();
      NewCaches();
      Result<std::unique_ptr<ShardedScheduler>> recovered =
          ShardedScheduler::Recover(
              options_, prefix_, stacks_->Resolver(),
              [this](size_t shard) -> nn::ModelProvider* {
                return caches_[shard].get();
              });
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      engine_ = std::move(*recovered);
      ASSERT_TRUE(engine_->EnableDurability(prefix_, &models_.registry).ok());
      // Sessions whose last answer was replayed but not yet ticked finish
      // again on the first tick; takes are not logged, so taken sessions
      // may come back finished.
      for (Client& client : clients_) {
        if (client.state == Client::kFinished || client.state == Client::kTaken) {
          client.reharvest_ok = true;
        }
      }
    }
    for (Client& client : clients_) {
      if (client.state == Client::kHeld) client.state = Client::kReissue;
    }
    Serve();
  }

  Roster& roster_;
  Rng rng_;
  Models models_;
  Population population_;
  std::vector<Client> clients_;
  const std::string prefix_;
  const bool recancel_on_harvest_;
  ShardedOptions options_;
  double answer_p_ = 1.0;
  size_t restarts_ = 0;
  std::unique_ptr<ShardStacks> stacks_;
  /// One replica cache per shard over models_.registry (NewCaches()).
  std::vector<std::unique_ptr<nn::ModelReplicaCache>> caches_;
  EventQueue queue_;
  std::unique_ptr<ShardedScheduler> engine_;
};

TEST(InterleaveFuzzTest, ShardedRandomInterleavingsMatchSequentialInteract) {
  Roster roster(SmallSkyline(311));
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ShardedRun(roster, seed).Run();
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace isrl
