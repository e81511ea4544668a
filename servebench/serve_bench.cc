// Serving benchmark: serves a seeded EA/AA population through the
// public ShardedScheduler boundary under one named workload, checks every
// result against a sequential Interact() reference, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer split) as one JSON
// object on the last line of standard output.
//
//   serve_bench --workload ea_lockstep|aa_durable --seed N
//               --seconds S --trace 0|1 --workdir DIR
//
// The workloads, their metrics and what each layer metric should move are
// described in servebench/NOTES.md.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "nn/registry.h"
#include "replay.h"
#include "serve/sharding.h"
#include "trace.h"
#include "user/user.h"

namespace servebench {
namespace {

using isrl::Answer;
using isrl::InteractionSession;
using isrl::SessionQuestion;
using isrl::ShardedScheduler;

const WorkloadSpec kWorkloads[] = {
    // name, mode, aa, dim, epsilon, sessions, train episodes, max rounds,
    // pinned, model seed
    {"ea_lockstep", Mode::kLockstep, false, 3, 0.05, 16384, 100, 10, false, 18},
    {"aa_durable", Mode::kDurableRestart, true, 4, 0.1, 2048, 100, 0, true, 19},
};

/// Set-up runs at least kMinSetups times and until kMinSetupSeconds have
/// passed (at most kMaxSetups); setup_s is the median.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 7;
constexpr double kMinSetupSeconds = 2.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (key == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->workdir.empty();
}

/// Sequential Interact() reference: each session's episode with the same
/// seed, user and round cap, run by blocking Interact() calls outside the
/// engine. The population is split over one thread per shard clone (each
/// pinned to `cpus[t]` when given); each thread runs its episodes one at a
/// time.
std::vector<Outcome> Reference(const WorkloadSpec& spec, Model& model,
                               const Inputs& inputs,
                               const std::vector<int>& cpus) {
  std::vector<Outcome> outcomes(spec.sessions);
  isrl::RunBudget budget;
  budget.max_rounds = spec.max_rounds;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kShards; ++t) {
    threads.emplace_back([&, t] {
      if (t < cpus.size()) PinThread(0, cpus[t]);
      isrl::InteractiveAlgorithm& algorithm = *model.clones[t];
      for (size_t i = t; i < spec.sessions; i += kShards) {
        algorithm.Reseed(inputs.session_seeds[i]);
        isrl::LinearUser user(inputs.utilities[i]);
        outcomes[i] = OutcomeOf(algorithm.Interact(user, budget));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return outcomes;
}

/// What one serving pass measured.
struct PassResult {
  std::vector<Outcome> outcomes;
  double sessions_per_s = 0.0;
  double recover_s = 0.0;
  double cpu_s = 0.0;
  /// Largest heap in use (MiB) at the pass's phase boundaries.
  double peak_heap_mb = 0.0;
  std::vector<double> latency_ms;
  size_t attempted = 0;         ///< Add + TryPostAnswer + TryTake calls
  size_t posted = 0;
  size_t rejected = 0;
  size_t deliveries = 0;
  size_t errors = 0;  ///< failed lifecycle calls and takes
  std::string error;
};

class ServePass {
 public:
  /// `logs` holds one span log per shard worker plus one for the main
  /// thread (last), or is empty for an untraced pass.
  /// `worker_cpus` (possibly empty) are the CPUs the shard workers are
  /// pinned to, one each.
  ServePass(const WorkloadSpec& spec, Model& model, const Inputs& inputs,
            const std::string& workdir, std::vector<int> worker_cpus,
            std::vector<SpanLog*> logs)
      : spec_(spec),
        model_(model),
        inputs_(inputs),
        prefix_(workdir + "/population"),
        worker_cpus_(std::move(worker_cpus)),
        logs_(std::move(logs)) {
    for (size_t k = 0; k < kShards; ++k) {
      shard_stats_[k].sessions.resize((spec.sessions + kShards - 1 - k) /
                                      kShards);
    }
    for (size_t i = 0; i < spec.sessions; ++i) {
      users_.push_back(std::make_unique<isrl::LinearUser>(inputs.utilities[i]));
    }
  }

  PassResult Run() {
    result_.outcomes.assign(spec_.sessions, Outcome{});
    const double cpu0 = ProcessCpuSeconds();
    const int64_t first_add = NowNs();
    auto engine = std::make_unique<ShardedScheduler>(isrl::ShardedOptions{
        kShards, spec_.mode == Mode::kDurableRestart ? kCheckpointEveryTicks
                                                     : 0});
    // Installed before Add so a session that finishes inside StartSession is
    // seen too.
    engine->SetHarvestSink(MakeHarvestSink());
    for (size_t id = 0; id < spec_.sessions; ++id) {
      const isrl::SessionConfig config =
          MakeSessionConfig(spec_, model_, inputs_, id);
      isrl::InteractiveAlgorithm* clone = model_.clones[id % kShards].get();
      std::unique_ptr<InteractionSession> session;
      {
        ScopedSpan span(MainLog(), SpanName::kStartSession, id);
        session = clone->StartSession(config);
      }
      ScopedSpan span(MainLog(), SpanName::kAdd, id);
      engine->Add(std::move(session), clone);
    }
    result_.attempted += spec_.sessions;
    if (spec_.mode == Mode::kDurableRestart &&
        !Check(EnableDurability(*engine))) {
      return std::move(result_);
    }
    SampleHeap();
    engine_ = engine.get();
    StartPinned(*engine, InlineSink());
    if (spec_.mode == Mode::kDurableRestart && !Restart(&engine)) {
      return std::move(result_);
    }
    {
      ScopedSpan span(MainLog(), SpanName::kWaitUntilDrained);
      Check(engine->WaitUntilDrained());
    }
    {
      ScopedSpan span(MainLog(), SpanName::kStop);
      engine->Stop();
    }
    SampleHeap();
    for (size_t id = 0; id < spec_.sessions; ++id) Take(*engine, id);
    const int64_t last_take = NowNs();
    result_.cpu_s = ProcessCpuSeconds() - cpu0;
    result_.sessions_per_s =
        static_cast<double>(spec_.sessions) / NsToS(last_take - first_add);
    for (const auto& shard : shard_stats_) {
      result_.latency_ms.insert(result_.latency_ms.end(), shard.latency_ms.begin(),
                                shard.latency_ms.end());
      result_.deliveries += shard.deliveries;
      result_.posted += shard.posted;
      result_.rejected += shard.rejected;
    }
    result_.attempted += result_.posted;
    return std::move(result_);
  }

 private:
  /// Per session, kept with its shard so the two workers never write one
  /// cache line. Written and read on the session's shard worker.
  struct SessionState {
    int64_t mark_ns = 0;  ///< when the pending answer was posted
    size_t answered = 0;
  };

  struct alignas(64) ShardStats {
    std::vector<SessionState> sessions;  ///< by local id (id / kShards)
    std::vector<double> latency_ms;
    size_t deliveries = 0;
    size_t posted = 0;
    size_t rejected = 0;
  };

  SessionState& StateOf(size_t id) {
    return shard_stats_[id % kShards].sessions[id / kShards];
  }

  SpanLog* MainLog() const { return logs_.empty() ? nullptr : logs_.back(); }
  SpanLog* ShardLog(size_t id) const {
    return logs_.empty() ? nullptr : logs_[id % kShards];
  }

  /// Starts serving and pins each new worker thread to its own CPU, so the
  /// threads keep the same placement in every run instead of wherever the
  /// kernel's wake-affine placement puts them.
  void StartPinned(ShardedScheduler& engine,
                   ShardedScheduler::QuestionSink sink) {
    const std::vector<int> before = ThreadIds();
    {
      ScopedSpan span(MainLog(), SpanName::kStart);
      engine.Start(std::move(sink));
    }
    if (worker_cpus_.empty()) return;
    size_t next = 0;
    for (int tid : ThreadIds()) {
      if (!std::binary_search(before.begin(), before.end(), tid)) {
        PinThread(tid, worker_cpus_[next++ % worker_cpus_.size()]);
      }
    }
  }

  /// Heap in use is sampled only at phase boundaries, where the workers are
  /// stopped or idle, so the sample costs the serving path nothing.
  void SampleHeap() {
    result_.peak_heap_mb =
        std::max(result_.peak_heap_mb, HeapBytesInUse() / (1024.0 * 1024.0));
  }

  bool Check(const isrl::Status& status) {
    if (status.ok()) return true;
    ++result_.errors;
    if (result_.error.empty()) result_.error = status.ToString();
    return false;
  }

  isrl::Status EnableDurability(ShardedScheduler& engine) {
    ScopedSpan span(MainLog(), SpanName::kEnableDurability);
    return engine.EnableDurability(prefix_, &model_.registry);
  }

  void Take(ShardedScheduler& engine, size_t id) {
    isrl::Result<isrl::InteractionResult> taken = [&] {
      ScopedSpan span(MainLog(), SpanName::kTryTake, id);
      return engine.TryTake(id);
    }();
    ++result_.attempted;
    if (!Check(taken.status())) return;
    result_.outcomes[id] = OutcomeOf(taken.value());
  }

  /// Ends the latency sample of `id` opened by its last answer, if any.
  /// Runs on the session's shard worker.
  void CloseSample(size_t id, int64_t now) {
    SessionState& session = StateOf(id);
    if (session.mark_ns == 0) return;
    shard_stats_[id % kShards].latency_ms.push_back(
        NsToMs(now - session.mark_ns));
    session.mark_ns = 0;
  }

  /// Runs on the session's shard worker, inside its sink delivery.
  void Post(size_t id, Answer answer) {
    isrl::Status posted;
    {
      ScopedSpan span(ShardLog(id), SpanName::kTryPostAnswer, id);
      posted = engine_->TryPostAnswer(id, answer);
    }
    ShardStats& stats = shard_stats_[id % kShards];
    ++stats.posted;
    if (!posted.ok()) {
      ++stats.rejected;
      StateOf(id).mark_ns = 0;
      // A rejected session would wait for an answer that never comes, and
      // the pass would never drain. Cancelled, it finishes early, the pass
      // drains, and the run reports the failure.
      (void)engine_->TryCancel(id);
    }
  }

  void NotifyMain() {
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_all();
  }

  isrl::HarvestSink MakeHarvestSink() {
    return [this](size_t id, const isrl::SessionTraceRecord&) {
      ScopedSpan span(ShardLog(id), SpanName::kHarvest, id);
      CloseSample(id, NowNs());
      if (spec_.mode == Mode::kDurableRestart && !restarted_) {
        finished_.fetch_add(1, std::memory_order_acq_rel);
        NotifyMain();
      }
    };
  }

  /// Lock-step: the sink answers inline on the shard worker. Before the
  /// planned restart, a durable session stops answering after
  /// kAnswersBeforeRestart answers and parks.
  ShardedScheduler::QuestionSink InlineSink() {
    return [this](size_t id, const SessionQuestion& question) {
      ScopedSpan span(ShardLog(id), SpanName::kSinkDelivery, id);
      CloseSample(id, NowNs());
      ++shard_stats_[id % kShards].deliveries;
      if (spec_.mode == Mode::kDurableRestart && !restarted_ &&
          StateOf(id).answered >= kAnswersBeforeRestart) {
        parked_.fetch_add(1, std::memory_order_acq_rel);
        NotifyMain();
        return;
      }
      const Answer answer = users_[id]->Ask(question.first, question.second);
      ++StateOf(id).answered;
      StateOf(id).mark_ns = NowNs();
      Post(id, answer);
    };
  }

  /// Durable restart: waits until every session is parked or finished,
  /// stops and drops the engine, recovers the population from its files,
  /// re-arms durability and serves on.
  bool Restart(std::unique_ptr<ShardedScheduler>* engine) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return parked_.load(std::memory_order_acquire) +
                   finished_.load(std::memory_order_acquire) ==
               spec_.sessions;
      });
    }
    {
      ScopedSpan span(MainLog(), SpanName::kStop);
      (*engine)->Stop();
    }
    SampleHeap();
    engine->reset();
    std::vector<std::unique_ptr<isrl::nn::ModelReplicaCache>> caches;
    for (size_t k = 0; k < kShards; ++k) {
      caches.push_back(
          std::make_unique<isrl::nn::ModelReplicaCache>(&model_.registry));
    }
    const int64_t t0 = NowNs();
    isrl::Result<std::unique_ptr<ShardedScheduler>> recovered = [&] {
      ScopedSpan span(MainLog(), SpanName::kRecover);
      return ShardedScheduler::Recover(
          isrl::ShardedOptions{kShards, kCheckpointEveryTicks}, prefix_,
          [this](size_t shard, const std::string& name)
              -> isrl::InteractiveAlgorithm* {
            return name == model_.clones[shard]->name()
                       ? model_.clones[shard].get()
                       : nullptr;
          },
          [&caches](size_t shard) -> isrl::nn::ModelProvider* {
            return caches[shard].get();
          });
    }();
    result_.recover_s = NsToS(NowNs() - t0);
    if (!Check(recovered.status())) return false;
    *engine = std::move(recovered.value());
    caches_ = std::move(caches);
    restarted_ = true;
    (*engine)->SetHarvestSink(MakeHarvestSink());
    if (!Check(EnableDurability(**engine))) return false;
    SampleHeap();
    engine_ = engine->get();
    StartPinned(**engine, InlineSink());
    return true;
  }

  const WorkloadSpec& spec_;
  Model& model_;
  const Inputs& inputs_;
  const std::string prefix_;
  const std::vector<int> worker_cpus_;
  const std::vector<SpanLog*> logs_;
  std::vector<std::unique_ptr<isrl::UserOracle>> users_;
  PassResult result_;

  ShardStats shard_stats_[kShards];
  ShardedScheduler* engine_ = nullptr;
  /// Set before the recovered engine's workers start.
  bool restarted_ = false;
  std::vector<std::unique_ptr<isrl::nn::ModelReplicaCache>> caches_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<size_t> parked_{0};
  std::atomic<size_t> finished_{0};
};

/// Restart downtime of the admitted population: admits every session into
/// a fresh durable engine, drops it, and times ShardedScheduler::Recover
/// from its files. Returns seconds, or a negative value on failure.
double RestartProbe(const WorkloadSpec& spec, Model& model,
                    const Inputs& inputs, const std::string& workdir) {
  const std::string prefix = workdir + "/probe";
  {
    ShardedScheduler engine(isrl::ShardedOptions{kShards, 0});
    for (size_t id = 0; id < spec.sessions; ++id) {
      isrl::InteractiveAlgorithm* clone = model.clones[id % kShards].get();
      engine.Add(clone->StartSession(
                     MakeSessionConfig(spec, model, inputs, id)),
                 clone);
    }
    if (!engine.EnableDurability(prefix, spec.pinned ? &model.registry
                                                     : nullptr)
             .ok()) {
      return -1.0;
    }
  }
  std::vector<std::unique_ptr<isrl::nn::ModelReplicaCache>> caches;
  for (size_t k = 0; k < kShards; ++k) {
    caches.push_back(
        std::make_unique<isrl::nn::ModelReplicaCache>(&model.registry));
  }
  const int64_t t0 = NowNs();
  isrl::Result<std::unique_ptr<ShardedScheduler>> recovered =
      ShardedScheduler::Recover(
          isrl::ShardedOptions{kShards, 0}, prefix,
          [&](size_t shard, const std::string& name)
              -> isrl::InteractiveAlgorithm* {
            return name == model.clones[shard]->name()
                       ? model.clones[shard].get()
                       : nullptr;
          },
          [&](size_t shard) -> isrl::nn::ModelProvider* {
            return spec.pinned ? caches[shard].get() : nullptr;
          });
  const double seconds = NsToS(NowNs() - t0);
  if (!recovered.ok() || recovered.value()->size() != spec.sessions) {
    return -1.0;
  }
  return seconds;
}

double MeanRounds(const std::vector<Outcome>& outcomes) {
  double total = 0.0;
  for (const Outcome& o : outcomes) total += static_cast<double>(o.rounds);
  return total / static_cast<double>(outcomes.size());
}

size_t CountAborted(const std::vector<Outcome>& outcomes) {
  return static_cast<size_t>(
      std::count_if(outcomes.begin(), outcomes.end(), [](const Outcome& o) {
        return o.termination == isrl::Termination::kAborted;
      }));
}

/// Operations attempted and failed over the whole run, with a line per
/// kind of failure.
struct Tally {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> problems;

  void Fail(size_t count, const std::string& what) {
    if (count == 0) return;
    failed += count;
    problems.push_back(std::to_string(count) + " " + what);
  }

  /// Counts a pass's calls and checks its results against the reference.
  void CheckPass(const PassResult& pass, const std::vector<Outcome>& reference,
                 const std::string& label) {
    attempted += pass.attempted;
    if (!pass.error.empty()) problems.push_back(label + ": " + pass.error);
    Fail(pass.errors, label + ": failed engine calls");
    Fail(pass.rejected, label + ": rejected posts");
    Fail(CountAborted(pass.outcomes), label + ": aborted sessions");
    Fail(CountMismatches(reference, pass.outcomes),
         label + ": results that differ from the sequential reference");
  }
};

/// The timed set-up, repeated; every repeat must train the same model.
struct Setup {
  std::unique_ptr<Model> model;
  std::vector<double> seconds;
  std::vector<double> train_s;
  std::vector<double> publish_us;
};

Setup RunSetup(const WorkloadSpec& spec, Tally* tally) {
  Setup setup;
  const int64_t start = NowNs();
  for (size_t r = 0; r < kMaxSetups; ++r) {
    if (r >= kMinSetups && NsToS(NowNs() - start) >= kMinSetupSeconds) break;
    const uint64_t previous =
        setup.model ? setup.model->registry.Latest()->fingerprint() : 0;
    setup.model.reset();
    const int64_t t0 = NowNs();
    setup.model = BuildModel(spec);
    setup.seconds.push_back(NsToS(NowNs() - t0));
    setup.train_s.push_back(setup.model->train_s);
    setup.publish_us.push_back(setup.model->publish_us);
    if (r > 0 && setup.model->registry.Latest()->fingerprint() != previous) {
      tally->Fail(1, "set-ups that trained a different model");
    }
  }
  return setup;
}

/// Medians over the untraced passes.
struct Summary {
  double sessions_per_s = 0.0;
  double latency_mean_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  size_t latency_samples = 0;
  double cpu_us_per_answer = 0.0;
  double peak_heap_mb = 0.0;
  double recover_s = 0.0;  ///< durable restart only
  size_t rejected = 0;
};

// Per-pass statistics, then the median over passes: one pass disturbed by a
// neighbour on the host does not move the run's figure. The mean, not the
// median, is the central latency figure: under lock-step load every answer
// of a tick waits for that tick, so the distribution is a staircase of tick
// durations and its median jumps between steps from pass to pass.
Summary Summarize(const std::vector<PassResult>& passes) {
  std::vector<double> sessions_per_s, mean, p50, p99, cpu, heap, recover;
  Summary summary;
  for (const PassResult& pass : passes) {
    std::vector<double> latency = pass.latency_ms;
    mean.push_back(Mean(latency));
    p50.push_back(Quantile(latency, 0.5));
    p99.push_back(Quantile(latency, 0.99));
    summary.latency_samples += latency.size();
    sessions_per_s.push_back(pass.sessions_per_s);
    cpu.push_back(pass.cpu_s * 1e6 / static_cast<double>(pass.posted));
    heap.push_back(pass.peak_heap_mb);
    recover.push_back(pass.recover_s);
    summary.rejected += pass.rejected;
    std::fprintf(stderr,
                 "  pass: %.6g sessions/s, latency mean %.4f ms p50 %.4f ms "
                 "p99 %.4f ms (%zu samples), recover %.4f s\n",
                 pass.sessions_per_s, mean.back(), p50.back(), p99.back(),
                 latency.size(), pass.recover_s);
  }
  summary.sessions_per_s = Median(sessions_per_s);
  summary.latency_mean_ms = Median(mean);
  summary.latency_p50_ms = Median(p50);
  summary.latency_p99_ms = Median(p99);
  summary.cpu_us_per_answer = Median(cpu);
  summary.peak_heap_mb = Median(heap);
  summary.recover_s = Median(recover);
  return summary;
}

double PerItem(double total, size_t count) {
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// The traced run's per-layer split: one engine pass with spans around
/// every public call, then the protocol replay for the layers below serve.
std::vector<Metric> TracedMetrics(const WorkloadSpec& spec, Model& model,
                                  const Inputs& inputs, const Args& args,
                                  const std::vector<int>& worker_cpus,
                                  const std::vector<Outcome>& reference,
                                  const Setup& setup, const Summary& untraced,
                                  Tally* tally) {
  std::vector<std::unique_ptr<SpanLog>> owned;
  std::vector<SpanLog*> logs;
  for (size_t t = 0; t <= kShards; ++t) {
    owned.push_back(std::make_unique<SpanLog>(spec.sessions * 32));
    logs.push_back(owned.back().get());
  }
  const PassResult traced =
      ServePass(spec, model, inputs, args.workdir, worker_cpus, logs).Run();
  tally->CheckPass(traced, reference, "traced pass");
  const std::vector<const SpanLog*> spans(logs.begin(), logs.end());
  // Beside the per-run directory, which is removed after the run.
  const std::string spans_path =
      (std::filesystem::path(args.workdir).parent_path() /
       (std::string(spec.name) + "_seed" + std::to_string(args.seed) +
        "_spans.csv"))
          .string();
  if (!WriteSpansCsv(spans_path, spans)) tally->Fail(1, "span file writes");
  std::fprintf(stderr, "spans written to %s\n", spans_path.c_str());

  const ReplayStats replay = Replay(spec, model, inputs, args.workdir);
  tally->attempted += replay.post_answers;
  tally->Fail(CountMismatches(reference, replay.outcomes),
              "replayed results that differ from the reference");
  if (!replay.durability_ok) tally->Fail(1, "replay durability failures");

  std::vector<double> post_us = SpanDurationsUs(spans, SpanName::kTryPostAnswer);
  std::vector<double> sync_us = replay.sync_us;
  const double traced_latency_ms = Mean(traced.latency_ms);
  // core.scheduler's own cost is what untraced serving spends per answer
  // beyond the CPU of the layer calls the replay times. A difference of two
  // measurements, it can read below 0 where the true overhead is small.
  const double overhead_us =
      untraced.cpu_us_per_answer -
      PerItem(replay.LayerCpuUs(), replay.post_answers);
  std::printf("  traced pass (tracing overhead): %.6g sessions/s = %.4fx the "
              "untraced median, mean latency %.4f ms = %.4fx\n",
              traced.sessions_per_s,
              traced.sessions_per_s / untraced.sessions_per_s,
              traced_latency_ms, traced_latency_ms / untraced.latency_mean_ms);
  if (spec.mode != Mode::kDurableRestart) {
    // The output carries every per-layer metric; these read 0 here because
    // their layer does not run, not because it is free.
    std::printf("  core.wal.*: not applicable, the workload serves without "
                "durability (reported as 0)\n");
  }
  return {
      {"serve.add_us", Mean(SpanDurationsUs(spans, SpanName::kAdd)), "us"},
      {"serve.post_us_p50", Quantile(post_us, 0.5), "us"},
      {"serve.post_us_p99", Quantile(post_us, 0.99), "us"},
      {"serve.post_rejected",
       static_cast<double>(untraced.rejected + traced.rejected), "count"},
      {"serve.deliveries_per_answer",
       PerItem(static_cast<double>(traced.deliveries), traced.posted), "ratio"},
      {"serve.cpu_us_per_answer", untraced.cpu_us_per_answer, "us"},
      {"core.scheduler.overhead_us_per_answer", overhead_us, "us"},
      {"core.wal.sync_us_p50", Quantile(sync_us, 0.5), "us"},
      {"core.wal.sync_us_p99", Quantile(sync_us, 0.99), "us"},
      {"core.wal.answers_per_sync",
       PerItem(static_cast<double>(replay.wal_answers), replay.sync_us.size()),
       "count"},
      {"core.wal.bytes_per_answer", PerItem(replay.wal_bytes, replay.wal_answers),
       "bytes"},
      {"core.snapshot.checkpoint_us", Mean(replay.checkpoint_us), "us"},
      {"core.snapshot.bytes_per_session",
       PerItem(replay.checkpoint_bytes, replay.checkpointed_sessions), "bytes"},
      {"core.snapshot.restore_us_per_session",
       PerItem(replay.restore_us, replay.restores), "us"},
      {"nn.score_calls", static_cast<double>(replay.score_calls), "count"},
      {"nn.rows_per_call",
       PerItem(static_cast<double>(replay.score_rows), replay.score_calls),
       "count"},
      {"nn.score_us_per_row", PerItem(replay.score_us, replay.score_rows), "us"},
      {"nn.publish_us", Median(setup.publish_us), "us"},
      {"core.session.start_us", PerItem(replay.start_us, replay.starts), "us"},
      {"core.session.post_answer_us",
       PerItem(replay.post_answer_us, replay.post_answers), "us"},
      {"core.session.next_question_us",
       PerItem(replay.next_question_us, replay.next_questions), "us"},
      {"core.session.resident_bytes", replay.heap_bytes_per_session, "bytes"},
      {"rl.train_s", Median(setup.train_s), "s"},
      {"trace.sessions_per_s_ratio",
       traced.sessions_per_s / untraced.sessions_per_s, "ratio"},
      {"trace.latency_mean_ratio", traced_latency_ms / untraced.latency_mean_ms,
       "ratio"},
  };
}

void PrintJson(bool correct, size_t attempted, size_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.workdir.c_str());
    return 1;
  }

  // One CPU for the main thread (set-up, reference, admission, takes)
  // and one per shard worker, when the host has them.
  std::vector<int> worker_cpus;
  const std::vector<int> cpus = AllowedCpus();
  if (cpus.size() > kShards && PinThread(0, cpus[0])) {
    worker_cpus.assign(cpus.begin() + 1, cpus.begin() + 1 + kShards);
  }

  Tally tally;
  const Setup setup = RunSetup(*spec, &tally);
  Model& model = *setup.model;
  const Inputs inputs = MakeInputs(*spec, args.seed);
  const int64_t ref0 = NowNs();
  const std::vector<Outcome> reference =
      Reference(*spec, model, inputs, worker_cpus);
  std::fprintf(stderr, "%s: set-up %.3f s (median of %zu), reference %.3f s\n",
               spec->name, Median(setup.seconds), setup.seconds.size(),
               NsToS(NowNs() - ref0));

  // Untraced serving passes.
  const double budget_s = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<PassResult> passes;
  const int64_t serve0 = NowNs();
  do {
    passes.push_back(
        ServePass(*spec, model, inputs, args.workdir, worker_cpus, {}).Run());
  } while (NsToS(NowNs() - serve0) < budget_s);
  for (const PassResult& pass : passes) tally.CheckPass(pass, reference, "pass");
  const Summary summary = Summarize(passes);

  double recover_s = summary.recover_s;
  if (spec->mode == Mode::kDurableRestart) {
    // The population served with a restart must equal the same population
    // served without one.
    WorkloadSpec uninterrupted = *spec;
    uninterrupted.mode = Mode::kLockstep;
    const PassResult plain =
        ServePass(uninterrupted, model, inputs, args.workdir, worker_cpus, {})
            .Run();
    tally.CheckPass(plain, reference, "uninterrupted pass");
    tally.Fail(CountMismatches(plain.outcomes, passes.back().outcomes),
               "results that differ between the restarted and the "
               "uninterrupted pass");
  } else {
    recover_s = RestartProbe(*spec, model, inputs, args.workdir);
    ++tally.attempted;
    if (recover_s < 0.0) tally.Fail(1, "failed restart probes");
  }

  const double mean_questions = MeanRounds(reference);
  for (const PassResult& pass : passes) {
    if (MeanRounds(pass.outcomes) != mean_questions) {
      tally.Fail(1, "passes whose mean_questions differs from the reference");
    }
  }
  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = TracedMetrics(*spec, model, inputs, args, worker_cpus, reference,
                            setup, summary, &tally);
  } else {
    metrics = {
        {"setup_s", Median(setup.seconds), "s"},
        {"sessions_per_s", summary.sessions_per_s, "1/s"},
        {"answer_latency_mean_ms", summary.latency_mean_ms, "ms"},
        {"answer_latency_p99_ms", summary.latency_p99_ms, "ms"},
        {"recover_s", recover_s, "s"},
        {"mean_questions", mean_questions, "count"},
        {"peak_heap_mb", summary.peak_heap_mb, "MiB"},
    };
  }

  std::printf("workload %s seed %llu: %zu sessions, %zu untraced pass(es)\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              spec->sessions, passes.size());
  std::printf("  answer latency: %zu samples; median over passes of mean "
              "%.4f ms, p50 %.4f ms, p99 %.4f ms\n",
              summary.latency_samples, summary.latency_mean_ms,
              summary.latency_p50_ms, summary.latency_p99_ms);
  std::printf("  memory: peak heap in use %.2f MiB (median over passes), peak "
              "RSS %.2f MiB\n",
              summary.peak_heap_mb, PeakRssMb());
  std::printf("  error_rate %.6g (%zu failed of %zu attempted)\n",
              PerItem(static_cast<double>(tally.failed), tally.attempted),
              tally.failed, tally.attempted);
  for (const std::string& p : tally.problems) {
    std::printf("  problem: %s\n", p.c_str());
  }
  PrintJson(tally.failed == 0,
            std::max<size_t>(tally.attempted, 1), tally.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
