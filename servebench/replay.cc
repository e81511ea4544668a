#include "replay.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "common/matrix.h"
#include "core/scheduler.h"
#include "core/snapshot.h"
#include "nn/registry.h"
#include "trace.h"
#include "user/user.h"

namespace servebench {

using isrl::Answer;
using isrl::InteractionSession;
using isrl::SessionQuestion;

double ReplayStats::LayerCpuUs() const {
  return start_us + post_answer_us + next_question_us + scoring_protocol_us +
         score_us + file_cpu_us;
}

namespace {

double FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

class ReplayEngine {
 public:
  ReplayEngine(const WorkloadSpec& spec, Model& model, const Inputs& inputs,
               const std::string& workdir, ReplayStats* stats)
      : spec_(spec), model_(model), inputs_(inputs), stats_(*stats) {
    for (size_t k = 0; k < kShards; ++k) {
      shards_[k].path = workdir + "/replay.shard" + std::to_string(k);
    }
  }

  void Run() {
    Admit();
    if (!durable()) ProbeRestart();
    RunLockstep();
    stats_.outcomes.resize(slots_.size());
    for (size_t id = 0; id < slots_.size(); ++id) {
      stats_.outcomes[id] = slots_[id].outcome;
    }
  }

 private:
  struct Slot {
    std::unique_ptr<InteractionSession> session;
    std::unique_ptr<isrl::UserOracle> user;
    bool runnable = true;
    bool finished = false;
    bool parked = false;
    size_t answered = 0;
    SessionQuestion question;
    Outcome outcome;
  };

  struct Shard {
    std::vector<size_t> ids;  ///< global session ids, in id order
    isrl::SessionStore store;
    std::string path;
    size_t ticks = 0;
    std::vector<std::pair<size_t, Answer>> batch;  ///< answers to apply
  };

  bool durable() const { return spec_.mode == Mode::kDurableRestart; }

  void Admit() {
    const size_t n = spec_.sessions;
    slots_.resize(n);
    const double heap_before = HeapBytesInUse();
    for (size_t id = 0; id < n; ++id) {
      const isrl::SessionConfig config =
          MakeSessionConfig(spec_, model_, inputs_, id);
      const int64_t t0 = NowNs();
      slots_[id].session = model_.clones[id % kShards]->StartSession(config);
      stats_.start_us += NsToUs(NowNs() - t0);
      shards_[id % kShards].ids.push_back(id);
    }
    stats_.starts += n;
    stats_.heap_bytes_per_session =
        (HeapBytesInUse() - heap_before) / static_cast<double>(n);
    for (size_t id = 0; id < n; ++id) {
      slots_[id].user =
          std::make_unique<isrl::LinearUser>(inputs_.utilities[id]);
    }
    if (durable()) {
      for (size_t k = 0; k < kShards; ++k) Checkpoint(k);
    }
  }

  /// Write-ahead logs the shard's pending answers (durable workload), then
  /// applies them; every answered session becomes runnable.
  void Apply(size_t k) {
    Shard& shard = shards_[k];
    if (shard.batch.empty()) return;
    if (durable()) {
      for (const auto& [id, answer] : shard.batch) {
        shard.store.LogAnswer(id / kShards, answer);
      }
      const double bytes_before = FileBytes(shard.path);
      const int64_t t0 = NowNs();
      const int64_t cpu0 = ThreadCpuNs();
      const isrl::Status synced = shard.store.SyncFile(shard.path);
      stats_.file_cpu_us += NsToUs(ThreadCpuNs() - cpu0);
      stats_.sync_us.push_back(NsToUs(NowNs() - t0));
      if (!synced.ok()) stats_.durability_ok = false;
      stats_.wal_answers += shard.batch.size();
      stats_.wal_bytes += FileBytes(shard.path) - bytes_before;
    }
    for (const auto& [id, answer] : shard.batch) {
      Slot& slot = slots_[id];
      const int64_t t0 = NowNs();
      slot.session->PostAnswer(answer);
      stats_.post_answer_us += NsToUs(NowNs() - t0);
      ++stats_.post_answers;
      ++slot.answered;
      slot.runnable = true;
    }
    shard.batch.clear();
  }

  /// One scheduler tick over `runnable` (ascending ids of one shard):
  /// coalesced scoring per pinned snapshot, then NextQuestion per session.
  /// Returns the ids that now await an answer.
  std::vector<size_t> Tick(const std::vector<size_t>& runnable) {
    struct Group {
      const isrl::nn::ModelSnapshot* model;
      std::vector<double> rows;
      size_t cols = 0;
      std::vector<std::pair<size_t, size_t>> members;
    };
    std::vector<Group> groups;
    for (size_t id : runnable) {
      InteractionSession& session = *slots_[id].session;
      const int64_t t0 = NowNs();
      const isrl::Matrix* features = session.PendingCandidateFeatures();
      const isrl::nn::ModelSnapshot* snapshot = session.ScoringModel();
      stats_.scoring_protocol_us += NsToUs(NowNs() - t0);
      if (features == nullptr || snapshot == nullptr || features->rows() == 0) {
        continue;
      }
      auto it = std::find_if(groups.begin(), groups.end(),
                             [&](const Group& g) { return g.model == snapshot; });
      if (it == groups.end()) {
        groups.push_back(Group{snapshot, {}, features->cols(), {}});
        it = groups.end() - 1;
      }
      const double* flat = features->row(0);
      it->rows.insert(it->rows.end(), flat,
                      flat + features->rows() * features->cols());
      it->members.emplace_back(id, features->rows());
    }
    for (Group& group : groups) {
      const size_t total = group.rows.size() / group.cols;
      isrl::Matrix batch(total, group.cols, std::move(group.rows));
      const int64_t t0 = NowNs();
      const isrl::Vec scores = group.model->Score(batch);
      stats_.score_us += NsToUs(NowNs() - t0);
      ++stats_.score_calls;
      stats_.score_rows += total;
      size_t offset = 0;
      for (const auto& [id, count] : group.members) {
        const int64_t t1 = NowNs();
        slots_[id].session->PostCandidateScores(scores.raw() + offset, count);
        stats_.scoring_protocol_us += NsToUs(NowNs() - t1);
        offset += count;
      }
    }
    std::vector<size_t> fresh;
    for (size_t id : runnable) {
      Slot& slot = slots_[id];
      const int64_t t0 = NowNs();
      std::optional<SessionQuestion> question = slot.session->NextQuestion();
      stats_.next_question_us += NsToUs(NowNs() - t0);
      ++stats_.next_questions;
      slot.runnable = false;
      if (question.has_value()) {
        slot.question = std::move(*question);
        fresh.push_back(id);
      } else {
        slot.finished = true;
        slot.outcome = OutcomeOf(slot.session->Finish());
      }
    }
    return fresh;
  }

  /// Saves every session of shard `k` and starts a new store epoch with
  /// them, as the engine's per-shard checkpoint does.
  void Checkpoint(size_t k) {
    Shard& shard = shards_[k];
    const int64_t t0 = NowNs();
    const int64_t cpu0 = ThreadCpuNs();
    isrl::snapshot::Writer population;
    population.U64(shard.ids.size());
    for (size_t id : shard.ids) {
      isrl::Result<std::string> state = slots_[id].session->SaveState();
      if (!state.ok()) {
        stats_.durability_ok = false;
        population.Str(std::string());
        continue;
      }
      stats_.checkpoint_bytes += static_cast<double>(state.value().size());
      population.Str(state.value());
    }
    shard.store.BeginEpoch(population.Take());
    if (!shard.store.SyncFile(shard.path).ok()) stats_.durability_ok = false;
    if (durable()) stats_.file_cpu_us += NsToUs(ThreadCpuNs() - cpu0);
    stats_.checkpoint_us.push_back(NsToUs(NowNs() - t0));
    stats_.checkpointed_sessions += shard.ids.size();
    shard.ticks = 0;
  }

  /// Reloads shard k's store file into `store` and reopens every session
  /// of the shard from its checkpoint. Returns the sessions by local id;
  /// one that could not be reopened is null.
  std::vector<std::unique_ptr<InteractionSession>> Reopen(
      size_t k, isrl::nn::ModelReplicaCache& cache, isrl::SessionStore* store) {
    const Shard& shard = shards_[k];
    std::vector<std::unique_ptr<InteractionSession>> sessions(shard.ids.size());
    isrl::Result<isrl::SessionStore> loaded =
        isrl::SessionStore::LoadFile(shard.path);
    if (!loaded.ok()) {
      stats_.durability_ok = false;
      return sessions;
    }
    *store = std::move(loaded.value());
    isrl::snapshot::Reader population(store->population());
    const uint64_t count = population.U64();
    if (count != shard.ids.size()) stats_.durability_ok = false;
    isrl::SessionConfig config;
    if (spec_.pinned) config.models = &cache;
    for (size_t local = 0; local < sessions.size() && local < count; ++local) {
      isrl::Result<std::unique_ptr<InteractionSession>> restored =
          model_.clones[k]->RestoreSession(population.Str(), config);
      if (!restored.ok()) {
        stats_.durability_ok = false;
        continue;
      }
      sessions[local] = std::move(restored.value());
    }
    return sessions;
  }

  /// The planned restart: every shard reloads its store file, reopens each
  /// session from its checkpoint, and replays the logged answers.
  void Restart() {
    for (size_t k = 0; k < kShards; ++k) {
      Shard& shard = shards_[k];
      isrl::nn::ModelReplicaCache cache(&model_.registry);
      const int64_t t0 = NowNs();
      const int64_t cpu0 = ThreadCpuNs();
      isrl::SessionStore store;
      std::vector<std::unique_ptr<InteractionSession>> sessions =
          Reopen(k, cache, &store);
      for (size_t local = 0; local < sessions.size(); ++local) {
        if (sessions[local] != nullptr) {
          slots_[shard.ids[local]].session = std::move(sessions[local]);
        }
      }
      for (const isrl::WalRecord& record : store.wal()) {
        InteractionSession& session =
            *slots_[shard.ids[record.session_id]].session;
        (void)session.NextQuestion();
        session.PostAnswer(record.answer);
      }
      stats_.file_cpu_us += NsToUs(ThreadCpuNs() - cpu0);
      stats_.restore_us += NsToUs(NowNs() - t0);
      stats_.restores += shard.ids.size();
      shard.store = isrl::SessionStore();
    }
    for (Slot& slot : slots_) {
      slot.parked = false;
      slot.finished = slot.session->Finished();
      slot.runnable = !slot.finished;
      if (slot.finished) slot.outcome = OutcomeOf(slot.session->Finish());
    }
    for (size_t k = 0; k < kShards; ++k) Checkpoint(k);
  }

  /// The restart probe's layers on the admitted population, as the engine
  /// runs them in EnableDurability and Recover: a checkpoint of every shard,
  /// then every session reopened from it. The reopened copies are dropped;
  /// serving goes on with the admitted sessions.
  void ProbeRestart() {
    for (size_t k = 0; k < kShards; ++k) Checkpoint(k);
    for (size_t k = 0; k < kShards; ++k) {
      isrl::nn::ModelReplicaCache cache(&model_.registry);
      const int64_t t0 = NowNs();
      isrl::SessionStore store;
      const std::vector<std::unique_ptr<InteractionSession>> sessions =
          Reopen(k, cache, &store);
      stats_.restore_us += NsToUs(NowNs() - t0);
      stats_.restores += sessions.size();
    }
  }

  void RunLockstep() {
    const bool restart = durable();
    bool restarted = false;
    while (true) {
      bool any_active = false;
      for (size_t k = 0; k < kShards; ++k) {
        Apply(k);
        std::vector<size_t> runnable;
        for (size_t id : shards_[k].ids) {
          if (slots_[id].runnable && !slots_[id].finished) {
            runnable.push_back(id);
          }
        }
        const std::vector<size_t> fresh = Tick(runnable);
        if (durable() && ++shards_[k].ticks >= kCheckpointEveryTicks) {
          Checkpoint(k);
        }
        for (size_t id : fresh) {
          Slot& slot = slots_[id];
          if (restart && !restarted &&
              slot.answered >= kAnswersBeforeRestart) {
            slot.parked = true;
            continue;
          }
          shards_[k].batch.emplace_back(
              id, slot.user->Ask(slot.question.first, slot.question.second));
        }
        for (size_t id : shards_[k].ids) {
          if (!slots_[id].finished) any_active = true;
        }
      }
      if (!any_active) break;
      if (restart && !restarted &&
          std::all_of(slots_.begin(), slots_.end(), [](const Slot& s) {
            return s.parked || s.finished;
          })) {
        Restart();
        restarted = true;
      }
    }
  }

  const WorkloadSpec& spec_;
  Model& model_;
  const Inputs& inputs_;
  ReplayStats& stats_;
  std::vector<Slot> slots_;
  Shard shards_[kShards];
};

}  // namespace

ReplayStats Replay(const WorkloadSpec& spec, Model& model,
                   const Inputs& inputs, const std::string& workdir) {
  ReplayStats stats;
  ReplayEngine(spec, model, inputs, workdir, &stats).Run();
  return stats;
}

}  // namespace servebench
