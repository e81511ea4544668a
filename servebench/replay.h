// Single-threaded replay of a workload's seeded sessions through the
// session protocol, without the serving engine.
//
// The engine's layers below `serve` (the Q-network, session planning and
// state encoding, the WAL and session snapshots) are only reachable through
// the InteractionSession protocol, so the traced run times them here, from
// the benchmark's own code: StartSession, then per tick
// PendingCandidateFeatures -> ModelSnapshot::Score (coalesced per shard and
// snapshot, as SessionScheduler does) -> PostCandidateScores ->
// NextQuestion, then PostAnswer. The durable-restart workload also logs
// each tick's answers to a SessionStore with SyncFile, checkpoints every
// session with SaveState every kCheckpointEveryTicks ticks, and at the
// planned restart reloads the store files and reopens every session with
// RestoreSession before replaying the logged answers. The other workloads
// serve without durability and measure restart downtime with a probe; the
// replay times that probe's layers once after admission: a checkpoint of
// every shard, then LoadFile and RestoreSession of each checkpointed session
// into copies that are dropped.
#ifndef ISRL_SERVEBENCH_REPLAY_H_
#define ISRL_SERVEBENCH_REPLAY_H_

#include <cstddef>
#include <string>
#include <vector>

#include "bench.h"

namespace servebench {

struct ReplayStats {
  std::vector<Outcome> outcomes;  ///< by session id

  // core.session
  double start_us = 0.0;  ///< summed StartSession time
  size_t starts = 0;
  double heap_bytes_per_session = 0.0;  ///< heap growth over admission
  double post_answer_us = 0.0;
  size_t post_answers = 0;
  double next_question_us = 0.0;
  size_t next_questions = 0;
  /// PendingCandidateFeatures + PostCandidateScores (protocol glue).
  double scoring_protocol_us = 0.0;

  // nn
  size_t score_calls = 0;
  size_t score_rows = 0;
  double score_us = 0.0;

  // core.wal (durable workload only)
  std::vector<double> sync_us;
  size_t wal_answers = 0;
  double wal_bytes = 0.0;

  // core.snapshot (durable workload, or the restart probe)
  std::vector<double> checkpoint_us;  ///< per shard checkpoint
  double checkpoint_bytes = 0.0;
  size_t checkpointed_sessions = 0;
  double restore_us = 0.0;
  size_t restores = 0;
  /// False if any SaveState, SyncFile, LoadFile or RestoreSession failed.
  bool durability_ok = true;

  /// Thread CPU time of the durable workload's file calls (syncs,
  /// checkpoints, restores), whose wall time also holds fsync waits. The
  /// restart probe's are left out: serving does not make them.
  double file_cpu_us = 0.0;

  /// CPU time of the layer calls serving makes: the compute-bound protocol
  /// calls by wall time (the replay runs them on one thread) plus
  /// file_cpu_us.
  double LayerCpuUs() const;
};

/// Replays the whole population of `spec` to completion. Durable files go
/// under `workdir`.
ReplayStats Replay(const WorkloadSpec& spec, Model& model,
                   const Inputs& inputs, const std::string& workdir);

}  // namespace servebench

#endif  // ISRL_SERVEBENCH_REPLAY_H_
