#ifndef XMLAC_SERVE_SERVER_H_
#define XMLAC_SERVE_SERVER_H_

// Concurrent access-control service in front of the engine.
//
// Architecture (docs/serving.md has the full design):
//
//   clients ──SubmitQuery──▶ [bounded read queue] ──▶ worker pool ──▶
//                                       wait-free snapshot reads
//   clients ──SubmitUpdate─▶ [bounded write queue] ─▶ writer thread ──▶
//             batch coalescing ▶ one Trigger/Reannotate ▶ publish snapshot
//
// Readers resolve requests against an immutable shared_ptr snapshot of
// every subject's annotated document (epoch-style publication: one
// pointer-copy handoff per request — see SnapshotSlot — after which the
// read touches no shared mutable state).  A single writer thread
// drains all pending updates from the write queue, applies them as ONE
// engine batch (union trigger set, one partial re-annotation per subject)
// and publishes a single new snapshot per batch — amortizing the paper's
// dominant cost, re-annotation, across concurrent update requests.
//
// Lifecycle: configure (Load, AddSubject) → Start → Submit*/sync wrappers
// from any number of threads → Stop (drains both queues, joins threads).
// Submissions are also allowed before Start — they queue up and are served
// once the server starts, which tests and benchmarks use to make batch
// coalescing deterministic.
//
// Observability: the server owns one MetricsRegistry shared by all of its
// threads.  Each worker and the writer install it as the thread-local
// metrics context around every request, so the deep-layer instrumentation
// that AccessController would install on the caller's thread keeps flowing
// on pool threads instead of silently dropping; spans reach the flight
// recorder through each thread's ring.  New serve.* metric names are cataloged in docs/serving.md.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "engine/access_controller.h"
#include "engine/multi_subject.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/ring.h"
#include "obs/trace.h"
#include "serve/queue.h"
#include "serve/snapshot.h"
#include "storage/wal.h"

namespace xmlac::serve {

// Durability configuration (docs/durability.md).  Off by default — set
// `data_dir` to make the server write-ahead log every committed batch and
// recover its state from the directory on Start().
struct DurabilityOptions {
  // Empty = durability disabled (pure in-memory serving, the default).
  std::string data_dir;
  storage::DurabilityLevel level = storage::DurabilityLevel::kFdatasync;
  size_t segment_bytes = 64u << 20;
  // Write a checkpoint (and truncate sealed WAL segments) every N committed
  // batches, on a background thread.  0 = never checkpoint automatically
  // (CheckpointNow() still works).
  size_t checkpoint_every = 0;
  // Crash-point fuzzing hooks, forwarded to WalOptions (serve_fuzz.h).
  int64_t crash_after_records = -1;
  size_t torn_tail_bytes = 0;
};

// The engine knobs (optimize_policies, enable_rule_cache, shard_*,
// parallel_subjects) are the fleet's MultiSubjectOptions, passed to it
// unchanged.  With the flight recorder on, ParallelFor pool workers running
// this server's fan-outs claim rings from a per-server WorkerRingPool so
// their spans land in the recorder too.
struct ServerOptions : engine::MultiSubjectOptions {
  size_t workers = 4;
  size_t read_queue_capacity = 1024;
  size_t write_queue_capacity = 1024;
  // Max updates coalesced into one re-annotation batch.  1 degenerates to
  // per-request re-annotation (the Cheney-style per-request enforcement
  // cost the batching exists to beat).
  size_t max_batch = 64;
  // Embed the shared store's published structural IndexVersion (one for
  // all subjects' views) in every snapshot, so reads evaluate through the
  // structural engine (the default).  False pins snapshot reads to the
  // naive evaluator — the baseline side of bench_serve_throughput's epoch
  // gate.
  bool snapshot_index = true;
  // Always-on flight recorder: each pool thread appends compact binary
  // events into a lock-free ring; a background drainer folds them into
  // per-class latency histograms and tail-sampled slow-request traces
  // (docs/observability.md, "Flight recorder").  Costs one ring append per
  // span/request on the hot path; CI gates the end-to-end overhead at 5%.
  bool flight_recorder = true;
  obs::RecorderOptions recorder;
  // How often the drainer thread empties the rings.  50ms keeps the
  // drainer's wakeups negligible even on single-core hosts while staying
  // well inside the rings' >100ms overwrite horizon; HealthSnapshot() and
  // DumpFlightRecorder() drain on demand, so freshness doesn't depend on
  // this cadence.
  size_t drain_interval_ms = 50;
  // Fault injection for the serve fuzzer's self-check: snapshot builds
  // catch recycled documents up without their kDelete replays
  // (SnapshotBuilder::set_inject_skip_delete).  Never set outside tests.
  bool inject_recycle_skip_delete = false;
  // Write-ahead logging + checkpoints + crash recovery.  When enabled the
  // writer thread appends one WAL record per coalesced batch and syncs it
  // BEFORE publishing the epoch, so an acked update is durable
  // (docs/durability.md).
  DurabilityOptions durability;
};

// What a client gets back for any submitted request.
struct ServeResponse {
  // Not-OK for malformed requests, unknown subjects, or engine failures.
  // Access denial is NOT an error: status is OK with granted == false.
  Status status = Status::OK();
  // Reads: the all-or-nothing outcome against the served snapshot.
  bool granted = false;
  size_t selected = 0;
  size_t accessible = 0;
  // Reads: epoch of the snapshot the answer was computed against.
  // Updates: epoch of the snapshot whose publication included this update.
  uint64_t epoch = 0;
  // Updates: how many requests were coalesced into the publishing batch,
  // and the size of the batch's union trigger set (summed over subjects).
  size_t batch_size = 0;
  size_t rules_triggered = 0;
};

// Point-in-time operational health of a server: the flight recorder's view
// (per-class latency distributions, ring drop accounting, retained traces)
// plus queue and epoch state read directly from the server.  Serializes to
// the flat "key value" format tools/xmlac_top tails via HealthText().
struct ServerHealth {
  uint64_t epoch = 0;
  // Newest epoch the drainer has seen published (0 until the first update
  // batch) and how far the recorder's view trails the live epoch.
  uint64_t recorder_epoch = 0;
  uint64_t epoch_lag = 0;
  size_t read_queue_depth = 0;
  size_t read_queue_watermark = 0;
  size_t write_queue_depth = 0;
  size_t write_queue_watermark = 0;
  // ParallelFor pool workers that found every recorder ring of the server's
  // WorkerRingPool busy and ran unrecorded (obs::WorkerRingPool::misses).
  // The pool holds one ring per pool worker, so anything but 0 is a bug.
  uint64_t worker_ring_pool_misses = 0;
  // Snapshot documents, by how each snapshot build obtained them
  // (SnapshotBuilder): caught up from a retired document, or cloned from
  // the store — with the clone's reason — plus caught-up documents that
  // failed the store check and were refused.  The serve.snapshot.* counters
  // of the server registry.
  struct SnapshotDocs {
    uint64_t recycled = 0;
    uint64_t cloned = 0;
    uint64_t cloned_pinned = 0;
    uint64_t cloned_lineage = 0;
    uint64_t cloned_default_sign = 0;
    uint64_t cloned_journal_window = 0;
    uint64_t recycle_mismatch = 0;
  } snapshot_docs;
  obs::RecorderHealth recorder;
};

// ServerHealth in the flat "key value" line format ("serve.health.*" plus
// the recorder's "obs.*"/"latency.*"/"queue.*" keys).
std::string HealthText(const ServerHealth& health);

class Server {
 public:
  explicit Server(ServerOptions options = ServerOptions());
  ~Server();  // Stop()s if still running.

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // --- Configuration (before Start) --------------------------------------
  Status Load(std::string_view dtd_text, std::string_view xml_text);
  Status LoadParsed(const xml::Dtd& dtd, const xml::Document& doc);
  Status AddSubject(std::string_view subject, std::string_view policy_text);

  // Publishes the initial snapshot (epoch 1) and spawns the worker pool
  // and the writer thread.  With durability configured, first recovers any
  // state in data_dir (superseding Load/AddSubject configuration when
  // found) and opens the WAL; the initial snapshot resumes at the
  // recovered epoch.
  Status Start();

  // Closes both queues, drains pending requests and joins all threads.
  // Every submitted future completes.  Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // --- Requests (any thread) ----------------------------------------------
  // Futures always complete: with a served response, or with a not-OK
  // status if the request was rejected (parse error, server stopped).
  std::future<ServeResponse> SubmitQuery(std::string_view subject,
                                         std::string_view xpath);
  std::future<ServeResponse> SubmitUpdate(std::string_view xpath);
  std::future<ServeResponse> SubmitInsert(std::string_view target_xpath,
                                          std::string_view fragment_xml);

  // Closed-loop conveniences.
  ServeResponse Query(std::string_view subject, std::string_view xpath) {
    return SubmitQuery(subject, xpath).get();
  }
  ServeResponse Update(std::string_view xpath) {
    return SubmitUpdate(xpath).get();
  }
  ServeResponse Insert(std::string_view target_xpath,
                       std::string_view fragment_xml) {
    return SubmitInsert(target_xpath, fragment_xml).get();
  }

  // --- Introspection -------------------------------------------------------
  // The currently published snapshot (never null after Start).  Holding the
  // returned pointer pins that epoch's documents for as long as the caller
  // likes; the writer publishing newer epochs never mutates it.
  SnapshotPtr CurrentSnapshot() const { return snapshot_.load(); }
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  size_t worker_count() const { return options_.workers; }
  const ServerOptions& options() const { return options_; }

  // Server-level metrics (serve.* series plus everything the pool threads
  // report through the thread-local obs context).
  obs::MetricsRegistry& metrics() { return metrics_; }
  obs::MetricsSnapshot SnapshotMetrics() const { return metrics_.Snapshot(); }

  // One subject's engine metrics (annotator.*, trigger.* — the per-subject
  // registries AccessController installs around engine operations).  Safe
  // at any time; registries are thread-safe.  NotFound for unknown names.
  Result<obs::MetricsSnapshot> SubjectMetrics(std::string_view subject);

  // Operational health: queue depths and watermarks, epoch lag, ring drop
  // counts, per-class latency percentiles.  Forces a recorder drain first,
  // so the answer reflects every event already appended (epoch_lag == 0 on
  // a quiesced server).  Safe from any thread; works (with zeroed recorder
  // fields) when the flight recorder is disabled.
  ServerHealth HealthSnapshot();

  // Dumps the flight recorder (trace.json + health.txt) into `dir`.
  // Internal error when the recorder is disabled.
  Status DumpFlightRecorder(const std::string& dir);

  // Null when options().flight_recorder is false.
  obs::FlightRecorder* flight_recorder() { return recorder_.get(); }

  std::vector<std::string> SubjectNames() const {
    return controller_.SubjectNames();
  }

  // --- Durability ----------------------------------------------------------
  // True when Start() re-materialized state from data_dir instead of using
  // the Load/AddSubject configuration.
  bool recovered() const { return recovered_; }

  // Synchronously writes a checkpoint of the current committed state and
  // truncates WAL segments it covers.  The job is captured on the writer
  // thread (via a write-queue barrier) so it never races ApplyBatch, and
  // the checkpoint write itself is serialized against the background
  // checkpointer.  Internal error when durability is disabled, the server
  // has not started, or the WAL has crashed (post-crash in-memory state
  // was already reported non-durable and must not be persisted).
  Status CheckpointNow();

  // Null when durability is disabled or the server has not started.
  storage::Wal* wal() { return wal_.get(); }

 private:
  struct ReadTask {
    std::string subject;
    xpath::Path query;
    Timer queued;
    std::promise<ServeResponse> done;
  };

  // A checkpoint job: everything the background checkpointer needs without
  // touching live engine state — the committed document and each subject's
  // sign state, captured on the writer thread.
  struct CheckpointJob {
    uint64_t epoch = 0;
    uint64_t rule_cache_epoch = 0;
    xml::Document document;
    std::vector<std::pair<std::string, engine::SubjectSigns>> subjects;
  };

  struct WriteTask {
    engine::BatchOp op;
    Timer queued;
    std::promise<ServeResponse> done;
    // When set, the task is a CheckpointNow barrier instead of an update:
    // the writer thread captures a CheckpointJob after applying the batch's
    // ops (so the capture never races the engine) and fulfills the promise.
    std::shared_ptr<std::promise<Result<CheckpointJob>>> checkpoint;
  };

  void WorkerLoop(size_t worker_index);
  void WriterLoop();
  void DrainerLoop();
  void CheckpointerLoop();

  // Recovery + WAL open; sets recovered_/loaded_ when durable state exists.
  Status OpenDurability();
  // Appends + syncs the genesis install record (fresh directories only).
  Status AppendGenesisRecord();
  // Builds and atomically writes the checkpoint for `job`, then truncates
  // covered WAL segments.
  Status BuildAndWriteCheckpoint(CheckpointJob job);
  // Hands the current state to the checkpointer thread (newest wins).
  void ScheduleCheckpoint();
  // Writer thread only: the engine must not be mid-batch.
  Result<CheckpointJob> MakeCheckpointJob();
  // `name`'s WAL/checkpoint record: its retained policy text plus `signs`.
  Result<storage::SubjectState> DurableSubject(
      const std::string& name, engine::SubjectSigns signs) const;

  ServerOptions options_;
  engine::MultiSubjectController controller_;
  bool loaded_ = false;
  bool started_ = false;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopped_{false};

  // Writer thread only (Start builds the first snapshot before the writer
  // exists).  Declared before snapshot_, so the published snapshot is
  // dropped first and its documents go back to a still-open pool.
  SnapshotBuilder snapshots_;
  SnapshotSlot snapshot_;
  std::atomic<uint64_t> epoch_{0};

  BoundedQueue<ReadTask> read_queue_;
  BoundedQueue<WriteTask> write_queue_;
  std::vector<std::thread> workers_;
  std::thread writer_;

  obs::MetricsRegistry metrics_;

  // Flight recorder: one ring per worker, then one for the writer, drained
  // by drainer_ every drain_interval_ms.  Null/empty when disabled.
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::vector<obs::EventRing*> rings_;
  // Ring pool for ParallelFor pool workers, one "parallel-N" ring per pool
  // worker: a worker claims a ring for each ticket of this server's
  // fan-outs it runs, so shard-span events reach the recorder without
  // breaking SPSC.
  std::unique_ptr<obs::WorkerRingPool> worker_ring_pool_;
  std::thread drainer_;
  std::mutex drainer_mu_;
  std::condition_variable drainer_cv_;
  bool drainer_stop_ = false;

  // --- Durability ----------------------------------------------------------
  std::unique_ptr<storage::Wal> wal_;
  // Retained configuration sources, for genesis/checkpoint records: the
  // DTD's text form and each subject's policy text (only mutated before
  // Start, read-only afterwards — safe from the checkpointer thread).
  std::string dtd_text_;
  std::map<std::string, std::string, std::less<>> policies_;
  bool recovered_ = false;
  uint64_t recovered_epoch_ = 0;
  size_t batches_since_checkpoint_ = 0;  // writer thread only
  // Background checkpointer (drainer-style lifecycle); the pending slot
  // holds at most one job — a newer schedule replaces an unstarted older
  // one, since the newest checkpoint subsumes it.
  std::thread checkpointer_;
  std::mutex ckpt_mu_;
  std::condition_variable ckpt_cv_;
  bool ckpt_stop_ = false;
  std::optional<CheckpointJob> pending_ckpt_;
  // Serializes BuildAndWriteCheckpoint between the background checkpointer
  // and CheckpointNow callers, so the write/remove-older/truncate sequence
  // of two checkpoints never interleaves.
  std::mutex ckpt_write_mu_;
};

}  // namespace xmlac::serve

#endif  // XMLAC_SERVE_SERVER_H_
