#include "serve/server.h"

#include <chrono>
#include <sstream>
#include <utility>

#include "common/io.h"
#include "common/parallel.h"
#include "engine/native_backend.h"
#include "obs/chrome_export.h"
#include "storage/checkpoint.h"
#include "storage/recovery.h"
#include "xml/dtd.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace xmlac::serve {

namespace {

std::future<ServeResponse> ReadyResponse(Status status) {
  std::promise<ServeResponse> done;
  std::future<ServeResponse> out = done.get_future();
  ServeResponse resp;
  resp.status = std::move(status);
  done.set_value(std::move(resp));
  return out;
}

Status StoppedError() { return Status::Internal("server stopped"); }

// The file in a data dir whose flock marks the dir as taken by a server.
constexpr char kDataDirLock[] = "LOCK";

// How often the drainer thread empties the flight-recorder rings.  50ms
// keeps the drainer's wakeups negligible even on single-core hosts while
// staying well inside the rings' >100ms overwrite horizon
// (obs::kRingCapacity); HealthSnapshot() and DumpFlightRecorder() drain on
// demand, so freshness doesn't depend on this cadence.
constexpr std::chrono::milliseconds kDrainInterval{50};

}  // namespace

Server::Server(ServerOptions options)
    : options_(options),
      controller_([] { return std::make_unique<engine::NativeXmlBackend>(); },
                  options),
      read_queue_(options.read_queue_capacity),
      write_queue_(options.write_queue_capacity) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.max_batch == 0) options_.max_batch = 1;
  snapshots_.set_inject_skip_delete(options_.inject_recycle_skip_delete);
}

Server::~Server() { Stop(); }

Status Server::Load(std::string_view dtd_text, std::string_view xml_text) {
  if (started_) return Status::Internal("Load must precede Start");
  XMLAC_RETURN_IF_ERROR(controller_.Load(dtd_text, xml_text));
  dtd_text_ = std::string(dtd_text);
  loaded_ = true;
  return Status::OK();
}

Status Server::LoadParsed(const xml::Dtd& dtd, const xml::Document& doc) {
  if (started_) return Status::Internal("Load must precede Start");
  XMLAC_RETURN_IF_ERROR(controller_.LoadParsed(dtd, doc));
  // No source text to retain; checkpoints get the DTD's canonical
  // serialization instead.
  dtd_text_ = xml::DtdToString(dtd);
  loaded_ = true;
  return Status::OK();
}

Status Server::AddSubject(std::string_view subject,
                          std::string_view policy_text) {
  if (started_) return Status::Internal("AddSubject must precede Start");
  XMLAC_RETURN_IF_ERROR(controller_.AddSubject(subject, policy_text));
  policies_[std::string(subject)] = std::string(policy_text);
  return Status::OK();
}

Status Server::OpenDurability() {
  const DurabilityOptions& d = options_.durability;
  XMLAC_RETURN_IF_ERROR(EnsureDirectory(d.data_dir));
  // One server per data dir: a second one would recover the first one's
  // state, then both would append to the WAL and checkpoint over each
  // other's acknowledged commits.  Held from here until Stop(); a refused
  // recovery or WAL open releases it on the way out.
  Result<FileLock> lock = FileLock::Acquire(d.data_dir + "/" + kDataDirLock);
  if (!lock.ok()) {
    if (lock.status().code() != StatusCode::kAlreadyExists) {
      return lock.status();
    }
    obs::IncrementCounter("serve.data_dir.locked");
    return Status::AlreadyExists("data dir '" + d.data_dir +
                                 "' is in use by another server: " +
                                 lock.status().message());
  }
  Result<storage::RecoveredState> recovered =
      storage::RecoverState(d.data_dir, &controller_);
  if (!recovered.ok()) {
    // Damaged durable state is never served as a prefix or replaced by a
    // fresh start: acknowledged commits would silently disappear.
    obs::IncrementCounter("serve.recovery.refused");
    return recovered.status();
  }
  if (recovered->found) {
    // Durable state supersedes whatever Load/AddSubject configured: the
    // directory is the source of truth for a restarted server.
    recovered_ = true;
    recovered_epoch_ = recovered->epoch;
    dtd_text_ = recovered->dtd_text;
    policies_.clear();
    for (auto& [name, text] : recovered->subject_policies) {
      policies_[name] = text;
    }
    loaded_ = true;
    obs::IncrementCounter("serve.recovery.runs");
    obs::IncrementCounter("serve.recovery.batches_replayed",
                          recovered->replayed_batches);
    obs::IncrementCounter("serve.recovery.checkpoints_skipped",
                          recovered->checkpoints_skipped);
  }
  storage::WalOptions wopt;
  wopt.dir = d.data_dir;
  wopt.level = d.level;
  wopt.segment_bytes = d.segment_bytes;
  wopt.crash_after_records = d.crash_after_records;
  wopt.torn_tail_bytes = d.torn_tail_bytes;
  XMLAC_ASSIGN_OR_RETURN(wal_, storage::Wal::Open(std::move(wopt)));
  data_dir_lock_ = std::move(*lock);
  return Status::OK();
}

Status Server::Start() {
  if (started_) return Status::Internal("already started");
  obs::ScopedMetrics metrics_context(&metrics_);
  if (!options_.durability.data_dir.empty()) {
    XMLAC_RETURN_IF_ERROR(OpenDurability());
  }
  if (!loaded_) return Status::Internal("no document loaded");
  if (wal_ != nullptr && !recovered_) {
    // Genesis: a fresh directory's base state is the epoch-1 checkpoint.
    // The writer thread does not exist yet, so the live document is
    // serialized in place, without a clone.
    XMLAC_ASSIGN_OR_RETURN(SubjectSignList signs, CaptureSigns());
    XMLAC_RETURN_IF_ERROR(WriteCheckpointOf(1, controller_.rule_cache().epoch(),
                                            controller_.document(),
                                            std::move(signs)));
  }
  const uint64_t initial_epoch = recovered_ ? recovered_epoch_ : 1;
  XMLAC_ASSIGN_OR_RETURN(SnapshotPtr initial,
                         snapshots_.Build(controller_, initial_epoch,
                                          options_.snapshot_index));
  snapshot_.store(std::move(initial));
  epoch_.store(initial_epoch, std::memory_order_release);
  obs::IncrementCounter("serve.snapshot.published");
  obs::SetGauge("serve.snapshot.epoch", static_cast<int64_t>(initial_epoch));
  started_ = true;
  running_.store(true, std::memory_order_release);
  if (options_.flight_recorder) {
    recorder_ = std::make_unique<obs::FlightRecorder>(options_.recorder);
    for (size_t i = 0; i < options_.workers; ++i) {
      rings_.push_back(recorder_->AddRing("worker-" + std::to_string(i)));
    }
    rings_.push_back(recorder_->AddRing("writer"));
    if (options_.shard_parallel) {
      // One ring per persistent ParallelFor pool worker: a pool worker
      // holds at most one ring at a time, so the pool never runs dry and a
      // miss in HealthSnapshot() can only mean a bug.
      worker_ring_pool_ = std::make_unique<obs::WorkerRingPool>();
      for (size_t i = 0; i < ParallelPoolWorkers(); ++i) {
        worker_ring_pool_->Add(
            recorder_->AddRing("parallel-" + std::to_string(i)));
      }
    }
  }
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  writer_ = std::thread([this] { WriterLoop(); });
  if (recorder_ != nullptr) {
    drainer_ = std::thread([this] { DrainerLoop(); });
  }
  if (wal_ != nullptr && options_.durability.checkpoint_every > 0) {
    checkpointer_ = std::thread([this] { CheckpointerLoop(); });
  }
  return Status::OK();
}

void Server::Stop() {
  if (!started_ || stopped_.load(std::memory_order_acquire)) {
    // Never started: still close the queues so pre-Start submissions fail
    // their promises instead of waiting forever.
    if (!started_) {
      read_queue_.Close();
      write_queue_.Close();
      std::vector<ReadTask> reads;
      while (read_queue_.PopBatch(&reads, SIZE_MAX) > 0) {
      }
      for (ReadTask& t : reads) {
        ServeResponse resp;
        resp.status = StoppedError();
        t.done.set_value(std::move(resp));
      }
      std::vector<WriteTask> writes;
      while (write_queue_.PopBatch(&writes, SIZE_MAX) > 0) {
      }
      for (WriteTask& t : writes) {
        ServeResponse resp;
        resp.status = StoppedError();
        t.done.set_value(std::move(resp));
      }
      stopped_.store(true, std::memory_order_release);
      data_dir_lock_.Release();
    }
    return;
  }
  stopped_.store(true, std::memory_order_release);
  // Closing lets the pools drain what is already queued, then exit.
  read_queue_.Close();
  write_queue_.Close();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  if (writer_.joinable()) writer_.join();
  if (checkpointer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(ckpt_mu_);
      ckpt_stop_ = true;
    }
    ckpt_cv_.notify_all();
    checkpointer_.join();
  }
  if (drainer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(drainer_mu_);
      drainer_stop_ = true;
    }
    drainer_cv_.notify_all();
    drainer_.join();
  }
  // Producers are all joined: one last drain makes the recorder's view
  // complete before anyone dumps or inspects it.
  if (recorder_ != nullptr) recorder_->Drain();
  running_.store(false, std::memory_order_release);
  // Nothing writes to the data dir any more: another server may take it.
  data_dir_lock_.Release();
}

void Server::DrainerLoop() {
  std::unique_lock<std::mutex> lock(drainer_mu_);
  while (!drainer_stop_) {
    drainer_cv_.wait_for(lock, kDrainInterval);
    if (drainer_stop_) break;
    lock.unlock();
    recorder_->Drain();
    lock.lock();
  }
}

std::future<ServeResponse> Server::SubmitQuery(std::string_view subject,
                                               std::string_view xpath) {
  auto parsed = xpath::ParsePath(xpath);
  if (!parsed.ok()) return ReadyResponse(parsed.status());
  ReadTask task;
  task.subject = std::string(subject);
  task.query = std::move(*parsed);
  std::future<ServeResponse> out = task.done.get_future();
  if (!read_queue_.Push(task)) {
    ServeResponse resp;
    resp.status = StoppedError();
    task.done.set_value(std::move(resp));
  }
  return out;
}

std::future<ServeResponse> Server::SubmitUpdate(std::string_view xpath) {
  // Validate on the caller's thread so one malformed op can never fail a
  // whole coalesced batch.
  auto parsed = xpath::ParsePath(xpath);
  if (!parsed.ok()) return ReadyResponse(parsed.status());
  WriteTask task;
  task.op = engine::BatchOp::Delete(std::string(xpath));
  std::future<ServeResponse> out = task.done.get_future();
  if (!write_queue_.Push(task)) {
    ServeResponse resp;
    resp.status = StoppedError();
    task.done.set_value(std::move(resp));
  }
  return out;
}

std::future<ServeResponse> Server::SubmitInsert(std::string_view target_xpath,
                                                std::string_view fragment_xml) {
  auto parsed = xpath::ParsePath(target_xpath);
  if (!parsed.ok()) return ReadyResponse(parsed.status());
  auto fragment = xml::ParseDocument(fragment_xml);
  if (!fragment.ok()) return ReadyResponse(fragment.status());
  WriteTask task;
  task.op = engine::BatchOp::Insert(std::string(target_xpath),
                                    std::string(fragment_xml));
  std::future<ServeResponse> out = task.done.get_future();
  if (!write_queue_.Push(task)) {
    ServeResponse resp;
    resp.status = StoppedError();
    task.done.set_value(std::move(resp));
  }
  return out;
}

Result<obs::MetricsSnapshot> Server::SubjectMetrics(
    std::string_view subject) {
  engine::AccessController* ac = controller_.subject(subject);
  if (ac == nullptr) {
    return Status::NotFound("unknown subject '" + std::string(subject) + "'");
  }
  return ac->SnapshotMetrics();
}

ServerHealth Server::HealthSnapshot() {
  ServerHealth h;
  h.epoch = epoch_.load(std::memory_order_acquire);
  h.read_queue_depth = read_queue_.size();
  h.read_queue_watermark = read_queue_.watermark();
  h.write_queue_depth = write_queue_.size();
  h.write_queue_watermark = write_queue_.watermark();
  if (worker_ring_pool_ != nullptr) {
    h.worker_ring_pool_misses = worker_ring_pool_->misses();
  }
  auto count = [this](std::string_view name) {
    return metrics_.counter(name)->value();
  };
  h.snapshot_docs.recycled = count("serve.snapshot.docs_recycled");
  h.snapshot_docs.cloned = count("serve.snapshot.docs_cloned");
  h.snapshot_docs.cloned_pinned = count("serve.snapshot.docs_cloned.pinned");
  h.snapshot_docs.cloned_lineage = count("serve.snapshot.docs_cloned.lineage");
  h.snapshot_docs.cloned_default_sign =
      count("serve.snapshot.docs_cloned.default_sign");
  h.snapshot_docs.cloned_journal_window =
      count("serve.snapshot.docs_cloned.journal_window");
  h.snapshot_docs.recycle_mismatch = count("serve.snapshot.recycle_mismatch");
  if (recorder_ != nullptr) {
    recorder_->Drain();  // fold in everything appended so far
    h.recorder = recorder_->Health();
    h.recorder_epoch = h.recorder.last_epoch;
    // Epoch 1 is published by Start(), before any ring exists; the
    // recorder first sees an epoch at the first update batch.  Lag is only
    // meaningful once it has.
    h.epoch_lag =
        h.recorder_epoch > 0 && h.epoch > h.recorder_epoch
            ? h.epoch - h.recorder_epoch
            : 0;
  }
  return h;
}

Status Server::DumpFlightRecorder(const std::string& dir) {
  if (recorder_ == nullptr) {
    return Status::Internal("flight recorder disabled");
  }
  recorder_->Drain();
  return obs::WriteFlightRecorderDump(*recorder_, dir);
}

std::string HealthText(const ServerHealth& health) {
  std::ostringstream os;
  os << "serve.health.epoch " << health.epoch << '\n';
  os << "serve.health.epoch_lag " << health.epoch_lag << '\n';
  os << "serve.health.read_queue.depth " << health.read_queue_depth << '\n';
  os << "serve.health.read_queue.watermark " << health.read_queue_watermark
     << '\n';
  os << "serve.health.recorder_epoch " << health.recorder_epoch << '\n';
  os << "serve.health.write_queue.depth " << health.write_queue_depth << '\n';
  os << "serve.health.write_queue.watermark " << health.write_queue_watermark
     << '\n';
  os << "obs.worker_ring_pool.misses " << health.worker_ring_pool_misses
     << '\n';
  const ServerHealth::SnapshotDocs& docs = health.snapshot_docs;
  os << "serve.snapshot.docs_recycled " << docs.recycled << '\n';
  os << "serve.snapshot.docs_cloned " << docs.cloned << '\n';
  os << "serve.snapshot.docs_cloned.pinned " << docs.cloned_pinned << '\n';
  os << "serve.snapshot.docs_cloned.lineage " << docs.cloned_lineage << '\n';
  os << "serve.snapshot.docs_cloned.default_sign " << docs.cloned_default_sign
     << '\n';
  os << "serve.snapshot.docs_cloned.journal_window "
     << docs.cloned_journal_window << '\n';
  os << "serve.snapshot.recycle_mismatch " << docs.recycle_mismatch << '\n';
  os << obs::HealthToText(health.recorder);
  return os.str();
}

void Server::WorkerLoop(size_t worker_index) {
  // The registry is owned by this server and instruments are
  // stable-addressed, so resolve every per-request instrument ONCE here
  // instead of paying a registry lock + map lookup per increment.
  obs::Counter* requests = metrics_.counter("serve.read.requests");
  obs::Counter* errors = metrics_.counter("serve.read.errors");
  obs::Counter* granted_c = metrics_.counter("serve.read.granted");
  obs::Counter* denied = metrics_.counter("serve.read.denied");
  obs::Gauge* depth_gauge = metrics_.gauge("serve.queue.read_depth");
  obs::Histogram* latency = metrics_.histogram("serve.request.latency_us");
  obs::EventRing* ring =
      worker_index < rings_.size() ? rings_[worker_index] : nullptr;
  obs::ScopedRing ring_context(ring);
  // Sharded fan-outs launched from this thread hand recorder rings to the
  // ParallelFor pool workers that run them.
  obs::ScopedWorkerRingPool pool_context(worker_ring_pool_.get());
  const uint16_t queue_name =
      ring != nullptr ? obs::InternName("read_queue") : 0;
  while (true) {
    std::optional<ReadTask> task = read_queue_.Pop();
    if (!task.has_value()) break;  // closed and drained
    // Install the server's metrics registry as the thread-local obs
    // context — without this, everything the snapshot read path and the
    // XPath evaluator report would silently drop, since no
    // AccessController runs on this thread to install sinks.  Spans reach
    // the flight recorder through the ring alone.
    obs::ScopedMetrics metrics_context(&metrics_);
    const size_t depth = read_queue_.size();
    if (ring != nullptr) {
      // The queue snapshot rides in the begin event (name = queue, arg =
      // depth): one ring append instead of two on the per-request path.
      ring->Append(obs::EventType::kRequestBegin, queue_name, depth,
                   static_cast<uint8_t>(obs::RequestClass::kQueryNative));
    }
    ServeResponse resp;
    {
      obs::ScopedSpan span("serve.read");
      depth_gauge->Set(static_cast<int64_t>(depth));
      requests->Increment();
      SnapshotPtr snapshot = snapshot_.load();
      if (snapshot == nullptr) {
        resp.status = Status::Internal("no snapshot published");
      } else {
        resp.epoch = snapshot->epoch;
        auto outcome = QuerySnapshot(*snapshot, task->subject, task->query);
        if (!outcome.ok()) {
          resp.status = outcome.status();
        } else {
          resp.granted = outcome->granted;
          resp.selected = outcome->selected;
          resp.accessible = outcome->accessible;
        }
      }
      if (!resp.status.ok()) {
        errors->Increment();
      } else if (resp.granted) {
        granted_c->Increment();
      } else {
        denied->Increment();
      }
    }
    const uint64_t latency_us =
        static_cast<uint64_t>(task->queued.ElapsedMicros());
    latency->Record(latency_us);
    if (ring != nullptr) {
      ring->Append(obs::EventType::kRequestEnd, 0, latency_us,
                   static_cast<uint8_t>(obs::RequestClass::kQueryNative));
    }
    task->done.set_value(std::move(resp));
  }
}

void Server::WriterLoop() {
  // Hoisted instrument handles, same rationale as WorkerLoop.
  obs::Counter* batches = metrics_.counter("serve.batches");
  obs::Counter* applied = metrics_.counter("serve.updates.applied");
  obs::Counter* write_errors = metrics_.counter("serve.write.errors");
  obs::Counter* published = metrics_.counter("serve.snapshot.published");
  obs::Gauge* depth_gauge = metrics_.gauge("serve.queue.write_depth");
  obs::Gauge* epoch_gauge = metrics_.gauge("serve.snapshot.epoch");
  obs::Histogram* batch_size_h = metrics_.histogram("serve.batch.size");
  obs::Histogram* update_latency =
      metrics_.histogram("serve.update.latency_us");
  obs::EventRing* ring = rings_.empty() ? nullptr : rings_.back();
  obs::ScopedRing ring_context(ring);
  obs::ScopedWorkerRingPool pool_context(worker_ring_pool_.get());
  const uint16_t queue_name =
      ring != nullptr ? obs::InternName("write_queue") : 0;
  std::vector<WriteTask> batch;
  while (true) {
    batch.clear();
    if (write_queue_.PopBatch(&batch, options_.max_batch) == 0) break;
    obs::ScopedMetrics metrics_context(&metrics_);
    Timer batch_timer;
    if (ring != nullptr) {
      // The whole coalesced batch — trigger evaluation, re-annotation,
      // publication — is one request on the writer's timeline; the queue
      // snapshot rides in the begin event (name = queue, arg = depth).
      ring->Append(obs::EventType::kRequestBegin, queue_name,
                   write_queue_.size(),
                   static_cast<uint8_t>(obs::RequestClass::kUpdateNative));
    }
    ServeResponse resp;
    {
      obs::ScopedSpan span("serve.write_batch");
      depth_gauge->Set(static_cast<int64_t>(write_queue_.size()));

      std::vector<engine::BatchOp> ops;
      ops.reserve(batch.size());
      std::vector<WriteTask*> ckpt_barriers;
      for (WriteTask& t : batch) {
        if (t.checkpoint != nullptr) {
          ckpt_barriers.push_back(&t);
        } else {
          ops.push_back(std::move(t.op));
        }
      }

      engine::CommitCapture capture;
      // A checkpoint-barrier-only batch applies nothing.
      if (!ops.empty()) {
        batch_size_h->Record(ops.size());
        batches->Increment();
        applied->Increment(ops.size());
        auto stats = controller_.ApplyBatch(
            ops, wal_ != nullptr ? &capture : nullptr);
        if (!stats.ok()) {
          resp.status = stats.status();
          write_errors->Increment(ops.size());
        } else {
          uint64_t new_epoch = epoch_.load(std::memory_order_relaxed) + 1;
          if (wal_ != nullptr) {
            // Commit point: the batch is durable once Append + Sync return.
            // Group commit — all coalesced updates share this one sync.
            storage::BatchRecord record;
            record.epoch = new_epoch;
            record.ops = ops;
            record.master_mutations = std::move(capture.master_mutations);
            record.deltas = std::move(capture.subjects);
            Status durable = wal_->Append(
                new_epoch, storage::EncodeBatchRecord(record));
            if (durable.ok()) durable = wal_->Sync();
            if (!durable.ok()) {
              // The in-memory state already advanced, so publish anyway and
              // keep serving — but tell the clients their update is NOT
              // durable, and stop checkpointing (the WAL poisoned itself, so
              // the post-failure state can never be persisted over the last
              // good commit).  The WAL keeps failing every later commit the
              // same way, so no subsequent client is told its write stuck.
              resp.status = durable;
              write_errors->Increment(ops.size());
              obs::IncrementCounter("serve.wal.errors");
            }
          }
          auto snapshot = snapshots_.Build(controller_, new_epoch,
                                           options_.snapshot_index);
          if (!snapshot.ok()) {
            resp.status = snapshot.status();
          } else {
            // Publication point: readers picking up the pointer from here on
            // see the whole batch; readers holding the old pointer keep an
            // unchanged pre-batch view.  The snapshot embeds each subject's
            // freshly published IndexVersion, so tree, signs, and index
            // travel as one epoch — and since this store runs after the WAL
            // Sync above, durability still precedes anything a client can
            // observe (docs/concurrency.md).  The displaced snapshot's
            // documents go back to snapshots_'s pool when its last reader
            // lets go — here, or on that reader's thread.
            snapshot_.store(std::move(*snapshot));
            epoch_.store(new_epoch, std::memory_order_release);
            published->Increment();
            epoch_gauge->Set(static_cast<int64_t>(new_epoch));
            if (ring != nullptr) {
              ring->Append(obs::EventType::kEpochPublish, 0, new_epoch);
            }
            resp.epoch = new_epoch;
            resp.batch_size = ops.size();
            for (const auto& [name, subject_stats] : *stats) {
              resp.rules_triggered += subject_stats.rules_triggered;
            }
            if (wal_ != nullptr && !wal_->crashed() &&
                options_.durability.checkpoint_every > 0 &&
                ++batches_since_checkpoint_ >=
                    options_.durability.checkpoint_every) {
              batches_since_checkpoint_ = 0;
              ScheduleCheckpoint();
            }
          }
        }
      }
      // Checkpoint barriers capture their job here, on the writer thread,
      // after this batch's ops are applied — the engine is quiescent
      // between batches, so the capture (a document clone plus each
      // subject's signs) never races ApplyBatch.
      for (WriteTask* t : ckpt_barriers) {
        t->checkpoint->set_value(MakeCheckpointJob());
        ServeResponse barrier_resp;
        barrier_resp.epoch = epoch_.load(std::memory_order_acquire);
        t->done.set_value(std::move(barrier_resp));
      }
    }
    if (ring != nullptr) {
      ring->Append(obs::EventType::kRequestEnd, 0,
                   static_cast<uint64_t>(batch_timer.ElapsedMicros()),
                   static_cast<uint8_t>(obs::RequestClass::kUpdateNative));
    }
    for (WriteTask& t : batch) {
      if (t.checkpoint != nullptr) continue;  // promise already fulfilled
      update_latency->Record(static_cast<uint64_t>(t.queued.ElapsedMicros()));
      t.done.set_value(resp);
    }
    // Retired documents the pool does not keep are freed here, after the
    // replies: off every commit's latency and off every reader's thread.
    snapshots_.FreeSurplus();
  }
}

Result<storage::SubjectState> Server::DurableSubject(
    const std::string& name, engine::SubjectSigns signs) const {
  auto it = policies_.find(name);
  if (it == policies_.end()) {
    return Status::Internal("no retained policy text for subject '" + name +
                            "'");
  }
  storage::SubjectState s;
  s.name = name;
  s.policy_text = it->second;
  s.default_sign = signs.default_sign;
  s.marked = std::move(signs.marked);
  return s;
}

Result<Server::SubjectSignList> Server::CaptureSigns() const {
  SubjectSignList out;
  for (const std::string& name : controller_.SubjectNames()) {
    XMLAC_ASSIGN_OR_RETURN(engine::SubjectSigns signs,
                           controller_.Signs(name));
    out.emplace_back(name, std::move(signs));
  }
  return out;
}

Result<Server::CheckpointJob> Server::MakeCheckpointJob() {
  // Both the post-batch checkpoint scheduling and CheckpointNow's queue
  // barrier run this on the writer thread, which owns the engine.
  CheckpointJob job;
  job.epoch = epoch_.load(std::memory_order_acquire);
  job.rule_cache_epoch = controller_.rule_cache().epoch();
  job.document = controller_.document().Clone();
  XMLAC_ASSIGN_OR_RETURN(job.subjects, CaptureSigns());
  return job;
}

void Server::ScheduleCheckpoint() {
  Result<CheckpointJob> job = MakeCheckpointJob();
  if (!job.ok()) {
    obs::IncrementCounter("serve.checkpoint.errors");
    return;
  }
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    pending_ckpt_ = std::move(*job);  // newest wins
  }
  ckpt_cv_.notify_all();
}

void Server::CheckpointerLoop() {
  obs::ScopedMetrics metrics_context(&metrics_);
  std::unique_lock<std::mutex> lock(ckpt_mu_);
  while (true) {
    ckpt_cv_.wait(lock,
                  [this] { return ckpt_stop_ || pending_ckpt_.has_value(); });
    if (ckpt_stop_) break;  // pending job (if any) is dropped on shutdown
    CheckpointJob job = std::move(*pending_ckpt_);
    pending_ckpt_.reset();
    lock.unlock();
    Status s = WriteCheckpointOf(job.epoch, job.rule_cache_epoch,
                                 job.document, std::move(job.subjects));
    if (!s.ok()) obs::IncrementCounter("serve.checkpoint.errors");
    lock.lock();
  }
}

Status Server::WriteCheckpointOf(uint64_t epoch, uint64_t rule_cache_epoch,
                                 const xml::Document& document,
                                 SubjectSignList subjects) {
  // One checkpoint at a time: CheckpointNow callers and the background
  // checkpointer must not interleave their write/remove-older/truncate
  // sequences.
  std::lock_guard<std::mutex> lock(ckpt_write_mu_);
  Timer timer;
  storage::CheckpointData data;
  data.epoch = epoch;
  data.rule_cache_epoch = rule_cache_epoch;
  data.dtd_text = dtd_text_;
  document.AppendBinary(&data.master_binary);
  for (auto& [name, signs] : subjects) {
    XMLAC_ASSIGN_OR_RETURN(storage::SubjectState s,
                           DurableSubject(name, std::move(signs)));
    data.subjects.push_back(std::move(s));
  }
  XMLAC_RETURN_IF_ERROR(
      storage::WriteCheckpoint(options_.durability.data_dir, data));
  XMLAC_RETURN_IF_ERROR(storage::RemoveCheckpointsBefore(
      options_.durability.data_dir, data.epoch));
  // TruncateThrough no-ops after a (simulated or real) WAL crash, so a
  // checkpoint can never delete records the recovery path still needs.
  XMLAC_RETURN_IF_ERROR(wal_->TruncateThrough(data.epoch));
  obs::IncrementCounter("serve.checkpoints");
  obs::RecordHistogram("serve.checkpoint.write_us",
                       static_cast<uint64_t>(timer.ElapsedMicros()));
  return Status::OK();
}

Status Server::CheckpointNow() {
  if (wal_ == nullptr) return Status::Internal("durability disabled");
  if (!started_) return Status::Internal("not started");
  if (wal_->crashed()) {
    // Same gating as the background scheduling path: once the WAL has
    // crashed, in-memory state contains commits clients were told are NOT
    // durable, and persisting it would contradict that.
    return Status::Internal("WAL crashed; refusing to checkpoint state "
                            "already reported non-durable");
  }
  // Capture the job on the writer thread via a queue barrier, so the
  // document clone and sign capture never race ApplyBatch.
  WriteTask task;
  task.checkpoint = std::make_shared<std::promise<Result<CheckpointJob>>>();
  std::future<Result<CheckpointJob>> job = task.checkpoint->get_future();
  if (!write_queue_.Push(task)) return StoppedError();
  obs::ScopedMetrics metrics_context(&metrics_);
  XMLAC_ASSIGN_OR_RETURN(CheckpointJob captured, job.get());
  return WriteCheckpointOf(captured.epoch, captured.rule_cache_epoch,
                           captured.document, std::move(captured.subjects));
}

}  // namespace xmlac::serve
