#ifndef XMLAC_SERVE_SNAPSHOT_H_
#define XMLAC_SERVE_SNAPSHOT_H_

// Immutable annotated snapshots for concurrent reads.
//
// The materialized approach concentrates its cost in (re-)annotation and
// makes a read a sign check — so a published snapshot of every subject's
// annotated document is all a reader needs.  Snapshots are immutable by
// construction (const documents behind shared_ptr), readers resolve
// requests against whichever snapshot was current when they started, and
// the writer publishes a fresh snapshot per update batch.  No reader ever
// takes a lock on document data.  A view's document is rewritten only
// after its deleter returned it to the writer's pool — once nothing holds
// it — and then only into a later snapshot (SnapshotBuilder).

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "engine/multi_subject.h"
#include "engine/requester.h"
#include "xml/document.h"
#include "xpath/ast.h"
#include "xpath/structural_index.h"

namespace xmlac::serve {

// One subject's annotated document, frozen: the fleet's shared tree with
// the subject's signs written as `sign` attributes.  `index` is the
// structural IndexVersion the shared store had published when the snapshot
// was built — the same immutable version the writer's own queries used,
// and the same pointer in every view of the snapshot — so a snapshot read
// always sees a matching tree+signs+index triple and evaluates through the
// structural engine (the shared_ptr keeps the version alive for the
// snapshot's lifetime).  Null when the snapshot was built without indexes
// (ServerOptions::snapshot_index false); reads then use the naive
// evaluator.
struct SubjectView {
  std::shared_ptr<const xml::Document> doc;
  std::shared_ptr<const xpath::IndexVersion> index;
  char default_sign = '-';
};

struct Snapshot {
  // 0 = never published; the initial post-Load/SetPolicy snapshot is 1 and
  // every update batch increments it.
  uint64_t epoch = 0;
  std::map<std::string, SubjectView, std::less<>> subjects;
};

using SnapshotPtr = std::shared_ptr<const Snapshot>;

// The publication point: one mutex-guarded SnapshotPtr.  Both critical
// sections copy or swap a pointer and nothing else: store() swaps the new
// snapshot in under the lock and drops the displaced one after unlocking,
// so whatever that drop destroys (a Snapshot's map and views, and the
// hand-back of its documents, see SnapshotBuilder) never holds up a
// reader's load().
//
// Deliberately NOT std::atomic<std::shared_ptr<...>>: libstdc++'s
// _Sp_atomic unlocks its internal spinlock in load() with a relaxed
// fetch_sub, so a reader's access to the stored pointer has no
// happens-before edge to the next store()'s write of it — formally a data
// race, and ThreadSanitizer reports it as one.  A plain mutex is
// unambiguously race-free and indistinguishable at this call frequency.
class SnapshotSlot {
 public:
  SnapshotPtr load() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ptr_;
  }
  void store(SnapshotPtr ptr) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ptr_.swap(ptr);
    }
    // `ptr` now holds the displaced snapshot; it is released here, outside
    // the critical section.
  }

 private:
  mutable std::mutex mu_;
  SnapshotPtr ptr_;
};

// All-or-nothing read against a snapshot, mirroring engine::Request over a
// native annotated backend.  Unlike engine::Request, a denial is *not* an
// error status here — it is a normal serving outcome (granted == false,
// with the selected/accessible tallies filled in).  Evaluation uses the
// view's embedded IndexVersion (structural engine), or the naive evaluator
// when the view carries none.  Error statuses: NotFound for an unknown
// subject, and Internal when the view's IndexVersion does not match its
// document — a broken publish invariant, also counted as
// `serve.read.index_stale` (the bench gate holds that counter at zero).
Result<engine::RequestOutcome> QuerySnapshot(const Snapshot& snapshot,
                                             std::string_view subject,
                                             const xpath::Path& query);

// Freezes the current state of every subject of `controller` into a
// snapshot stamped `epoch`: one clone of the shared document per subject,
// annotated from its sign bitmap, all sharing the store's one
// IndexVersion.  Requires a native-XML store; returns InvalidArgument
// otherwise.
// This is SnapshotBuilder::Build without a pool — every document a fresh
// clone — which makes it the from-scratch reference the recycling build is
// diffed against, and the build perfbench's serial replay times.
// `capture_index` false skips embedding IndexVersions, pinning reads to the
// naive evaluator — the A/B baseline the epoch bench gate compares against
// (ServerOptions::snapshot_index).
Result<SnapshotPtr> BuildSnapshot(engine::MultiSubjectController& controller,
                                  uint64_t epoch, bool capture_index = true);

class DocumentPool;

// The server's snapshot build: BuildSnapshot, except that each view's
// document goes back to this builder's pool when its last reference drops
// (on whatever thread drops it: the deleter only queues it), and the next
// Build catches a pooled document up — the store's journal delta since its
// version, then the sign diff between the bitmap it was annotated from and
// the subject's current one — instead of cloning the store again
// (docs/serving.md, "Snapshot build").  A subject falls back to a fresh
// Clone(), counted under `serve.snapshot.docs_cloned.<reason>`, when:
//  - pinned:         no retired document of it is pooled (its last view is
//                    still referenced, or the subject is new);
//  - lineage:        the pooled document descends from another store (the
//                    controller was re-loaded);
//  - default_sign:   the subject's default sign changed;
//  - journal_window: the store's bounded journal no longer reaches the
//                    pooled document's version.
// A caught-up document whose version or size differs from the store's is
// never published: Build returns Internal and counts
// `serve.snapshot.recycle_mismatch`.  Build runs on one thread at a time
// (the server's writer); retired documents may arrive from any thread.
class SnapshotBuilder {
 public:
  SnapshotBuilder();
  // Closes the pool: pooled documents are freed here, and documents of
  // snapshots that outlive the builder are freed by their last owner.
  ~SnapshotBuilder();

  SnapshotBuilder(const SnapshotBuilder&) = delete;
  SnapshotBuilder& operator=(const SnapshotBuilder&) = delete;

  Result<SnapshotPtr> Build(engine::MultiSubjectController& controller,
                            uint64_t epoch, bool capture_index = true);

  // Frees the retired documents the pool does not keep: a subject's older
  // second document, and documents Build could not reuse.  The server calls
  // it after a batch's replies are sent, so no commit waits on the free.
  void FreeSurplus();

  // Fault injection for the serve fuzzer's self-check: the catch-up skips
  // every kDelete of the journal delta (`xmlac_fuzz --inject-bug
  // recycle-skip-delete`).
  void set_inject_skip_delete(bool on) { inject_skip_delete_ = on; }

 private:
  std::shared_ptr<DocumentPool> pool_;
  bool inject_skip_delete_ = false;
};

}  // namespace xmlac::serve

#endif  // XMLAC_SERVE_SNAPSHOT_H_
