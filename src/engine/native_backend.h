#ifndef XMLAC_ENGINE_NATIVE_BACKEND_H_
#define XMLAC_ENGINE_NATIVE_BACKEND_H_

// Native XML store (the MonetDB/XQuery analog).
//
// Keeps the document tree as-is; accessibility is a `sign` attribute on
// element nodes, written by the xmlac:annotate() primitive of the paper
// (insert attribute if absent, replace value otherwise).  To minimise
// stored information the attribute is only present when it differs from the
// store's default sign (paper Sec. 5.2, Native XML).

#include <functional>
#include <memory>

#include "engine/backend.h"
#include "xmldb/xquery.h"
#include "xpath/structural_index.h"

namespace xmlac::engine {

class NativeXmlBackend final : public Backend {
 public:
  NativeXmlBackend() = default;

  std::string name() const override { return "xmldb"; }

  Status Load(const xml::Dtd& dtd, const xml::Document& doc) override;
  void Clear() override;
  size_t NodeCount() const override;
  size_t IdBound() const override { return doc_.size(); }
  // The XPath evaluator is pure over a const Document.
  bool SupportsParallelEval() const override { return true; }

  Result<std::vector<UniversalId>> EvaluateQuery(
      const xpath::Path& query) override;

  // Implemented by compiling the rule subset into one XQuery set expression
  // (the native analog of the relational backend's UNION/EXCEPT SQL) and
  // running it through the XQuery-lite engine — the paper's Sec. 5.2 path.
  Result<std::vector<UniversalId>> EvaluateAnnotationSet(
      const policy::Policy& policy, const std::vector<size_t>& rule_subset,
      policy::CombineOp combine) override;

  // The compiled form, e.g.
  //   doc("xmlgen")((//patient union //regular) except (//patient[treatment]))
  // NotFound when no rule contributes to the base set.
  static Result<std::string> CompileAnnotationXQuery(
      const policy::Policy& policy, const std::vector<size_t>& rule_subset,
      policy::CombineOp combine);

  Status SetSigns(const std::vector<UniversalId>& ids, char sign) override;
  Status ResetAllSigns(char default_sign) override;
  Result<char> GetSign(UniversalId id) override;

  Result<size_t> DeleteWhere(const xpath::Path& u) override;
  Result<size_t> InsertUnder(const xpath::Path& target,
                             const xml::Document& fragment) override;

  // The annotated tree (e.g. for serialization in examples).
  const xml::Document& document() const { return doc_; }
  char default_sign() const { return default_sign_; }

  // Structural-index switch (on by default).  Queries route through the
  // stack-based structural-join engine over immutable published
  // IndexVersions (docs/concurrency.md): every mutating call on this
  // backend publishes a fresh version before returning, so a query never
  // syncs or rebuilds the index.  Off = the naive evaluator, which the
  // differential harness uses as the reference.
  void set_use_structural_index(bool on) {
    use_structural_index_ = on;
    if (on && loaded_) structural_index_.Publish();
  }
  bool use_structural_index() const { return use_structural_index_; }

  // The currently published index version (nullptr when the structural
  // index is disabled or nothing is loaded).  Shared ownership for
  // long-lived holders — the serve layer embeds it in snapshots so a
  // snapshot read always sees the matching tree+signs+index triple.
  // Writer-thread only: must not race mutating calls.
  std::shared_ptr<const xpath::IndexVersion> CurrentIndexVersion() const {
    if (!use_structural_index_) return nullptr;
    return structural_index_.CurrentShared();
  }

  // Shard-parallel execution (common/shard.h): structural-engine queries
  // fan out per interval shard and index rebuilds per top-level subtree.
  // Results are identical either way.  Writer-side configuration: must not
  // race queries or mutations.
  void SetShardConfig(const ShardConfig& shard) override {
    shard_ = shard;
    structural_index_.set_shard_config(shard);
  }

  // Runs an XQuery-lite expression against the store (registered as
  // doc("xmlgen"), the paper's document name).  xmlac:annotate() calls
  // mutate the stored tree directly, exactly like the paper's Sec. 5.2
  // native annotation path.
  Result<xmldb::XqValue> RunXQuery(std::string_view query);

  // Persistence: the annotated document serializes to XML with its sign
  // attributes, so saving + loading preserves both content and annotations
  // (the store's default sign is recorded on the root as xmlac-default).
  Status SaveToFile(std::string_view path) const;
  Status LoadFromFile(std::string_view path);

  // The security view (see the free AccessibleView below) of the annotated
  // document under its own signs.
  xml::Document AccessibleView() const;

 private:
  // The paper's xmlac:annotate($n, $val) function.
  void Annotate(xml::NodeId n, char val);

  // Live elements carrying an explicit (non-default) sign attribute, for
  // counting only.
  size_t CountNonDefaultSigns() const;

  // Evaluator options for the current read: the structural engine with the
  // currently published IndexVersion when enabled, naive otherwise.  Pure
  // loads — safe on parallel rule-cache-miss workers, which the writer
  // joins before its next mutation.
  xpath::EvaluatorOptions EvalOptions() const;

  // Publishes a fresh index version after a mutation (no-op when the
  // structural index is disabled).  Every mutating public method ends with
  // this, which is also what keeps journal-window-miss rebuilds on the
  // writer: readers only ever load the published pointer.
  void PublishIndex();

  xml::Document doc_;
  // The index holds a pointer to doc_ (stable: this class is immovable);
  // Load/Clear invalidate it explicitly because the new document's version
  // counter restarts.
  xpath::StructuralIndex structural_index_{&doc_};
  bool use_structural_index_ = true;
  ShardConfig shard_;
  bool loaded_ = false;
  char default_sign_ = '-';
  // Number of alive nodes holding an explicit sign attribute.  When zero,
  // every sign equals the default and ResetAllSigns is O(1) — the common
  // case for a freshly loaded store's first annotation.  Deleted nodes
  // may leave the count conservatively high; a full reset re-zeroes it.
  size_t non_default_signs_ = 0;
};

// Materializes the security view of `doc` (cf. the security-view line of
// work the paper relates to): a copy containing exactly the elements that
// are `accessible` *and* have only accessible ancestors, with `sign`
// attributes stripped.  An inaccessible root yields an empty document.
xml::Document AccessibleView(
    const xml::Document& doc,
    const std::function<bool(xml::NodeId)>& accessible);

}  // namespace xmlac::engine

#endif  // XMLAC_ENGINE_NATIVE_BACKEND_H_
