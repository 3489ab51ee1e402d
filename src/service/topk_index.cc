#include "service/topk_index.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <queue>

#include "common/check.h"
#include "common/scheduler.h"
#include "obs/trace.h"

namespace incsr::service {

namespace {

// First index >= `from` of an upper-triangle candidate (b > a = row).
// The pair scan reads pair {a, b} as s(min, max) from row min's bytes;
// S is symmetric analytically but NOT guaranteed bitwise (s(a,b) and
// s(b,a) are distinct storage that can disagree in the last ulp), so
// the pair merge must use row min's copy only — each entry contributes
// its candidates past the diagonal and every pair comes from exactly
// one row.
std::size_t NextUpperTriangle(const TopKIndex::Entry& entry,
                              std::size_t from) {
  while (from < entry.items.size() &&
         entry.items[from].b < entry.items[from].a) {
    ++from;
  }
  return from;
}

}  // namespace

bool TopKIndex::View::Serve(graph::NodeId query, std::size_t k,
                            std::vector<core::ScoredPair>* out) const {
  const auto q = static_cast<std::size_t>(query);
  if (q >= entries_.size()) return false;  // disabled view or foreign id
  const Entry& entry = entries_[q];
  // Underfull: the entry holds fewer than k candidates AND fewer than the
  // n-1 that exist, so the row may hold better candidates than stored.
  if (k > entry.items.size() && !entry.Complete(entries_.size())) {
    return false;
  }
  const std::size_t count = std::min(k, entry.items.size());
  out->assign(entry.items.begin(), entry.items.begin() + count);
  return true;
}

bool TopKIndex::View::ServePairs(std::size_t k,
                                 std::vector<core::ScoredPair>* out) const {
  if (empty()) return false;  // index disabled
  const std::size_t n = entries_.size();
  // A pair {a, b} absent from BOTH rows' entries is outranked by every
  // stored candidate of both rows, so its score is at most the last-item
  // score of either (incomplete) entry. The merge below is therefore
  // provably exact while emitted scores strictly exceed the worst such
  // bound; at or below it an unstored pair could tie in and win on the
  // (a, b) tie-break.
  double bound = -std::numeric_limits<double>::infinity();
  bool any_incomplete = false;
  for (std::size_t q = 0; q < n; ++q) {
    const Entry& entry = entries_[q];
    if (entry.Complete(n)) continue;
    if (entry.items.empty()) return false;  // nothing to bound with
    any_incomplete = true;
    bound = std::max(bound, entry.items.back().score);
  }

  // K-way merge of the rows' upper-triangle candidate streams: within
  // one row, candidates are already in the global (descending score,
  // ascending (a, b)) order — all share the same a, so ascending-b ties
  // match — and a pair {a, b} appears in exactly one stream (row
  // min(a, b), the same bytes the pair scan reads), so a heap of
  // per-row cursors yields the exact global order with no duplicates.
  struct Cursor {
    core::ScoredPair pair;  // a = row < b
    std::size_t row = 0;
    std::size_t index = 0;
  };
  const auto pops_later = [](const Cursor& x, const Cursor& y) {
    return core::ScoredPairRanksBefore(y.pair, x.pair);
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(pops_later)>
      heap(pops_later);
  for (std::size_t q = 0; q < n; ++q) {
    const Entry& entry = entries_[q];
    const std::size_t first = NextUpperTriangle(entry, 0);
    if (first < entry.items.size()) {
      heap.push({entry.items[first], q, first});
    }
  }
  out->clear();
  out->reserve(k);
  while (!heap.empty() && out->size() < k) {
    const Cursor top = heap.top();
    heap.pop();
    if (any_incomplete && top.pair.score <= bound) {
      // An unstored pair could rank here or earlier than the remaining
      // stream; only the strict region above the bound is exact.
      out->clear();
      return false;
    }
    out->push_back(top.pair);
    const Entry& entry = entries_[top.row];
    const std::size_t next = NextUpperTriangle(entry, top.index + 1);
    if (next < entry.items.size()) {
      heap.push({entry.items[next], top.row, next});
    }
  }
  if (out->size() == k) return true;
  // The merged stream drained early. With every entry complete it held
  // all n(n-1)/2 pairs — the short result is the exact full ranking,
  // just like the scan's. Otherwise pairs may be missing: fall back.
  if (!any_incomplete) return true;
  out->clear();
  return false;
}

std::span<const core::ScoredPair> TopKIndex::EntryItems(std::size_t row) const {
  if (row >= entries_.size() || entries_.slot(row) == nullptr) return {};
  return entries_[row].items;
}

std::shared_ptr<const TopKIndex::Entry> TopKIndex::BuildEntry(
    const la::ScoreStore& scores, std::size_t row) const {
  auto entry = std::make_shared<Entry>();
  // The single source of ranking truth: the same scan a miss would run,
  // truncated at capacity instead of k — which is what makes index-served
  // results bitwise identical to the fallback.
  entry->items = core::TopKForOf(scores, static_cast<graph::NodeId>(row),
                                 capacity_);
  return entry;
}

std::shared_ptr<const TopKIndex::Entry> TopKIndex::PatchEntry(
    const la::ScoreStore& scores, std::size_t row, const Entry& old) {
  // The entry holds the previous score of every column, so it is its own
  // diff. Bits, not ==, so a -0.0 -> +0.0 flip re-scores the item too.
  const double* values = scores.ReadRow(row, &row_scratch_);
  kept_.clear();
  changed_.clear();
  for (const core::ScoredPair& item : old.items) {
    const double score = values[item.b];
    if (std::bit_cast<std::uint64_t>(score) ==
        std::bit_cast<std::uint64_t>(item.score)) {
      kept_.push_back(item);
    } else {
      changed_.push_back({item.a, item.b, score});
    }
  }
  const auto cmp = [](const core::ScoredPair& x, const core::ScoredPair& y) {
    return core::ScoredPairRanksBefore(x, y);
  };
  std::sort(changed_.begin(), changed_.end(), cmp);
  auto entry = std::make_shared<Entry>();
  entry->items.resize(old.items.size());
  // A strict total order has one sorted sequence, so this is bitwise
  // TopKForOf(scores, row, capacity).
  std::merge(changed_.begin(), changed_.end(), kept_.begin(), kept_.end(),
             entry->items.begin(), cmp);
  ++rows_patched_;
  return entry;
}

void TopKIndex::RebuildRows(const la::ScoreStore& scores,
                            std::span<const std::int32_t> rows) {
  if (capacity_ == 0) return;
  TRACE_SCOPE_ARG(kRerank, rows.size());
  INCSR_CHECK(entries_.size() == scores.rows(),
              "TopKIndex geometry mismatch: %zu entries for %zu rows",
              entries_.size(), scores.rows());
  for (std::int32_t row : rows) {
    const auto r = static_cast<std::size_t>(row);
    const Entry* old = entries_.slot(r).get();
    entries_.Set(r, old != nullptr && old->Complete(scores.rows())
                        ? PatchEntry(scores, r, *old)
                        : BuildEntry(scores, r));
    ++rows_reranked_;
  }
}

void TopKIndex::RebuildAll(const la::ScoreStore& scores) {
  if (capacity_ == 0) return;
  TRACE_SCOPE_ARG(kRerank, scores.rows());
  const std::size_t n = scores.rows();
  // Each entry reads only its own row, so the rows rank in parallel; the
  // table itself is the writer's, so the entries are installed serially.
  std::vector<std::shared_ptr<const Entry>> built(n);
  Scheduler::Global().ParallelFor(
      0, n, /*grain=*/64, Scheduler::ResolveNumThreads(0),
      [this, &scores, &built](std::size_t lo, std::size_t hi) {
        for (std::size_t row = lo; row < hi; ++row) {
          built[row] = BuildEntry(scores, row);
        }
      });
  entries_.Resize(n, nullptr);
  for (std::size_t row = 0; row < n; ++row) {
    entries_.Set(row, std::move(built[row]));
  }
  rows_reranked_ += n;
}

TopKIndex::View TopKIndex::Publish() {
  View view;
  view.entries_ = entries_.Publish();  // ⌈n/256⌉ page pointers
  return view;
}

}  // namespace incsr::service
