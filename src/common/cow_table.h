// CowTable — a paged, persistent copy-on-write table of immutable,
// reference-counted slots: the one publish mechanism behind la::ScoreStore's
// rows, graph::DynamicDiGraph's node records and service::TopKIndex's
// entries. Slots live in fixed pages of kPageSize shared_ptr<const T> behind
// a root vector of page pointers; Publish() returns an immutable Snapshot
// holding a copy of the root (⌈n/kPageSize⌉ pointers).
//
// A writer generation replaces per-slot "shared" flags: Publish() and a copy
// of the table (on both sides) advance it, and each page records the
// generation it was cloned in, so the first write to a page after either
// clones it (kPageSize pointers) and later writes land in place. A slot is
// *owned* when this writer installed it (Set/Append) since then — a fresh
// table owns all it is built with — and only an owned slot's payload may be
// mutated in place (MutableSlot). Resize fill values are never owned.
//
// Threading: ONE writer calls the non-const methods; readers use Snapshots
// obtained through a synchronizing handoff. The writer writes only pages of
// its current generation, which no Snapshot holds, and never consults
// use_count(), so the table is TSan-clean by design.
#ifndef INCSR_COMMON_COW_TABLE_H_
#define INCSR_COMMON_COW_TABLE_H_

#include <algorithm>
#include <array>
#include <bitset>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"

namespace incsr {

template <typename T>
class CowTable {
 public:
  static constexpr std::size_t kPageSize = 256;
  using Ptr = std::shared_ptr<const T>;

 private:
  struct Page {
    std::array<Ptr, kPageSize> slots;
    std::uint64_t generation = 0;   // writer generation it was cloned in
    std::bitset<kPageSize> owned;   // slots installed since then
  };

 public:
  /// Immutable view of the table at one Publish(); reads are byte-stable.
  class Snapshot {
   public:
    std::size_t size() const { return size_; }
    const Ptr& slot(std::size_t i) const {
      INCSR_DCHECK(i < size_, "slot %zu out of %zu", i, size_);
      return pages_[i / kPageSize]->slots[i % kPageSize];
    }
    const T& operator[](std::size_t i) const { return *slot(i); }

   private:
    friend class CowTable;
    std::vector<std::shared_ptr<const Page>> pages_;
    std::size_t size_ = 0;
  };

  CowTable() = default;
  /// A copy shares every page; both sides advance their generation, so
  /// neither owns a slot the other can see.
  CowTable(const CowTable& other)
      : root_(other.root_), generation_(++other.generation_) {}
  CowTable& operator=(const CowTable& other) {
    if (this != &other) {
      root_ = other.root_;
      generation_ = ++other.generation_;
    }
    return *this;
  }
  CowTable(CowTable&&) noexcept = default;
  CowTable& operator=(CowTable&&) noexcept = default;

  std::size_t size() const { return root_.size(); }
  const Ptr& slot(std::size_t i) const { return root_.slot(i); }
  const T& operator[](std::size_t i) const { return root_[i]; }

  /// True when this writer installed slot i since its last publish or copy.
  bool owned(std::size_t i) const {
    const Page& page = *root_.pages_[i / kPageSize];
    return page.generation == generation_ && page.owned[i % kPageSize];
  }

  /// In-place access to an owned slot's payload. Writer thread only.
  T* MutableSlot(std::size_t i) {
    INCSR_DCHECK(owned(i), "slot %zu is not owned", i);
    return const_cast<T*>(slot(i).get());  // reachable from this table only
  }

  /// Installs `value` as owned slot i, cloning its page first when a
  /// snapshot or copy may hold it. Writer thread only.
  void Set(std::size_t i, Ptr value) {
    INCSR_DCHECK(i < size(), "slot %zu out of %zu", i, size());
    Put(i, std::move(value), /*owned=*/true);
  }

  /// Appends `value` as a new owned slot. Writer thread only.
  void Append(Ptr value) {
    Resize(size() + 1, nullptr);
    Set(size() - 1, std::move(value));
  }

  /// Grows the table with `fill` or shrinks it, releasing the dropped
  /// slots. Writer thread only.
  void Resize(std::size_t n, const Ptr& fill) {
    const std::size_t pages = (n + kPageSize - 1) / kPageSize;
    // Clear the shrunk tail of the new last page; later pages just drop.
    for (std::size_t i = n; i < std::min(size(), pages * kPageSize); ++i) {
      Put(i, nullptr, /*owned=*/false);
    }
    root_.pages_.resize(std::min(root_.pages_.size(), pages));
    while (root_.pages_.size() < pages) {
      root_.pages_.push_back(std::make_shared<Page>(Page{{}, generation_, {}}));
    }
    for (std::size_t i = size(); i < n; ++i) Put(i, fill, /*owned=*/false);
    root_.size_ = n;
  }

  /// Ends the writer's ownership of every slot and returns the root as an
  /// immutable Snapshot: O(⌈n/kPageSize⌉). Writer thread only.
  Snapshot Publish() {
    ++generation_;
    return root_;
  }

  /// Cumulative page clones — at most one per page per generation.
  std::uint64_t pages_cloned() const { return pages_cloned_; }

 private:
  void Put(std::size_t i, Ptr value, bool owned) {
    std::shared_ptr<const Page>& page = root_.pages_[i / kPageSize];
    if (page->generation != generation_) {
      page = std::make_shared<Page>(Page{page->slots, generation_, {}});
      ++pages_cloned_;
    }
    // A page of the current generation is reachable from this table only.
    Page& writable = const_cast<Page&>(*page);
    writable.slots[i % kPageSize] = std::move(value);
    writable.owned[i % kPageSize] = owned;
  }

  Snapshot root_;
  // Mutable so copying a const table can advance the source's generation.
  mutable std::uint64_t generation_ = 0;
  std::uint64_t pages_cloned_ = 0;
};

}  // namespace incsr

#endif  // INCSR_COMMON_COW_TABLE_H_
