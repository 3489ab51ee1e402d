// Structured serve-path tracing (docs/tracing.md). Producer side follows
// the writer/analyzer split of production trace systems (Unreal's
// TraceLog): every instrumented thread appends fixed-size binary events
// to a PRIVATE bounded SPSC ring, and a background drainer serializes the
// rings into a length-prefixed trace file. No locks, no allocation, and
// no blocking anywhere on the hot path —
//
//   - disabled cost: ONE relaxed atomic load (the macros check
//     Tracer::Enabled() and fall through);
//   - enabled cost: one 24-byte ring write plus a release store of the
//     ring head (a scope's constructor only reads the clock; the single
//     event carries start timestamp + duration and is written at
//     destruction);
//   - overflow: a full ring DROPS the event and counts it (per-ring
//     dropped counters land in the trace footer), it never blocks the
//     producer or resizes under it.
//
// The consumer side lives in obs/trace_analysis.h (offline decoding) and
// `incsr_cli trace summarize` (per-phase wall-time breakdowns, per-epoch
// batch timelines). The file format mirrors the wire conventions of
// src/net/wire.h — little-endian fixed-width fields, length-prefixed
// blocks, a versioned header — but is implemented here without a net/
// dependency: net/ sits ABOVE service/, which depends on this header.
#ifndef INCSR_OBS_TRACE_H_
#define INCSR_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace incsr::obs {

/// Stable event identifiers. Values are part of the trace-file contract
/// (docs/tracing.md): renumbering breaks old traces, so new events append
/// only. Grouped by the serve-path layer that emits them.
enum class EventId : std::uint16_t {
  kNone = 0,

  // ---- service applier pipeline (service/simrank_service.cc) ----
  /// Span: applier blocked waiting for queued updates (the "queue" phase
  /// of the per-batch breakdown — time with nothing to apply).
  kQueueIdle = 1,
  /// Span: whole ApplyAndPublish cycle; arg = drained batch size.
  kBatchApply = 2,
  /// Span: batch pre-validation + dedup overlay (the coalesce prep).
  kCoalesce = 3,
  /// Span: the update kernels (ApplyBatchCoalesced / ApplyBatch /
  /// unit-update recovery); arg = valid updates applied.
  kKernelApply = 4,
  /// Span: epoch publish (tier policy, snapshots, re-rank, invalidate).
  kPublish = 5,
  /// Span: COW graph snapshot inside publish.
  kGraphSnapshot = 6,
  /// Span: ScoreStore::Publish (page-root copy).
  kStorePublish = 7,
  /// Span: tier + adaptive-capacity policies inside publish.
  kTierPolicy = 8,
  /// Span: top-k re-rank of touched rows; arg = rows re-ranked.
  kRerank = 9,
  /// Span: query-cache invalidation after the snapshot swap.
  kCacheInvalidate = 10,
  /// Counter: per-batch ingest-queue wait; value = summed wait ns over
  /// the batch, arg = updates drained (mean wait = value / arg).
  kQueueWait = 11,
  /// Instant: epoch published; arg = epoch (low 32 bits), value = batch
  /// size as applied.
  kEpochPublished = 12,

  // ---- update kernels (core/inc_sr.cc, core/inc_usr.cc) ----
  /// Span: seed computation (Inc-SR sparse seed scan / Inc-uSR seed).
  kKernelSeed = 13,
  /// Span: support-set expansion (one AdvanceSparse / Multiply step).
  kKernelExpand = 14,
  /// Span: scatter of the outer-product correction into S.
  kKernelScatter = 15,

  // ---- scheduler (common/scheduler.cc) ----
  /// Span: one parallel region, submitter side (publish tickets + drain
  /// + completion wait); arg = chunk count.
  kSchedRegion = 16,
  /// Counter: a worker stole a ticket from another worker's ring.
  kSchedSteal = 17,

  // ---- score store (la/score_store.cc) ----
  /// Counter: copy-on-write row clone on first write; value = bytes.
  kStoreRowCow = 18,
  /// Counter: dense row demoted to the sparse tier; value = payload bytes
  /// after sparsification.
  kStoreTierDemote = 19,
  /// Reserved: read-driven promotion to dense, which no longer exists.
  /// Kept (and not renumbered) so older trace files still decode.
  kStoreTierPromote = 20,

  // ---- network server (net/server.cc) ----
  /// Span: one RPC dispatch (decode + backend call + encode); arg = the
  /// frame's MessageTag byte.
  kRpc = 21,

  // ---- score store, sparse-native write path (la/score_store.cc) ----
  /// Counter: a sparse row densified on the WRITE path (a RowWriter
  /// Dense() spill or a merge past the max_density gate).
  kStoreWriteSpill = 22,
  /// Counter: a sparse-native write session committed as an index-merge
  /// (the row stayed sparse); value = merged payload bytes.
  kStoreSparseMerge = 23,
};

/// Human-readable name for an event id ("kernel.apply"); "unknown" for
/// ids this build does not know (a newer trace read by an older binary).
const char* EventName(EventId id);

enum class EventKind : std::uint8_t {
  /// ts_ns = scope entry, value = duration in ns.
  kSpan = 0,
  /// ts_ns = emission time, value = the counted quantity.
  kCounter = 1,
  /// ts_ns = emission time, value free-form.
  kInstant = 2,
};

/// One fixed-size trace event. 24 bytes, trivially copyable — rings and
/// the drainer move these by value; the file writer serializes the fields
/// explicitly (little-endian), so the in-memory layout never reaches disk.
struct TraceEvent {
  std::uint16_t id = 0;    ///< EventId
  std::uint8_t kind = 0;   ///< EventKind
  std::uint8_t reserved = 0;
  std::uint32_t arg = 0;   ///< event-specific context (epoch, size, tag)
  std::uint64_t ts_ns = 0; ///< steady-clock ns (span: scope entry)
  std::uint64_t value = 0; ///< span: duration ns; counter/instant: value
};
static_assert(sizeof(TraceEvent) == 24, "TraceEvent is a 24-byte record");
static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "rings memcpy events");

/// Bounded single-producer single-consumer event ring. The owning thread
/// is the only pusher; the drainer is the only popper. A full ring drops
/// (and counts) — producers never block on the consumer.
class TraceRing {
 public:
  /// `capacity` is rounded up to a power of two, minimum 8.
  TraceRing(std::size_t capacity, std::uint32_t thread_id);

  /// Producer side: false (and one dropped count) when full.
  bool TryPush(const TraceEvent& event) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    // acquire pairs with the drainer's tail release: slots below tail are
    // free to reuse only once the drainer has finished copying them.
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    slots_[head & mask_] = event;
    // release publishes the slot write to the drainer's acquire head load.
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: appends every pending event to `out`, in push order.
  std::size_t Drain(std::vector<TraceEvent>* out);

  std::uint32_t thread_id() const { return thread_id_; }
  /// Events ever accepted (monotonic; read by the drainer / footer).
  std::uint64_t written() const {
    return head_.load(std::memory_order_relaxed);
  }
  /// Events dropped on overflow (monotonic).
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return capacity_; }

 private:
  std::vector<TraceEvent> slots_;
  std::size_t capacity_;
  std::size_t mask_;
  std::uint32_t thread_id_;
  std::atomic<std::uint64_t> head_{0};    // producer writes
  std::atomic<std::uint64_t> tail_{0};    // drainer writes
  std::atomic<std::uint64_t> dropped_{0}; // producer writes
};

// ---- Trace file format (version 1) -----------------------------------------
//
//   header:  "INCSRTRC" (8 B)  u32 version  u32 event_size (24)
//   blocks:  u32 block_len, then block_len bytes:
//     type 0x01 (events): u8 type, u32 thread_id, u32 count,
//                         count * 24 B of events (fields LE, in order:
//                         u16 id, u8 kind, u8 reserved, u32 arg,
//                         u64 ts_ns, u64 value)
//     type 0x02 (footer): u8 type, u64 start_ns, u64 stop_ns,
//                         u32 ring_count, ring_count * {u32 thread_id,
//                         u64 written, u64 dropped}
//   A crashed producer leaves a truncated file: readers treat a missing
//   footer as "dropped counts unknown" and keep every complete block.

inline constexpr char kTraceMagic[8] = {'I', 'N', 'C', 'S',
                                        'R', 'T', 'R', 'C'};
inline constexpr std::uint32_t kTraceVersion = 1;
inline constexpr std::uint8_t kTraceBlockEvents = 0x01;
inline constexpr std::uint8_t kTraceBlockFooter = 0x02;

/// Process-wide trace collector: owns the per-thread ring registry, the
/// drainer thread, and the output file. All methods are thread-safe;
/// Enabled() is the only thing the hot path ever reads.
class Tracer {
 public:
  static Tracer& Instance();

  /// The macros' fast-path gate: one relaxed load.
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Steady-clock nanoseconds (the trace's time base).
  static std::uint64_t NowNs() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Starts a trace session writing to `path`. `buffer_kb` sizes EACH
  /// per-thread ring (clamped to >= 8 events). Fails if a session is
  /// already active or the file cannot be created. "%p" in `path` is
  /// replaced by the process id (used by INCSR_TRACE_FILE in CI so
  /// concurrent test binaries do not clobber one file).
  Status Start(const std::string& path, std::size_t buffer_kb = 1024);

  /// Stops the session: final drain, footer, close. Idempotent. Events
  /// emitted by racing producers after the final drain are lost (their
  /// rings are abandoned), never blocked on.
  void Stop();

  /// Hot path (only reached when Enabled()): registers this thread's
  /// ring on first use, then one SPSC push.
  void Emit(const TraceEvent& event);

  /// Sum of written / dropped over the current session's rings. Computed
  /// on demand from the ring heads — no hot-path accounting. Used by
  /// tests (the disabled-macro zero-cost check) and the stop-time log.
  std::uint64_t TotalEventsRecorded() const;
  std::uint64_t TotalEventsDropped() const;
  /// Rings registered in the current session.
  std::size_t ring_count() const;
  /// Path of the active session ("" when stopped).
  std::string active_path() const;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  Tracer() = default;
  ~Tracer();

  struct Impl;

  std::shared_ptr<TraceRing> RegisterThreadRing();
  void DrainerLoop(std::shared_ptr<Impl> impl);
  static void FlushRings(Impl* impl);

  // The macro gate lives outside Impl so Enabled() is a plain static
  // atomic load with no indirection.
  static std::atomic<bool> enabled_;

  mutable std::mutex mu_;               // session lifecycle + registry
  std::shared_ptr<Impl> impl_;          // null when stopped
  std::atomic<std::uint64_t> session_{0};
  std::thread drainer_;
};

/// RAII span: reads the clock at entry, emits ONE event (start + duration)
/// at exit. Costs a single relaxed load when tracing is disabled.
class TraceScope {
 public:
  explicit TraceScope(EventId id, std::uint32_t arg = 0) {
    if (!Tracer::Enabled()) return;
    id_ = id;
    arg_ = arg;
    start_ns_ = Tracer::NowNs();
    armed_ = true;
  }
  ~TraceScope() {
    if (!armed_) return;
    TraceEvent event;
    event.id = static_cast<std::uint16_t>(id_);
    event.kind = static_cast<std::uint8_t>(EventKind::kSpan);
    event.arg = arg_;
    event.ts_ns = start_ns_;
    event.value = Tracer::NowNs() - start_ns_;
    Tracer::Instance().Emit(event);
  }

  /// Attaches context discovered after entry (e.g. rows re-ranked).
  void set_arg(std::uint32_t arg) { arg_ = arg; }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  EventId id_ = EventId::kNone;
  std::uint32_t arg_ = 0;
  std::uint64_t start_ns_ = 0;
  bool armed_ = false;
};

/// Emits one counter / instant event (no-op unless tracing is enabled).
inline void TraceEmit(EventId id, EventKind kind, std::uint32_t arg,
                      std::uint64_t value) {
  if (!Tracer::Enabled()) return;
  TraceEvent event;
  event.id = static_cast<std::uint16_t>(id);
  event.kind = static_cast<std::uint8_t>(kind);
  event.arg = arg;
  event.ts_ns = Tracer::NowNs();
  event.value = value;
  Tracer::Instance().Emit(event);
}

}  // namespace incsr::obs

// Instrumentation macros. `id` is an obs::EventId enumerator name; the
// disabled cost of every macro is the single relaxed load inside
// Tracer::Enabled() / TraceScope's constructor.
#define INCSR_TRACE_CONCAT_INNER(a, b) a##b
#define INCSR_TRACE_CONCAT(a, b) INCSR_TRACE_CONCAT_INNER(a, b)

/// Scoped span: one event carrying entry timestamp + duration.
#define TRACE_SCOPE(id)                                     \
  ::incsr::obs::TraceScope INCSR_TRACE_CONCAT(              \
      incsr_trace_scope_, __LINE__)(::incsr::obs::EventId::id)
/// Scoped span with a u32 context argument.
#define TRACE_SCOPE_ARG(id, arg32)                          \
  ::incsr::obs::TraceScope INCSR_TRACE_CONCAT(              \
      incsr_trace_scope_, __LINE__)(::incsr::obs::EventId::id, \
                                    static_cast<std::uint32_t>(arg32))
/// Scoped span bound to a local name, for set_arg after the fact.
#define TRACE_SCOPE_NAMED(var, id) \
  ::incsr::obs::TraceScope var(::incsr::obs::EventId::id)
/// One counter event (value accumulates in the analyzer).
#define TRACE_COUNTER(id, v)                                 \
  ::incsr::obs::TraceEmit(::incsr::obs::EventId::id,         \
                          ::incsr::obs::EventKind::kCounter, \
                          0, static_cast<std::uint64_t>(v))
/// Counter with a u32 context argument.
#define TRACE_COUNTER_ARG(id, arg32, v)                      \
  ::incsr::obs::TraceEmit(::incsr::obs::EventId::id,         \
                          ::incsr::obs::EventKind::kCounter, \
                          static_cast<std::uint32_t>(arg32), \
                          static_cast<std::uint64_t>(v))
/// Point-in-time marker.
#define TRACE_INSTANT(id, arg32, v)                          \
  ::incsr::obs::TraceEmit(::incsr::obs::EventId::id,         \
                          ::incsr::obs::EventKind::kInstant, \
                          static_cast<std::uint32_t>(arg32), \
                          static_cast<std::uint64_t>(v))

#endif  // INCSR_OBS_TRACE_H_
