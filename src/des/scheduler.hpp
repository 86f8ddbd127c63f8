// Discrete-event scheduler: the heart of the simulation substrate.
//
// Semantics (identical across both backends, verified bit-for-bit by the
// ordering-equivalence tests in tests/test_scheduler.cpp):
//   * Virtual time is a double in seconds, starting at 0.
//   * Events scheduled for the same instant fire in the order they were
//     scheduled (stable FIFO tie-break via a monotone sequence number).
//     This matters for protocol determinism: a probe and its timeout can
//     coincide, and the outcome must not depend on queue internals.
//   * Scheduling into the past (t < now) is a logic error and throws.
//   * run_until(h) horizon semantics are INCLUSIVE: every event with
//     time <= h fires, including events scheduled at exactly h during
//     the run; afterwards now() == h (for finite h).
//   * Cancellation is O(1) for near-future (wheel-resident) events and
//     O(log n) for far-future ones; either way the slot is reclaimed in
//     place — there are no tombstones to skim on pop.
//
// Implementation: a two-level hashed timer wheel with an indexed
// fallback heap. The protocol's delays are tightly bounded (TOF =
// 0.022 s, TOS = 0.021 s, δ ∈ [δ_min, δ_max] ≤ 10 s — the Varghese &
// Lauck sweet spot), so the overwhelming majority of events land in an
// O(1) fine-wheel slot within the 128 s default span. Longer-horizon
// timers (departure scripts, metrics flushes, δ_max-scale delays across
// fleet-sized models) land in a coarse upper wheel — 32 s slots, ~36 h
// span at the defaults — whose slots *cascade* into the fine wheel as
// the window advances. Only events beyond the coarse span wait in a
// binary min-heap of slot indices, keyed (time, seq), promoted as the
// window slides. Events for the tick currently executing live in the
// *bucket* — a sorted (time, seq) run consumed by cursor that restores
// exact ordering inside one tick. All structures hold 32-bit indices
// into a slab pool of event slots; callbacks are small-buffer-optimized
// InlineFunctions, so the steady-state probe path performs zero heap
// allocation (see docs/performance.md).
//
// The reference backend (SchedulerBackend::kHeap) bypasses the wheel
// and runs everything through one indexed heap — the pre-wheel ordering
// oracle for equivalence tests, and a sanity fallback.
//
// The scheduler is single-threaded by design; the MODEST/MOBIUS tool
// chain the paper used is likewise a sequential simulator. Concurrency
// lives in src/runtime and scenario::SweepRunner (one scheduler per
// worker), not here.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "util/inline_function.hpp"
#include "util/slab_pool.hpp"

namespace probemon::des {

/// Virtual simulation time, seconds.
using Time = double;

/// Sentinel for "never" / "no deadline".
inline constexpr Time kTimeInfinity = std::numeric_limits<Time>::infinity();

/// Move-only event callback with a 48-byte inline capture buffer.
/// Larger captures spill to the heap (and are counted via
/// util::inline_function_heap_allocations()); kernel and core call
/// sites static_assert fits_inline so spills cannot creep in.
using InlineCallback = util::InlineFunction<void()>;

enum class SchedulerBackend : std::uint8_t {
  kWheel,  ///< hashed timer wheel + overflow heap (default, fast path)
  kHeap,   ///< single indexed binary heap (reference ordering oracle)
};

struct SchedulerConfig {
  SchedulerBackend backend = SchedulerBackend::kWheel;
  /// Wheel tick granularity = 2^-tick_bits seconds. Default 2^-8 s
  /// (~3.9 ms): fine enough that probe timeouts (21-22 ms) spread over
  /// several slots, coarse enough that a 10 s SAPP delay stays in-span.
  int tick_bits = 8;
  /// Wheel size = 2^wheel_bits slots. Default 32768 slots * 2^-8 s
  /// = 128 s span — every bounded protocol delay, plus the coarse
  /// scenario scripting (departures, outages) common in experiments,
  /// lands in an O(1) slot. Cost: 128 KiB of slot heads per scheduler,
  /// reserved but never initialised — a head is written when its slot
  /// gains an event and read only while the slot's occupancy bit is set
  /// — plus a 4 KiB zeroed occupancy bitmap. A world that occupies a
  /// handful of slots touches a handful of pages.
  int wheel_bits = 15;
  /// Upper (coarse) wheel level: one coarse slot covers
  /// 2^coarse_tick_bits fine ticks. -1 resolves to
  /// min(13, wheel_bits - 1) — 32 s per coarse slot at the defaults.
  /// The resolved value must stay strictly below wheel_bits so a
  /// cascaded coarse slot always fits inside the fine window.
  int coarse_tick_bits = -1;
  /// Coarse wheel size = 2^coarse_bits slots; 0 disables the coarse
  /// level (fine wheel + overflow heap only, the pre-hierarchical
  /// layout). Default 4096 slots * 32 s ≈ 36 h span: δ_max-scale
  /// timers across 10^6 entities, plus multi-hour departure scripts,
  /// stay O(1) instead of churning the overflow heap.
  int coarse_bits = 12;
};

/// Opaque handle to a scheduled event, usable for cancellation.
/// Value 0 is reserved as "invalid handle".
class EventId {
 public:
  constexpr EventId() noexcept = default;
  constexpr bool valid() const noexcept { return raw_ != 0; }
  constexpr bool operator==(const EventId&) const noexcept = default;

 private:
  friend class Scheduler;
  explicit constexpr EventId(std::uint64_t raw) noexcept : raw_(raw) {}
  std::uint64_t raw_ = 0;
};

/// Event queue with stable same-time ordering and in-place reclamation.
class Scheduler {
 public:
  using Callback = InlineCallback;

  Scheduler() : Scheduler(SchedulerConfig{}) {}
  explicit Scheduler(const SchedulerConfig& config);
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current virtual time.
  Time now() const noexcept { return now_; }

  SchedulerBackend backend() const noexcept { return config_.backend; }

  /// Schedule `fn` at absolute time `t >= now()`. Throws std::logic_error
  /// on scheduling into the past or at a non-finite time.
  EventId schedule_at(Time t, Callback fn);

  /// Schedule `fn` after a non-negative delay.
  EventId schedule_after(Time delay, Callback fn) {
    if (!(delay >= 0)) throw std::logic_error("schedule_after: negative delay");
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancel a pending event. Returns true if the event was pending (and is
  /// now guaranteed not to fire), false if unknown/already fired/cancelled.
  /// The event's slot is reclaimed immediately (generation-tagged, so the
  /// stale handle can never alias a later event).
  bool cancel(EventId id);

  /// True if the event is still pending. O(1): a pool index + generation
  /// check, no hashing.
  bool pending(EventId id) const noexcept;

  /// Number of live pending events.
  std::size_t pending_count() const noexcept { return live_; }
  bool empty() const noexcept { return live_ == 0; }

  /// Time of the next live event, or kTimeInfinity. Non-mutating.
  Time next_time() const;

  /// Execute the single next event. Returns false if none remain.
  bool step() { return fire_next(kTimeInfinity); }

  /// Run events with time <= horizon (INCLUSIVE — an event landing
  /// exactly on the horizon fires, even when scheduled during the run);
  /// afterwards now() == horizon for finite horizons. Returns the number
  /// of events executed.
  std::uint64_t run_until(Time horizon);

  /// Drain the queue completely (with a safety cap on executed events;
  /// throws std::runtime_error if exceeded, catching runaway models).
  std::uint64_t run_all(std::uint64_t max_events = 500'000'000ULL);

  /// Total events executed over the scheduler's lifetime.
  std::uint64_t executed_count() const noexcept { return executed_; }

  /// Peak live pending-event count over the scheduler's lifetime (queue
  /// depth high-water mark; a capacity-planning signal for big models).
  std::size_t queue_high_water() const noexcept { return high_water_; }

  /// Event-slot pool occupancy (telemetry: slabs only ever grow, so a
  /// steady-state model must show a flat pool_slots()).
  std::size_t pool_slots() const noexcept { return pool_.capacity(); }
  std::size_t pool_in_use() const noexcept { return pool_.in_use(); }

  /// Residency split across the wheel hierarchy (telemetry/tests): with
  /// the coarse level enabled, the overflow heap should only ever hold
  /// events beyond the coarse span (~36 h at the defaults).
  std::size_t fine_resident() const noexcept { return wheel_count_; }
  std::size_t coarse_resident() const noexcept { return coarse_count_; }
  std::size_t overflow_resident() const noexcept { return overflow_.size(); }

  /// Test/trace hook invoked as (time, seq) immediately before each
  /// event executes. Used by the ordering-equivalence tests to diff the
  /// wheel path against the reference heap path bit-for-bit.
  using ExecutionProbe = util::InlineFunction<void(Time, std::uint64_t)>;
  void set_execution_probe(ExecutionProbe probe) {
    exec_probe_ = std::move(probe);
  }

 private:
  enum class Location : std::uint8_t {
    kFree,
    kWheel,       ///< intrusive doubly-linked list in a fine wheel slot
    kCoarse,      ///< intrusive doubly-linked list in a coarse wheel slot
    kOverflow,    ///< indexed overflow heap (tick beyond both windows)
    kBucket,      ///< sorted run of the tick currently executing
    kBucketLate,  ///< heap of events scheduled into the current tick mid-run
    kHeap,        ///< single heap of the kHeap reference backend
  };

  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Event {
    Time time = 0;
    std::uint64_t seq = 0;
    std::int64_t tick = 0;
    Callback fn;
    std::uint32_t gen = 0;
    std::uint32_t prev = kNil;      ///< wheel list links
    std::uint32_t next = kNil;
    std::uint32_t heap_pos = kNil;  ///< position in its indexed heap
    Location loc = Location::kFree;
  };

  /// Heap entries carry their sort key inline so sift comparisons stay
  /// within one contiguous array instead of chasing pool indices (the
  /// difference is ~2x on heap-heavy workloads).
  struct HeapEntry {
    Time time = 0;
    std::uint64_t seq = 0;
    std::uint32_t index = kNil;
  };
  using Heap = std::vector<HeapEntry>;

  // --- id packing -----------------------------------------------------------
  static std::uint64_t make_raw(std::uint32_t index, std::uint32_t gen) {
    return (static_cast<std::uint64_t>(gen) << 32) |
           (static_cast<std::uint64_t>(index) + 1);
  }
  bool decode(EventId id, std::uint32_t& index, std::uint32_t& gen) const {
    if (!id.valid()) return false;
    index = static_cast<std::uint32_t>(id.raw_ & 0xffffffffu) - 1;
    gen = static_cast<std::uint32_t>(id.raw_ >> 32);
    // Only handed-out slots hold an Event; a handle minted by another
    // scheduler may point past them.
    return index < pool_.handed_out();
  }

  // --- tick arithmetic ------------------------------------------------------
  std::int64_t tick_of(Time t) const noexcept {
    const double scaled = t * tick_scale_;
    // Clamp absurdly distant times; ordering never depends on the tick
    // (the heaps key on exact (time, seq)), only window placement does.
    constexpr double kClamp = 4.0e18;
    return scaled >= kClamp ? static_cast<std::int64_t>(4'000'000'000'000'000'000LL)
                            : static_cast<std::int64_t>(scaled);
  }
  std::int64_t wheel_span() const noexcept {
    return std::int64_t{1} << config_.wheel_bits;
  }
  std::size_t slot_of(std::int64_t tick) const noexcept {
    return static_cast<std::size_t>(tick) & wheel_mask_;
  }
  bool coarse_enabled() const noexcept { return coarse_shift_ > 0; }
  /// Coarse tick containing a fine tick (coarse level enabled only).
  std::int64_t coarse_tick_of(std::int64_t tick) const noexcept {
    return tick >> coarse_shift_;
  }
  /// Coarse wheel size in slots (coarse level enabled only).
  std::int64_t coarse_slot_count() const noexcept {
    return static_cast<std::int64_t>(coarse_mask_) + 1;
  }
  std::size_t coarse_slot_of(std::int64_t ctick) const noexcept {
    return static_cast<std::size_t>(ctick) & coarse_mask_;
  }
  /// First fine tick NOT covered by the coarse window: events at or past
  /// it wait in the overflow heap.
  std::int64_t coarse_window_end() const noexcept {
    return (coarse_tick_of(cur_tick_) + coarse_slot_count()) << coarse_shift_;
  }

  // --- indexed-heap primitives (keyed by (time, seq), positions written
  // back into Event::heap_pos) ----------------------------------------------
  static bool before(const HeapEntry& a, const HeapEntry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  void heap_push(Heap& heap, std::uint32_t index, Location loc);
  void heap_remove_at(Heap& heap, std::size_t pos);
  void sift_up(Heap& heap, std::size_t pos);
  void sift_down(Heap& heap, std::size_t pos);

  // --- wheel primitives -----------------------------------------------------
  void wheel_insert(std::uint32_t index);
  void wheel_remove(std::uint32_t index);
  void drain_slot_into_bucket(std::size_t slot);
  void promote_overflow();
  std::size_t next_occupied_slot() const;  ///< requires wheel_count_ > 0

  // --- coarse (upper-level) wheel primitives --------------------------------
  void coarse_insert(std::uint32_t index);
  void coarse_remove(std::uint32_t index);
  /// Move every event of one coarse slot down into the fine wheel. The
  /// caller has already advanced cur_tick_ to just before the slot's
  /// window, so each event lands strictly inside the fine span.
  void cascade_coarse_slot(std::size_t slot);
  std::size_t next_occupied_coarse_slot() const;  ///< requires coarse_count_ > 0

  // --- core paths -----------------------------------------------------------
  void place(std::uint32_t index);
  bool bucket_empty() const noexcept {
    return bucket_pos_ >= bucket_run_.size() && bucket_late_.empty();
  }
  bool refill_bucket();
  bool fire_next(Time horizon);
  void free_slot(std::uint32_t index);

  SchedulerConfig config_;
  double tick_scale_ = 256.0;  ///< 2^tick_bits
  std::size_t wheel_mask_ = 0;

  util::SlabPool<Event> pool_;
  /// The tick being executed, as a sorted run consumed front-to-back
  /// (a drained wheel slot is LIFO by seq, so one reverse — plus a sort
  /// only when times inside the tick interleave — yields ascending
  /// (time, seq) order; pops are then cursor bumps, not heap sifts).
  std::vector<HeapEntry> bucket_run_;
  std::size_t bucket_pos_ = 0;
  /// Events scheduled *into* the current tick while it executes (e.g.
  /// zero-delay sends). Rare, so a heap is fine; pops take the min of
  /// this root and the run cursor.
  Heap bucket_late_;
  Heap overflow_;          ///< events beyond the wheel window
  Heap heap_;              ///< kHeap backend: the only structure in use
  /// Wheel slot -> list head. Uninitialised: a head is meaningful only
  /// while the slot's bit in slot_bits_ is set.
  std::unique_ptr<std::uint32_t[]> slot_head_;
  std::vector<std::uint64_t> slot_bits_;  ///< occupancy bitmap over slots
  std::size_t wheel_count_ = 0;
  /// Coarse slot -> list head; valid only where coarse_occ_ is set.
  std::unique_ptr<std::uint32_t[]> coarse_head_;
  std::vector<std::uint64_t> coarse_occ_;  ///< occupancy bitmap
  std::size_t coarse_count_ = 0;
  int coarse_shift_ = 0;  ///< log2 fine ticks per coarse slot; 0 = disabled
  std::size_t coarse_mask_ = 0;
  std::int64_t cur_tick_ = 0;

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::size_t high_water_ = 0;
  ExecutionProbe exec_probe_;
};

}  // namespace probemon::des
