// Discrete-event simulation kernel: a future-event list with cancellation
// and an execution observer (for runtime invariant auditing).
//
// Internals are built for throughput: event payloads live in a slab of
// generation-stamped 24-byte POD slots threaded by an intrusive free list,
// the ordering structure is a cache-friendly 4-ary implicit heap of 16-byte
// (time, gen, slot) keys, and steady-state events dispatch through a
// registered (kind, payload) handler table of raw function pointers so the
// hot path never allocates and never touches a std::function. Closures
// remain supported for one-off events (fault injection, tests); their
// std::function state lives in a side column touched only by that cold path.
//
// There is one dispatch loop, executing events strictly one at a time in
// (time, insertion sequence) order. It is a template instantiated with and
// without an observer, so an unobserved run carries no per-event observer
// branch.

#ifndef VOD_SIM_EVENT_QUEUE_H_
#define VOD_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <vector>

namespace vod {

/// Handle identifying a scheduled event (for cancellation). Packs the slab
/// slot index (low 32 bits) and the slot's generation stamp at schedule time
/// (high 32 bits); validation is a single generation compare.
using EventToken = uint64_t;

/// Sentinel for "no event scheduled"; Cancel(kNoEvent) is always a no-op.
/// (Decodes to an out-of-range slot with the never-issued generation.)
inline constexpr EventToken kNoEvent = ~EventToken{0};

/// \brief Future-event list ordered by (time, insertion sequence).
///
/// Insertion-sequence tiebreak makes simultaneous events run in schedule
/// order, which keeps runs deterministic. Cancellation is O(1): the slot is
/// tombstoned (generation bumped, payload freed for reuse) and its heap key
/// is discarded lazily at pop time — or eagerly, when tombstones come to
/// dominate the heap (see CompactHeap), so cancel-heavy bursts cannot pin
/// memory.
class EventQueue {
 public:
  /// A steady-state event handler: receives the payload stamped at schedule
  /// time; the event time is Now(). Registered once, reused by every event
  /// of its kind — scheduling such events allocates nothing.
  using Handler = std::function<void(uint64_t payload)>;

  /// The allocation- and indirection-free handler form: a raw function
  /// pointer plus an opaque context (typically a static member trampoline
  /// and the owning object). The std::function overload boxes into this.
  using RawHandler = void (*)(void* ctx, uint64_t payload);

  /// Observer in raw form; see set_observer.
  using RawObserver = void (*)(void* ctx, double time);

  /// Registers `handler` and returns its kind id. Kinds are assigned
  /// sequentially from 0 in registration order, so a deterministic
  /// construction order yields deterministic kinds.
  /// This overload boxes the std::function and dispatches it through a
  /// trampoline; the RawHandler overload below avoids even that.
  uint64_t AddHandler(Handler handler);

  /// Registers a raw handler: `fn(ctx, payload)` is called directly from
  /// the run loop with zero indirection beyond the table load.
  uint64_t AddHandler(RawHandler fn, void* ctx);

  /// Schedules the registered handler `kind` with `payload` at absolute time
  /// `time` (>= Now()). The fast path: no allocation.
  EventToken ScheduleHandler(double time, uint64_t kind, uint64_t payload);

  /// Schedules `action` at absolute time `time` (>= Now()). Returns a token
  /// usable with Cancel.
  EventToken Schedule(double time, std::function<void()> action);

  /// Pre-sizes the heap and slab for about `events` concurrently pending
  /// events, so a run that stays under the estimate never grows kernel
  /// storage mid-simulation. Purely an optimization hint.
  void Reserve(size_t events) {
    heap_.reserve(events + kHeapPads);
    slots_.reserve(events);
  }

  /// Cancels a scheduled event. Cancelling an already-run, already-cancelled,
  /// or unknown token (including kNoEvent) is a safe no-op.
  void Cancel(EventToken token);

  /// Runs the earliest pending event, advancing Now(). Returns false when
  /// the queue is empty.
  bool RunNext();

  /// Runs events until the queue empties or the next event is after
  /// `horizon`; Now() ends at max(horizon, last event time). Events at
  /// exactly `horizon` are executed. Dispatches to the observed or the
  /// unobserved loop instantiation, selected once per call, so the
  /// per-event path carries no observer branch it does not need.
  void RunUntil(double horizon);

  /// Current simulation time (time of the last executed event).
  double Now() const { return now_; }

  size_t pending() const { return live_; }
  bool empty() const { return live_ == 0; }

  /// Total events executed by RunNext (cancelled pops excluded).
  uint64_t executed() const { return executed_; }

  /// Heap keys currently held, live + tombstoned (diagnostics; the
  /// compaction regression test bounds this against pending()).
  size_t heap_nodes() const { return heap_.size(); }

  /// Slab slots allocated so far (diagnostics; bounded by the peak number
  /// of concurrently pending events, not by throughput).
  size_t slab_slots() const { return slots_.size(); }

  /// Installs an observer invoked after each executed event with the event
  /// time (state is settled when it fires — the auditor's hook point).
  /// Pass an empty function to remove. The observer must not mutate the
  /// queue beyond scheduling/cancelling (no nested RunNext); whatever it
  /// schedules orders after every event already pending at that time.
  /// This overload boxes through a trampoline — it is the cold
  /// configuration path. Hot callers install a raw observer below.
  void set_observer(std::function<void(double)> observer);

  /// Raw observer: called as `fn(ctx, time)`. Pass fn == nullptr to remove.
  void set_observer(RawObserver fn, void* ctx);

 private:
  /// Generation value of free slots; never issued to a live event, so a
  /// token or heap key can never match a freed slot.
  static constexpr uint32_t kFreeGen = 0xFFFFFFFFu;
  /// Slot::kind of a closure event (its std::function sits in actions_).
  /// Handler kinds are small sequential ids, so this never collides; the
  /// marker lives in the kind word, so the hot loop classifies an event
  /// with one load and one compare.
  static constexpr uint64_t kClosure = ~uint64_t{0};
  /// Free-list terminator.
  static constexpr uint32_t kNilSlot = 0xFFFFFFFFu;

  /// One slab slot: 24-byte POD. The event's payload stays put here while
  /// the heap shuffles only 16-byte keys. `gen` is stamped from a global
  /// counter at schedule time and reset to kFreeGen on free, so liveness of
  /// a heap key or token is a single compare. Closure state lives in the
  /// actions_ side column (indexed by slot), touched only when kind is
  /// kClosure — the steady-state path never constructs, moves, or destroys
  /// a std::function.
  struct Slot {
    uint64_t kind = kClosure;  ///< handler index, or kClosure
    uint64_t payload = 0;
    uint32_t gen = kFreeGen;
    uint32_t next_free = kNilSlot;
  };

  /// 16-byte heap key. `gen` doubles as the determinism tiebreak: it is
  /// issued by a monotone counter per Schedule call, so (time, gen) order
  /// equals (time, insertion sequence) order. (The u32 counter wraps after
  /// 2^32 schedules; simultaneous events 4e9 schedules apart cannot occur
  /// in these workloads, and a token would have to survive that long while
  /// its slot is reused to alias — live tokens never do.)
  struct HeapKey {
    double time;
    uint32_t gen;
    uint32_t slot;
  };

  /// Minimal over-aligning allocator for the heap array. Four 16-byte keys
  /// are one 64-byte cache line; the aligned layout below only pays off if
  /// index-group boundaries coincide with line boundaries, which needs the
  /// base pointer itself line-aligned (std::allocator only guarantees 16).
  template <typename T, std::size_t kAlign>
  struct AlignedAlloc {
    using value_type = T;
    /// Explicit rebind: the default allocator_traits rebind cannot rewrite
    /// the first argument past a non-type template parameter.
    template <typename U>
    struct rebind {
      using other = AlignedAlloc<U, kAlign>;
    };
    AlignedAlloc() = default;
    template <typename U>
    AlignedAlloc(const AlignedAlloc<U, kAlign>&) {}
    T* allocate(std::size_t n) {
      return static_cast<T*>(
          ::operator new(n * sizeof(T), std::align_val_t{kAlign}));
    }
    void deallocate(T* p, std::size_t n) {
      ::operator delete(p, n * sizeof(T), std::align_val_t{kAlign});
    }
    template <typename U>
    bool operator==(const AlignedAlloc<U, kAlign>&) const {
      return true;
    }
  };

  /// Cache-aligned 4-ary layout. The textbook children(i) = 4i+1 places
  /// every sibling group astride a cache-line boundary (groups start at
  /// odd offsets 1, 5, 9, ...), so each SiftDown level touches two lines.
  /// Shifting the tree so groups start at multiples of 4 — root at 0,
  /// indices 1..3 dead padding, level ℓ ≥ 1 packed contiguously — makes
  /// every group exactly one line: children(0) = {4..7} and
  /// children(i) = {4i-8 .. 4i-5} for i ≥ 4; parent(c) = 0 for c < 8,
  /// (c >> 2) + 2 otherwise. Pads are never compared or iterated (index
  /// checks, not sentinel values, keep them out of every walk).
  static constexpr std::size_t kHeapPads = 3;
  static std::size_t HeapChild(std::size_t i) {
    return i == 0 ? 4 : (i << 2) - 8;
  }
  static std::size_t HeapParent(std::size_t i) {
    return i < 8 ? 0 : (i >> 2) + 2;
  }
  static bool IsHeapPad(std::size_t i) { return i >= 1 && i <= kHeapPads; }

  /// Raw handler record: one direct call, no virtual, no std::function.
  struct HandlerRec {
    RawHandler fn = nullptr;
    void* ctx = nullptr;
  };

  /// True when `a` must run before `b`. Written branch-free on purpose
  /// (setcc + bitwise ops, no jumps): SiftDown's min-of-4 selection runs
  /// this on effectively random keys ~15 times per pop, and the
  /// short-circuit form mispredicts about half of them — the single
  /// largest cost in the whole kernel before this change.
  static bool RunsBefore(const HeapKey& a, const HeapKey& b) {
    return (a.time < b.time) | ((a.time == b.time) & (a.gen < b.gen));
  }

  uint32_t AllocSlot();
  void FreeSlot(uint32_t slot);
  /// Stamps a slot and pushes its key: the common body of both Schedule
  /// forms.
  EventToken Enqueue(double time, uint64_t kind, uint64_t payload);
  /// Appends `key` and restores heap order; inserts the alignment pads when
  /// the array crosses one element.
  void PushKey(HeapKey key);
  /// Bottom-up O(n) heapify over the aligned layout (children always have
  /// higher indices than their parent, so one descending SiftDown pass).
  void HeapifyAll();
  void PopRoot();
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  /// Drops every tombstoned key and re-heapifies in O(n). Called from
  /// Cancel when tombstones exceed the live keys, so a cancel-heavy burst
  /// (mass abandonment) cannot pin heap memory until pop time.
  void CompactHeap();
  /// Executes the live head key (caller validated liveness). Advances the
  /// clock, dispatches, and fires the observer. Shared by RunNext and the
  /// closure path of the run loop.
  void ExecuteHead(const HeapKey& head);

  /// The specialized hot loop. kObserved bakes the observer call in or
  /// out; RunUntil picks one of the two instantiations per call.
  template <bool kObserved>
  void RunLoop(double horizon);

  /// 4-ary implicit min-heap in the cache-aligned layout above: physical
  /// size is 0, 1, or live-keys + kHeapPads.
  std::vector<HeapKey, AlignedAlloc<HeapKey, 64>> heap_;
  std::vector<Slot> slots_;    ///< POD payload slab, indexed by HeapKey::slot
  /// Side column for closure events, indexed by slot. Sized lazily: a run
  /// that never schedules a closure never allocates it.
  std::vector<std::function<void()>> actions_;
  uint32_t free_head_ = kNilSlot;
  uint32_t next_gen_ = 0;   ///< monotone generation/sequence counter
  size_t live_ = 0;         ///< scheduled, not yet run or cancelled
  size_t tombstones_ = 0;   ///< cancelled keys still in heap_
  double now_ = 0.0;
  uint64_t executed_ = 0;
  std::vector<HandlerRec> handlers_;
  /// Boxed std::function handlers (the compat AddHandler overload); heap
  /// allocation keeps their addresses stable across vector growth.
  std::vector<std::unique_ptr<Handler>> boxed_handlers_;
  RawObserver observer_fn_ = nullptr;
  void* observer_ctx_ = nullptr;
  std::function<void(double)> observer_boxed_;  ///< backing for the overload
};

}  // namespace vod

#endif  // VOD_SIM_EVENT_QUEUE_H_
