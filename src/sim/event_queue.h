// Discrete-event simulation kernel: a future-event list with cancellation
// and an execution observer (for runtime invariant auditing).
//
// Internals are built for throughput: event payloads live in a slab of
// generation-stamped 24-byte POD slots threaded by an intrusive free list,
// the ordering structure is a radix heap of 16-byte (time bits, gen, slot)
// keys, and steady-state events dispatch through a registered
// (kind, payload) handler table of raw function pointers, so the hot path
// never allocates once its buffers are warm and never touches a
// std::function. Closures remain supported for one-off events (fault
// injection, tests); their std::function state lives in a side column
// touched only by that cold path.
//
// The radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990) relies on two
// facts: the clock is monotone (Enqueue rejects time < Now()), and
// non-negative IEEE-754 doubles order like their bit patterns. Its front is
// a sorted run: the keys at or before an anchor `last_`, in (time, schedule
// order), consumed from a head index. Every later key sits in the bucket of
// the highest bit where its time's bits differ from the anchor's, so a key
// only ever moves to lower buckets. When the run drains, the lowest bucket
// refills it: a bucket that fits in one 32-key block is moved into the run
// whole, insertion-sorted on its time bits, and the anchor becomes its
// largest key; a larger bucket is split by its least key, as in the
// textbook heap. A key scheduled at or before the anchor is inserted into
// the run after every key of equal time. Such inserts are capped: one into
// the middle of a run holding 64 keys re-anchors the heap at Now(), so a
// burst of events scheduled inside a long run's span costs O(keys held)
// once, not O(run length) per event. Bucket keys are stored in fixed-size
// blocks from one pool owned by the queue, so steady state never calls the
// allocator.
//
// There is one dispatch loop, executing events strictly one at a time in
// (time, insertion sequence) order. It is a template instantiated with and
// without an observer, so an unobserved run carries no per-event observer
// branch.

#ifndef VOD_SIM_EVENT_QUEUE_H_
#define VOD_SIM_EVENT_QUEUE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
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
/// tombstoned (generation bumped, payload freed for reuse) and its key is
/// discarded lazily when it reaches the front — or eagerly, when tombstones
/// come to dominate the keys held (see CompactKeys), so cancel-heavy bursts
/// cannot pin memory.
class EventQueue {
 public:
  /// A steady-state event handler: a raw function pointer plus an opaque
  /// context (typically a static member trampoline and the owning object),
  /// called as `fn(ctx, payload)` with the payload stamped at schedule time;
  /// the event time is Now(). Registered once, reused by every event of its
  /// kind — scheduling such events allocates nothing.
  using RawHandler = void (*)(void* ctx, uint64_t payload);

  /// Observer in raw form; see set_observer.
  using RawObserver = void (*)(void* ctx, double time);

  /// Registers a handler and returns its kind id. Kinds are assigned
  /// sequentially from 0 in registration order, so a deterministic
  /// construction order yields deterministic kinds.
  uint64_t AddHandler(RawHandler fn, void* ctx);

  /// Schedules the registered handler `kind` with `payload` at absolute time
  /// `time` (>= Now()). The fast path: no allocation.
  EventToken ScheduleHandler(double time, uint64_t kind, uint64_t payload);

  /// Schedules `action` at absolute time `time` (>= Now()). Returns a token
  /// usable with Cancel.
  EventToken Schedule(double time, std::function<void()> action);

  /// Pre-sizes the slab, the key pool and the front run for about `events`
  /// concurrently pending events, so a run that stays under the estimate
  /// never grows kernel storage mid-simulation. Purely an optimization
  /// hint.
  void Reserve(size_t events);

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

  /// Keys currently held, live + tombstoned (diagnostics; the compaction
  /// regression tests bound this against pending()).
  size_t keys_held() const { return keys_; }

  /// Key slots in the block pool and the front run (diagnostics; the
  /// memory regression test bounds this against pending()).
  size_t key_capacity() const { return blocks_.size() + run_.capacity(); }

  /// Slab slots allocated so far (diagnostics; bounded by the peak number
  /// of concurrently pending events, not by throughput).
  size_t slab_slots() const { return slots_.size(); }

  /// Installs an observer called as `fn(ctx, time)` after each executed
  /// event (state is settled when it fires — the auditor's hook point).
  /// Pass fn == nullptr to remove. The observer must not mutate the queue
  /// beyond scheduling/cancelling (no nested RunNext); whatever it
  /// schedules orders after every event already pending at that time.
  void set_observer(RawObserver fn, void* ctx);

 private:
  /// Generation value of free slots; never issued to a live event, so a
  /// token or key can never match a freed slot.
  static constexpr uint32_t kFreeGen = 0xFFFFFFFFu;
  /// Slot::kind of a closure event (its std::function sits in actions_).
  /// Handler kinds are small sequential ids, so this never collides; the
  /// marker lives in the kind word, so the hot loop classifies an event
  /// with one load and one compare.
  static constexpr uint64_t kClosure = ~uint64_t{0};
  /// Free-list terminator.
  static constexpr uint32_t kNilSlot = 0xFFFFFFFFu;
  /// Buckets: b >= 1 holds the keys after `last_` whose highest bit
  /// differing from it is b - 1; bucket 0 is unused (those keys are in the
  /// run). Times are >= +0.0, so bit 63 never differs.
  static constexpr int kBuckets = 64;
  /// Keys per storage block (512 bytes). Buckets are chains of blocks
  /// drawn from one pool, so every bucket grows and drains without a call
  /// to the allocator. A drained bucket returns every block but its first,
  /// its home, so storage is bounded by the keys held plus one partial
  /// block per bucket.
  static constexpr uint32_t kBlockKeys = 32;
  /// Chain terminator.
  static constexpr uint32_t kNoBlock = 0xFFFFFFFFu;
  /// Run length at which an insert into the middle of the run re-anchors
  /// the heap at Now() instead of shifting keys (see Reanchor).
  static constexpr size_t kRunCap = 64;

  /// One slab slot: 24-byte POD. The event's payload stays put here while
  /// the buckets move only 16-byte keys. `gen` is stamped from a global
  /// counter at schedule time and reset to kFreeGen on free, so liveness of
  /// a key or token is a single compare. Closure state lives in the
  /// actions_ side column (indexed by slot), touched only when kind is
  /// kClosure — the steady-state path never constructs, moves, or destroys
  /// a std::function.
  struct Slot {
    uint64_t kind = kClosure;  ///< handler index, or kClosure
    uint64_t payload = 0;
    uint32_t gen = kFreeGen;
    uint32_t next_free = kNilSlot;
  };

  /// 16-byte key. `bits` is the event time's bit pattern (-0.0 normalised
  /// to +0.0), which orders like the time itself. `gen` is issued by a
  /// monotone counter per Schedule call, so it is the insertion sequence.
  /// Keys are never compared by gen: buckets are appended to in gen order
  /// and refilled into empty buckets in their own order, the run is sorted
  /// stably on bits alone, and a key joins the run after every key of equal
  /// bits, so keys of equal time stay in gen order everywhere. (The u32
  /// counter wraps after 2^32 schedules; a token would have to survive that
  /// long while its slot is reused to alias — live tokens never do.)
  struct Key {
    uint64_t bits;
    uint32_t gen;
    uint32_t slot;
  };

  /// One bucket: a chain of pool blocks, all full but the tail. A drained
  /// bucket is {home, home, 0}; one never used is {kNoBlock, kNoBlock,
  /// kBlockKeys}, so a push tests one field to know it needs a block.
  struct Bucket {
    uint32_t head = kNoBlock;
    uint32_t tail = kNoBlock;
    uint32_t fill = kBlockKeys;  ///< keys in the tail block
  };

  /// Raw handler record: one direct call, no virtual, no std::function.
  struct HandlerRec {
    RawHandler fn = nullptr;
    void* ctx = nullptr;
  };

  static uint64_t TimeBits(double time);
  static double BitsTime(uint64_t bits);

  uint32_t AllocSlot();
  void FreeSlot(uint32_t slot);
  /// Stamps a slot and pushes its key: the common body of both Schedule
  /// forms.
  EventToken Enqueue(double time, uint64_t kind, uint64_t payload);
  /// Places a new key: into the run if at or before `last_`, else into
  /// its bucket.
  void Push(const Key& key);
  /// Appends `key` to bucket `b`.
  void Append(int b, const Key& key);
  /// Inserts `key` (bits <= last_) into the run after every key of equal
  /// or lower bits; re-anchors instead when that would shift a run already
  /// holding kRunCap keys.
  void InsertRun(const Key& key);
  /// Takes a block from the pool's free list, growing the pool if none.
  uint32_t AllocBlock();
  void FreeBlock(uint32_t block);
  /// Removes the front key.
  void PopFront();
  /// Refills the drained run from the lowest non-empty bucket: moves the
  /// whole bucket into the run, sorted, if it fits in one block, else
  /// commits its least key and spreads the rest over the lower buckets.
  /// Returns false, and re-anchors at Now(), when no key is held.
  bool Refill();
  /// Re-anchors the heap at Now(): every held key is re-bucketed against
  /// Now()'s bits and only keys at exactly Now() stay in the run; drops
  /// tombstones on the way. O(keys held).
  void Reanchor();
  /// Drops every tombstoned key in place, returning emptied blocks to the
  /// pool. Called from Cancel when tombstones exceed the live keys, so a
  /// cancel-heavy burst (mass abandonment) cannot pin key storage until its
  /// times come up.
  void CompactKeys();
  /// Executes the front key (caller validated liveness). Advances the
  /// clock, dispatches, and fires the observer. Shared by RunNext and the
  /// closure path of the run loop.
  void ExecuteHead(const Key& head);

  /// The specialized hot loop. kObserved bakes the observer call in or
  /// out; RunUntil picks one of the two instantiations per call.
  template <bool kObserved>
  void RunLoop(double horizon);

  std::array<Bucket, kBuckets> buckets_;
  std::vector<Key> blocks_;           ///< key pool, kBlockKeys per block
  std::vector<uint32_t> next_block_;  ///< chain or free-list link per block
  uint32_t free_block_ = kNoBlock;
  /// The front run: keys at or before `last_` from run_head_ on, sorted by
  /// (bits, gen); entries before run_head_ are consumed. Empty when drained.
  std::vector<Key> run_;
  size_t run_head_ = 0;
  uint64_t occupied_ = 0;   ///< bit b set iff bucket b holds a key
  uint64_t last_ = 0;       ///< anchor: bits bounding the run from above
  size_t keys_ = 0;         ///< keys held, live + tombstoned
  std::vector<Slot> slots_;    ///< POD payload slab, indexed by Key::slot
  /// Side column for closure events, indexed by slot. Sized lazily: a run
  /// that never schedules a closure never allocates it.
  std::vector<std::function<void()>> actions_;
  uint32_t free_head_ = kNilSlot;
  uint32_t next_gen_ = 0;   ///< monotone generation/sequence counter
  size_t live_ = 0;         ///< scheduled, not yet run or cancelled
  size_t tombstones_ = 0;   ///< cancelled keys still held
  double now_ = 0.0;
  uint64_t executed_ = 0;
  std::vector<HandlerRec> handlers_;
  RawObserver observer_fn_ = nullptr;
  void* observer_ctx_ = nullptr;
};

}  // namespace vod

#endif  // VOD_SIM_EVENT_QUEUE_H_
