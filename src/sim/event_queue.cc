#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.h"

namespace vod {

uint64_t EventQueue::TimeBits(double time) {
  // Adding +0.0 maps -0.0 to +0.0 and leaves every other time as it is, so
  // equal times have equal bits.
  return std::bit_cast<uint64_t>(time + 0.0);
}

double EventQueue::BitsTime(uint64_t bits) { return std::bit_cast<double>(bits); }

uint64_t EventQueue::AddHandler(RawHandler fn, void* ctx) {
  VOD_CHECK_MSG(fn != nullptr, "event handler must be callable");
  handlers_.push_back(HandlerRec{fn, ctx});
  return handlers_.size() - 1;
}

void EventQueue::set_observer(RawObserver fn, void* ctx) {
  observer_fn_ = fn;
  observer_ctx_ = fn != nullptr ? ctx : nullptr;
}

void EventQueue::Reserve(size_t events) {
  slots_.reserve(events);
  const size_t blocks = events / kBlockKeys + kBuckets;
  blocks_.reserve(blocks * kBlockKeys);
  next_block_.reserve(blocks);
  run_.reserve(kRunCap);
}

uint32_t EventQueue::AllocSlot() {
  if (free_head_ != kNilSlot) {
    const uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  VOD_CHECK_MSG(slots_.size() < kNilSlot, "event slab exhausted");
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventQueue::FreeSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.kind == kClosure) {
    actions_[slot] = nullptr;  // release any captured state promptly
  }
  s.gen = kFreeGen;
  s.next_free = free_head_;
  free_head_ = slot;
}

EventToken EventQueue::Enqueue(double time, uint64_t kind, uint64_t payload) {
  // Also keeps every key at or after Now(), which a re-anchor relies on.
  VOD_CHECK_MSG(time >= now_, "cannot schedule an event in the past");
  if (next_gen_ == kFreeGen) next_gen_ = 0;  // skip the free sentinel on wrap
  const uint32_t gen = next_gen_++;
  const uint32_t slot = AllocSlot();
  Slot& s = slots_[slot];
  s.gen = gen;
  s.kind = kind;
  s.payload = payload;
  Push(Key{TimeBits(time), gen, slot});
  ++keys_;
  ++live_;
  return (static_cast<uint64_t>(gen) << 32) | slot;
}

EventToken EventQueue::ScheduleHandler(double time, uint64_t kind,
                                       uint64_t payload) {
  // Steady-state fast path: the side action column is never touched, so
  // this never constructs, moves, or destroys a std::function.
  VOD_CHECK_MSG(kind < handlers_.size(), "unregistered event handler kind");
  return Enqueue(time, kind, payload);
}

EventToken EventQueue::Schedule(double time, std::function<void()> action) {
  const EventToken token = Enqueue(time, kClosure, 0);
  const uint32_t slot = static_cast<uint32_t>(token);
  if (actions_.size() <= slot) actions_.resize(slots_.size());
  actions_[slot] = std::move(action);
  return token;
}

void EventQueue::Cancel(EventToken token) {
  const uint32_t slot = static_cast<uint32_t>(token);
  const uint32_t gen = static_cast<uint32_t>(token >> 32);
  // kNoEvent, stale, and malformed tokens all fail one of these compares;
  // gen == kFreeGen can never belong to a live event.
  if (gen == kFreeGen || slot >= slots_.size() || slots_[slot].gen != gen) {
    return;
  }
  FreeSlot(slot);
  --live_;
  ++tombstones_;
  // Lazy deletion must not pin memory after a cancel-heavy burst: once
  // tombstones dominate, drop them all in O(keys).
  if (tombstones_ > keys_ / 2 && keys_ > 64) CompactKeys();
}

uint32_t EventQueue::AllocBlock() {
  if (free_block_ != kNoBlock) {
    const uint32_t block = free_block_;
    free_block_ = next_block_[block];
    return block;
  }
  VOD_CHECK_MSG(next_block_.size() < kNoBlock, "event key pool exhausted");
  blocks_.resize(blocks_.size() + kBlockKeys);
  next_block_.push_back(kNoBlock);
  return static_cast<uint32_t>(next_block_.size() - 1);
}

void EventQueue::FreeBlock(uint32_t block) {
  next_block_[block] = free_block_;
  free_block_ = block;
}

void EventQueue::Push(const Key& key) {
  if (key.bits > last_) {
    Append(std::bit_width(key.bits ^ last_), key);
  } else {
    InsertRun(key);
  }
}

// Inline: it is on every schedule's path, and with three callers GCC 12
// otherwise calls it out of line.
inline void EventQueue::Append(int b, const Key& key) {
  Bucket& bucket = buckets_[b];
  if (bucket.fill == kBlockKeys) {
    const uint32_t block = AllocBlock();
    next_block_[block] = kNoBlock;
    if (bucket.tail == kNoBlock) {
      bucket.head = block;
    } else {
      next_block_[bucket.tail] = block;
    }
    bucket.tail = block;
    bucket.fill = 0;
  }
  blocks_[size_t{bucket.tail} * kBlockKeys + bucket.fill++] = key;
  occupied_ |= uint64_t{1} << b;
}

void EventQueue::InsertRun(const Key& key) {
  if (run_.empty() || key.bits >= run_.back().bits) {
    // Append. Once the consumed prefix is at least half the run, a full
    // buffer slides the live keys down instead of growing, so storage
    // follows the live run, not the keys it has ever held.
    if (run_.size() == run_.capacity() && 2 * run_head_ >= run_.size()) {
      run_.erase(run_.begin(),
                 run_.begin() + static_cast<ptrdiff_t>(run_head_));
      run_head_ = 0;
    }
    run_.push_back(key);
    return;
  }
  const auto first = run_.begin() + static_cast<ptrdiff_t>(run_head_);
  if (static_cast<size_t>(run_.end() - first) >= kRunCap) {
    Reanchor();
    Push(key);  // against the new anchor: a bucket, or the run if at Now()
    return;
  }
  const auto pos = std::upper_bound(
      first, run_.end(), key.bits,
      [](uint64_t bits, const Key& k) { return bits < k.bits; });
  if (run_head_ > 0) {  // shift the earlier keys into the consumed prefix
    std::move(first, pos, first - 1);
    *(pos - 1) = key;
    --run_head_;
  } else {
    run_.insert(pos, key);
  }
}

void EventQueue::PopFront() {
  --keys_;
  if (++run_head_ == run_.size()) {
    run_.clear();
    run_head_ = 0;
  }
}

bool EventQueue::Refill() {
  if (occupied_ == 0) {
    // Nothing held: re-anchor at Now(), so keys scheduled next start in
    // the buckets, not as inserts into the middle of a run.
    last_ = TimeBits(now_);
    return false;
  }
  const int from = std::countr_zero(occupied_);
  const Bucket src = buckets_[from];
  buckets_[from] = Bucket{src.head, src.head, 0};
  occupied_ &= ~(uint64_t{1} << from);
  if (src.head == src.tail) {
    // One block: the whole bucket becomes the run, insertion-sorted on bits
    // (stable, so equal times keep the bucket's gen order), and its largest
    // key the anchor. The new anchor agrees with the old one on every bit
    // at or above `from`, so every higher bucket stays valid.
    const Key* keys = &blocks_[size_t{src.head} * kBlockKeys];
    run_.assign(keys, keys + src.fill);
    for (size_t i = 1; i < run_.size(); ++i) {
      const Key key = run_[i];
      size_t j = i;
      for (; j > 0 && run_[j - 1].bits > key.bits; --j) run_[j] = run_[j - 1];
      run_[j] = key;
    }
    last_ = run_.back().bits;
    return true;
  }
  uint64_t min = ~uint64_t{0};
  for (uint32_t block = src.head;; block = next_block_[block]) {
    const uint32_t n = block == src.tail ? src.fill : kBlockKeys;
    const Key* keys = &blocks_[size_t{block} * kBlockKeys];
    for (uint32_t i = 0; i < n; ++i) min = std::min(min, keys[i].bits);
    if (block == src.tail) break;
  }
  last_ = min;
  // Keys at the minimum form the run in src's order; every bucket below
  // `from` is empty, so appending in src's order keeps each one in gen
  // order, and every other key moves to a strictly lower bucket. Blocks
  // but the home one go back to the pool once read. (Keys are read by
  // index: an Append may grow the pool.)
  for (uint32_t block = src.head;;) {
    const bool tail = block == src.tail;
    const uint32_t n = tail ? src.fill : kBlockKeys;
    const uint32_t next = next_block_[block];
    const size_t base = size_t{block} * kBlockKeys;
    for (uint32_t i = 0; i < n; ++i) {
      const Key key = blocks_[base + i];
      if (key.bits == min) {
        run_.push_back(key);
      } else {
        Append(std::bit_width(key.bits ^ min), key);
      }
    }
    if (block != src.head) FreeBlock(block);
    if (tail) return true;
    block = next;
  }
}

void EventQueue::Reanchor() {
  // Every held key is at or after Now(), so the run's keys at Now() are
  // its head and stay; the rest of the run and every bucket are gathered
  // in order (keys of equal bits all come from one of them, in gen order)
  // and re-bucketed against Now(). Tombstones are dropped on the way.
  const uint64_t anchor = TimeBits(now_);
  std::vector<Key> held;
  held.reserve(keys_);
  size_t kept = 0;
  for (size_t i = run_head_; i < run_.size(); ++i) {
    const Key key = run_[i];
    if (slots_[key.slot].gen != key.gen) continue;  // tombstone
    if (key.bits == anchor) {
      run_[kept++] = key;
    } else {
      held.push_back(key);
    }
  }
  run_.resize(kept);
  run_head_ = 0;
  for (uint64_t m = occupied_; m != 0; m &= m - 1) {
    const int b = std::countr_zero(m);
    const Bucket bucket = buckets_[b];
    for (uint32_t block = bucket.head;;) {
      const bool tail = block == bucket.tail;
      const uint32_t n = tail ? bucket.fill : kBlockKeys;
      const uint32_t next = next_block_[block];
      const Key* keys = &blocks_[size_t{block} * kBlockKeys];
      for (uint32_t i = 0; i < n; ++i) {
        if (slots_[keys[i].slot].gen == keys[i].gen) held.push_back(keys[i]);
      }
      if (block != bucket.head) FreeBlock(block);
      if (tail) break;
      block = next;
    }
    buckets_[b] = Bucket{bucket.head, bucket.head, 0};
  }
  occupied_ = 0;
  last_ = anchor;
  for (const Key& key : held) Append(std::bit_width(key.bits ^ anchor), key);
  keys_ = live_;
  tombstones_ = 0;
}

void EventQueue::CompactKeys() {
  // In place, keeping each bucket's and the run's order; the run's consumed
  // prefix goes too, and blocks left empty, but a bucket's home block,
  // return to the pool.
  size_t run_kept = 0;
  for (size_t i = run_head_; i < run_.size(); ++i) {
    const Key key = run_[i];
    if (slots_[key.slot].gen == key.gen) run_[run_kept++] = key;
  }
  run_.resize(run_kept);
  run_head_ = 0;
  for (uint64_t m = occupied_; m != 0; m &= m - 1) {
    const int b = std::countr_zero(m);
    Bucket& bucket = buckets_[b];
    uint32_t read = bucket.head;
    uint32_t pos = 0;
    uint32_t write = bucket.head;
    uint32_t kept = 0;
    for (;;) {
      const uint32_t n = read == bucket.tail ? bucket.fill : kBlockKeys;
      for (; pos < n; ++pos) {
        const Key key = blocks_[size_t{read} * kBlockKeys + pos];
        if (slots_[key.slot].gen != key.gen) continue;  // tombstone
        if (kept == kBlockKeys) {
          write = next_block_[write];
          kept = 0;
        }
        blocks_[size_t{write} * kBlockKeys + kept++] = key;
      }
      if (read == bucket.tail) break;
      read = next_block_[read];
      pos = 0;
    }
    if (write != bucket.tail) {  // free the blocks past the last written
      next_block_[bucket.tail] = free_block_;
      free_block_ = next_block_[write];
    }
    bucket.tail = write;
    bucket.fill = kept;
    if (kept == 0) occupied_ &= ~(uint64_t{1} << b);
  }
  keys_ = live_;
  tombstones_ = 0;
}

void EventQueue::ExecuteHead(const Key& head) {
  PopFront();
  Slot& s = slots_[head.slot];
  const uint64_t kind = s.kind;
  const uint64_t payload = s.payload;
  std::function<void()> action;
  if (kind == kClosure) action = std::move(actions_[head.slot]);
  FreeSlot(head.slot);  // before dispatch: the action may reuse the slot
  --live_;
  now_ = BitsTime(head.bits);
  if (kind == kClosure) {
    action();
  } else {
    const HandlerRec h = handlers_[kind];
    h.fn(h.ctx, payload);
  }
  ++executed_;
  if (observer_fn_ != nullptr) observer_fn_(observer_ctx_, now_);
}

bool EventQueue::RunNext() {
  while (run_head_ < run_.size() || Refill()) {
    const Key head = run_[run_head_];
    if (slots_[head.slot].gen != head.gen) {  // tombstone: discard lazily
      PopFront();
      --tombstones_;
      continue;
    }
    ExecuteHead(head);
    return true;
  }
  return false;
}

template <bool kObserved>
void EventQueue::RunLoop(double horizon) {
  while (run_head_ < run_.size() || Refill()) {
    const Key head = run_[run_head_];
    Slot& s = slots_[head.slot];
    if (s.gen != head.gen) {  // tombstone: discard lazily
      PopFront();
      --tombstones_;
      continue;
    }
    const double time = BitsTime(head.bits);
    if (time > horizon) break;
    const uint64_t kind = s.kind;
    if (kind == kClosure) {
      // Closure event (faults, timers, tests): cold path; ExecuteHead fires
      // the observer itself.
      ExecuteHead(head);
      continue;
    }
    // Handler dispatch, inlined (no action column, no std::function).
    PopFront();
    const uint64_t payload = s.payload;
    s.gen = kFreeGen;
    s.next_free = free_head_;
    free_head_ = head.slot;
    --live_;
    now_ = time;
    const HandlerRec h = handlers_[kind];
    h.fn(h.ctx, payload);
    ++executed_;
    if constexpr (kObserved) observer_fn_(observer_ctx_, now_);
  }
  if (now_ < horizon) now_ = horizon;
}

void EventQueue::RunUntil(double horizon) {
  if (observer_fn_ != nullptr) {
    RunLoop<true>(horizon);
  } else {
    RunLoop<false>(horizon);
  }
}

}  // namespace vod
