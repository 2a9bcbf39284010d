// pool.h — refcounted arena buffer pool for the zero-copy datapath (ngp::buf).
//
// §4's ledger says the stack should touch each data byte once; every copy
// the CostAccount flags on a transfer (sender staging, reassembly
// copy-into-place, sink delivery) exists because layers exchange OWNED flat
// buffers. This pool replaces ownership-by-copy with ownership-by-reference:
// frames are received once into a pool segment, and every later layer holds
// a refcounted slice of that segment instead of its own copy (the
// mbuf/nbuf design — see ROADMAP item 2's pointers into 4.4BSD `sys/mbuf`
// and NPF `nbuf`).
//
// Shape:
//   * fixed SIZE CLASSES, each backed by SLABS carved into equal segments —
//     allocation is a freelist pop, never a heap call on the steady path;
//   * an intrusive atomic refcount per segment; the LAST release recycles
//     the segment back to its class (possibly from another thread — engine
//     workers finish manipulation jobs off the control thread);
//   * a PER-THREAD free cache in front of the central freelist, so the
//     common alloc/release pairs on the control thread never take the lock;
//   * oversize requests fall back to one-off heap segments (counted, so the
//     ledger shows when the class table is mis-sized);
//   * under AddressSanitizer free segments are POISONED, so a stale BufRef
//     dereference after the last release is a hard ASan report instead of
//     silent corruption.
//
// Thread safety: alloc/release are safe from any thread. Everything else
// (stats snapshot, export_metrics) is control-thread-only by convention,
// reading relaxed atomics (monotonic counters, so a snapshot is always
// consistent-enough for gauges).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "util/bytes.h"

namespace ngp::buf {

class BufferPool;

namespace detail {

/// Segment control block. Lives in pool-owned arrays (one per slab), next
/// to — not inside — the data bytes, so poisoned data regions never cover
/// the bookkeeping the pool itself needs.
struct Segment {
  std::atomic<std::uint32_t> refs{0};
  BufferPool* pool = nullptr;  ///< nullptr: one-off heap segment (oversize)
  std::uint32_t class_index = 0;
  std::uint32_t capacity = 0;
  std::uint8_t* data = nullptr;
  Segment* next = nullptr;  ///< freelist link (meaningful only while free)
};

}  // namespace detail

/// Refcounted handle to one pool segment. Copying adds a reference; the
/// destructor of the LAST handle recycles the segment into its pool (or
/// frees it, for oversize heap segments). A default-constructed BufRef is
/// empty and safe to destroy.
class BufRef {
 public:
  BufRef() = default;
  BufRef(const BufRef& o) noexcept : seg_(o.seg_) { retain(); }
  BufRef(BufRef&& o) noexcept : seg_(o.seg_) { o.seg_ = nullptr; }
  BufRef& operator=(const BufRef& o) noexcept {
    if (this != &o) {
      release();
      seg_ = o.seg_;
      retain();
    }
    return *this;
  }
  BufRef& operator=(BufRef&& o) noexcept {
    if (this != &o) {
      release();
      seg_ = o.seg_;
      o.seg_ = nullptr;
    }
    return *this;
  }
  ~BufRef() { release(); }

  explicit operator bool() const noexcept { return seg_ != nullptr; }

  std::uint8_t* data() const noexcept { return seg_ ? seg_->data : nullptr; }
  std::size_t capacity() const noexcept { return seg_ ? seg_->capacity : 0; }
  MutableBytes bytes() const noexcept {
    return seg_ ? MutableBytes{seg_->data, seg_->capacity} : MutableBytes{};
  }

  /// Current reference count (0 for an empty ref). A relaxed read — only
  /// meaningful as "exactly 1" on a thread that itself holds a reference.
  std::uint32_t use_count() const noexcept {
    return seg_ ? seg_->refs.load(std::memory_order_relaxed) : 0;
  }
  bool unique() const noexcept { return use_count() == 1; }

  void reset() noexcept {
    release();
    seg_ = nullptr;
  }

  /// True when `span` lies entirely inside this segment's data region —
  /// the containment test the receiver uses to decide whether an incoming
  /// frame's payload can be referenced instead of copied.
  bool contains(ConstBytes span) const noexcept {
    if (seg_ == nullptr || span.data() == nullptr) return false;
    const std::uint8_t* lo = seg_->data;
    const std::uint8_t* hi = seg_->data + seg_->capacity;
    return span.data() >= lo && span.data() + span.size() <= hi;
  }

 private:
  friend class BufferPool;
  explicit BufRef(detail::Segment* s) noexcept : seg_(s) {}  // adopts one ref

  void retain() noexcept {
    if (seg_) seg_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void release() noexcept;

  detail::Segment* seg_ = nullptr;
};

/// Pool sizing. Defaults fit the ALF datapath: small control frames,
/// mid-size fragments, large reassembled ADUs.
struct PoolConfig {
  /// Segment capacities, ascending. A request is served from the first
  /// class that fits; larger requests get a one-off heap segment.
  std::vector<std::size_t> size_classes{512, 2048, 8192, 65536};
};

/// Monotonic counters + point-in-time gauges. Counter reads are relaxed;
/// see the header comment for the snapshot discipline.
struct PoolStats {
  std::uint64_t allocs = 0;          ///< successful segment allocations
  std::uint64_t heap_fallbacks = 0;  ///< oversize one-off heap segments
  std::uint64_t recycles = 0;        ///< last-release returns to the pool
  std::uint64_t cross_thread_recycles = 0;  ///< recycle via central freelist
  std::uint64_t slab_allocs = 0;            ///< slabs carved
  std::uint64_t cache_hits = 0;             ///< allocs served per-thread
  // Gauges.
  std::uint64_t segments_live = 0;   ///< currently referenced segments
  std::uint64_t segments_total = 0;  ///< carved segments (all slabs)
  std::uint64_t bytes_reserved = 0;  ///< slab bytes owned by the pool
};

/// The arena. Slabs are never returned to the heap before the pool is
/// destroyed; destroying the pool while segments are live is a programming
/// error (asserted in debug builds).
class BufferPool {
 public:
  explicit BufferPool(PoolConfig cfg = {});
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Allocates a segment with capacity >= `bytes`. Never fails (heap
  /// fallback for oversize); returns an empty ref only for bytes == 0.
  BufRef alloc(std::size_t bytes);

  PoolStats stats() const noexcept;

  /// Registered-source body: pool gauges/counters for a MetricsRegistry
  /// (`registry.add_source("buf.pool", [&](auto& s){ pool.export_metrics(s); })`).
  void export_metrics(obs::MetricSink& sink) const;

 private:
  friend class BufRef;
  struct SizeClass;
  struct ThreadCache;

  void recycle(detail::Segment* seg) noexcept;
  detail::Segment* pop_central(std::size_t ci);
  void carve_slab(std::size_t ci);  // central lock held
  ThreadCache* cache_for_this_thread();

  static void poison(detail::Segment* seg) noexcept;
  static void unpoison(detail::Segment* seg) noexcept;

  std::vector<std::unique_ptr<SizeClass>> classes_;

  /// Caches registered by threads that touched this pool; guarded by the
  /// global tls registry mutex (see pool.cpp), not a per-pool one, so the
  /// pool destructor and late thread exits cannot deadlock on each other.
  std::vector<ThreadCache*> caches_;

  std::atomic<std::uint64_t> allocs_{0};
  std::atomic<std::uint64_t> heap_fallbacks_{0};
  std::atomic<std::uint64_t> recycles_{0};
  std::atomic<std::uint64_t> cross_thread_recycles_{0};
  std::atomic<std::uint64_t> slab_allocs_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> live_{0};
  std::atomic<std::uint64_t> segments_total_{0};
  std::atomic<std::uint64_t> bytes_reserved_{0};
};

/// The process-wide pool behind every link and receiver that was given no
/// pool of its own: links deliver each frame inside one of its segments,
/// and receivers copy fragments that arrive outside any segment into it.
/// Default PoolConfig. Never destroyed, so no segment can outlive it.
BufferPool& default_pool();

}  // namespace ngp::buf
