#include "buf/pool.h"

#include <cassert>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define NGP_BUF_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NGP_BUF_ASAN 1
#endif
#endif

#ifdef NGP_BUF_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace ngp::buf {

namespace {

constexpr std::uint32_t kHeapClass = 0xffffffffu;
constexpr std::size_t kSlabAlign = 64;

/// Guards every pool's thread-cache registry (registration, orphaning at
/// pool destruction, flushing at thread exit). One global mutex: these are
/// cold paths — a cache is created once per (thread, pool) pair.
std::mutex& tls_registry_mutex() {
  static std::mutex mu;
  return mu;
}

struct AlignedDelete {
  void operator()(std::uint8_t* p) const noexcept {
    ::operator delete[](p, std::align_val_t{kSlabAlign});
  }
};
using SlabStorage = std::unique_ptr<std::uint8_t[], AlignedDelete>;

SlabStorage make_slab_storage(std::size_t bytes) {
  return SlabStorage(static_cast<std::uint8_t*>(
      ::operator new[](bytes, std::align_val_t{kSlabAlign})));
}

constexpr std::size_t round_up(std::size_t n, std::size_t a) noexcept {
  return (n + a - 1) / a * a;
}

}  // namespace

struct BufferPool::SizeClass {
  std::size_t capacity = 0;
  std::mutex mu;
  detail::Segment* free_head = nullptr;  // guarded by mu
  // Slab storage + header arrays. unique_ptr keeps addresses stable while
  // the vectors grow; Segment holds an atomic and must never move.
  std::vector<SlabStorage> slabs;
  std::vector<std::unique_ptr<std::vector<detail::Segment>>> headers;
};

struct BufferPool::ThreadCache {
  BufferPool* pool = nullptr;  // guarded by tls_registry_mutex(); nullptr
                               // once the pool orphaned this cache
  std::vector<std::vector<detail::Segment*>> free;  // per class, this thread
  ~ThreadCache() {
    std::lock_guard lk(tls_registry_mutex());
    if (pool == nullptr) return;  // pool died first; segments already freed
    for (std::size_t ci = 0; ci < free.size(); ++ci) {
      SizeClass& sc = *pool->classes_[ci];
      std::lock_guard slk(sc.mu);
      for (detail::Segment* s : free[ci]) {
        s->next = sc.free_head;
        sc.free_head = s;
      }
    }
    auto& reg = pool->caches_;
    for (auto it = reg.begin(); it != reg.end(); ++it) {
      if (*it == this) {
        reg.erase(it);
        break;
      }
    }
  }
};

void BufferPool::poison(detail::Segment* seg) noexcept {
#ifdef NGP_BUF_ASAN
  __asan_poison_memory_region(seg->data, seg->capacity);
#else
  (void)seg;
#endif
}

void BufferPool::unpoison(detail::Segment* seg) noexcept {
#ifdef NGP_BUF_ASAN
  __asan_unpoison_memory_region(seg->data, seg->capacity);
#else
  (void)seg;
#endif
}

BufferPool::BufferPool(PoolConfig cfg) {
  assert(!cfg.size_classes.empty());
  classes_.reserve(cfg.size_classes.size());
  for (std::size_t cap : cfg.size_classes) {
    auto sc = std::make_unique<SizeClass>();
    sc->capacity = cap;
    classes_.push_back(std::move(sc));
  }
}

BufferPool::~BufferPool() {
  assert(live_.load(std::memory_order_relaxed) == 0 &&
         "BufferPool destroyed with live segments");
  {
    // Orphan every per-thread cache so late thread exits skip the flush.
    std::lock_guard lk(tls_registry_mutex());
    for (ThreadCache* c : caches_) c->pool = nullptr;
    caches_.clear();
  }
  // Unpoison everything before the slabs go back to the allocator.
  for (auto& sc : classes_) {
    for (auto& hdrs : sc->headers) {
      for (detail::Segment& s : *hdrs) unpoison(&s);
    }
  }
}

/// Segments carved per slab allocation.
constexpr std::size_t kSlabSegments = 32;

void BufferPool::carve_slab(std::size_t ci) {
  SizeClass& sc = *classes_[ci];
  const std::size_t stride = round_up(sc.capacity, kSlabAlign);
  SlabStorage storage = make_slab_storage(stride * kSlabSegments);
  auto hdrs = std::make_unique<std::vector<detail::Segment>>(kSlabSegments);
  for (std::size_t i = 0; i < kSlabSegments; ++i) {
    detail::Segment& s = (*hdrs)[i];
    s.pool = this;
    s.class_index = static_cast<std::uint32_t>(ci);
    s.capacity = static_cast<std::uint32_t>(sc.capacity);
    s.data = storage.get() + i * stride;
    poison(&s);
    s.next = sc.free_head;
    sc.free_head = &s;
  }
  sc.slabs.push_back(std::move(storage));
  sc.headers.push_back(std::move(hdrs));
  slab_allocs_.fetch_add(1, std::memory_order_relaxed);
  segments_total_.fetch_add(kSlabSegments, std::memory_order_relaxed);
  bytes_reserved_.fetch_add(stride * kSlabSegments, std::memory_order_relaxed);
}

detail::Segment* BufferPool::pop_central(std::size_t ci) {
  SizeClass& sc = *classes_[ci];
  std::lock_guard lk(sc.mu);
  if (sc.free_head == nullptr) carve_slab(ci);
  detail::Segment* s = sc.free_head;
  sc.free_head = s->next;
  s->next = nullptr;
  return s;
}

BufferPool::ThreadCache* BufferPool::cache_for_this_thread() {
  static thread_local std::vector<std::unique_ptr<ThreadCache>> caches;
  for (auto& c : caches) {
    if (c->pool == this) return c.get();
  }
  auto c = std::make_unique<ThreadCache>();
  c->pool = this;
  c->free.resize(classes_.size());
  {
    std::lock_guard lk(tls_registry_mutex());
    caches_.push_back(c.get());
  }
  caches.push_back(std::move(c));
  return caches.back().get();
}

BufRef BufferPool::alloc(std::size_t bytes) {
  if (bytes == 0) return BufRef{};
  std::size_t ci = classes_.size();
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    if (classes_[i]->capacity >= bytes) {
      ci = i;
      break;
    }
  }
  allocs_.fetch_add(1, std::memory_order_relaxed);
  live_.fetch_add(1, std::memory_order_relaxed);

  if (ci == classes_.size()) {
    // Oversize: one-off heap segment, refcounted and freed on last release.
    heap_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    auto* s = new detail::Segment;
    s->pool = this;
    s->class_index = kHeapClass;
    s->capacity = static_cast<std::uint32_t>(bytes);
    s->data = static_cast<std::uint8_t*>(
        ::operator new[](bytes, std::align_val_t{kSlabAlign}));
    s->refs.store(1, std::memory_order_relaxed);
    return BufRef{s};
  }

  detail::Segment* s = nullptr;
  ThreadCache* tc = cache_for_this_thread();
  auto& local = tc->free[ci];
  if (!local.empty()) {
    s = local.back();
    local.pop_back();
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    s = pop_central(ci);
  }
  unpoison(s);
  s->refs.store(1, std::memory_order_relaxed);
  return BufRef{s};
}

/// Per-thread free-cache capacity (segments per class per thread).
constexpr std::size_t kThreadCacheSegments = 16;

void BufferPool::recycle(detail::Segment* seg) noexcept {
  live_.fetch_sub(1, std::memory_order_relaxed);
  recycles_.fetch_add(1, std::memory_order_relaxed);
  if (seg->class_index == kHeapClass) {
    ::operator delete[](seg->data, std::align_val_t{kSlabAlign});
    delete seg;
    return;
  }
  poison(seg);
  const std::size_t ci = seg->class_index;
  ThreadCache* tc = cache_for_this_thread();
  auto& local = tc->free[ci];
  if (local.size() < kThreadCacheSegments) {
    local.push_back(seg);
    return;
  }
  cross_thread_recycles_.fetch_add(1, std::memory_order_relaxed);
  SizeClass& sc = *classes_[ci];
  std::lock_guard lk(sc.mu);
  seg->next = sc.free_head;
  sc.free_head = seg;
}

void BufRef::release() noexcept {
  if (seg_ == nullptr) return;
  // acq_rel: the last releaser must observe every write the other holders
  // made to the segment before they dropped their references.
  if (seg_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    seg_->pool->recycle(seg_);
  }
  seg_ = nullptr;
}

PoolStats BufferPool::stats() const noexcept {
  PoolStats s;
  s.allocs = allocs_.load(std::memory_order_relaxed);
  s.heap_fallbacks = heap_fallbacks_.load(std::memory_order_relaxed);
  s.recycles = recycles_.load(std::memory_order_relaxed);
  s.cross_thread_recycles =
      cross_thread_recycles_.load(std::memory_order_relaxed);
  s.slab_allocs = slab_allocs_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.segments_live = live_.load(std::memory_order_relaxed);
  s.segments_total = segments_total_.load(std::memory_order_relaxed);
  s.bytes_reserved = bytes_reserved_.load(std::memory_order_relaxed);
  return s;
}

void BufferPool::export_metrics(obs::MetricSink& sink) const {
  const PoolStats s = stats();
  sink.counter("allocs", s.allocs);
  sink.counter("heap_fallbacks", s.heap_fallbacks);
  sink.counter("recycles", s.recycles);
  sink.counter("cross_thread_recycles", s.cross_thread_recycles);
  sink.counter("slab_allocs", s.slab_allocs);
  sink.counter("cache_hits", s.cache_hits);
  sink.gauge("segments_live", static_cast<double>(s.segments_live));
  sink.gauge("segments_total", static_cast<double>(s.segments_total));
  sink.gauge("bytes_reserved", static_cast<double>(s.bytes_reserved));
}

BufferPool& default_pool() {
  // Deliberately leaked: segments released during static destruction or
  // by late thread exits still find their pool.
  static BufferPool* const pool = new BufferPool();
  return *pool;
}

}  // namespace ngp::buf
