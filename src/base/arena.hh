/**
 * @file
 * Monotonic construction arena for Simulator setup.
 *
 * Simulator construction used to make ~138 individual allocator round
 * trips (docs/PERFORMANCE.md): cache line arrays, predictor tables,
 * tracker state, register free lists, per-thread queues, generators.
 * None of that memory is ever freed before the Simulator dies, so a
 * bump-pointer arena can carve all of it from a handful of slabs.
 *
 * The design hinges on one property: **the allocator is stateless.**
 * `ArenaAlloc<T>` holds no pointer to an arena — at allocate() time it
 * consults a thread-local "current arena" installed by `ArenaCtorScope`
 * for the duration of Simulator construction, and falls back to the
 * global heap when none is installed. Because every `ArenaAlloc` is
 * default-constructible and always-equal, swapping a container type from
 * `std::vector<T>` to `AVec<T>` requires no constructor or member-init
 * changes anywhere, and structures used standalone (unit tests, tools)
 * keep working unchanged on the heap.
 *
 * Each block is prefixed with a one-word header recording its origin, so
 * deallocate() needs no thread-local: arena blocks are no-ops (the arena
 * frees its slabs wholesale at destruction), heap blocks are returned to
 * `operator delete`. Containers that grow *after* construction (warm-up
 * transients) therefore allocate from the heap and free correctly, and
 * buffers moved between containers stay self-describing.
 *
 * Lifetime rule: the Arena must outlive every container whose memory it
 * backs. `Simulator` declares its arena as the first data member, so it
 * is destroyed last.
 */

#ifndef SMTAVF_BASE_ARENA_HH
#define SMTAVF_BASE_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include <sys/mman.h>

namespace smtavf
{

/**
 * Bump-pointer slab arena. Allocation only; returns all slabs at once.
 *
 * Slabs are mapped outside malloc's heap and recycled through a small
 * per-thread cache. Heap slabs would pin memory: once glibc has seen a
 * large block freed it raises its mmap threshold, the next slab lands
 * in the heap, and small long-lived allocations (kept campaign results)
 * then carve up the freed hole, so a campaign's RSS grew with every
 * run. A private mapping goes back to the kernel whole, and the cache
 * (at most kCacheBytes per thread) hands the next Simulator built on
 * the same worker its predecessor's already-faulted slab instead.
 */
class Arena
{
  public:
    /** @param first_slab_bytes size of the first slab (doubles after). */
    explicit Arena(std::size_t first_slab_bytes = std::size_t{1} << 20)
        : nextSlabBytes_(first_slab_bytes)
    {
    }

    ~Arena()
    {
        while (Slab *s = head_) {
            head_ = s->next;
            tCache_.give(s);
        }
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Carve @p bytes with @p align from the current slab (or a new one). */
    void *
    allocate(std::size_t bytes, std::size_t align)
    {
        std::uintptr_t p = reinterpret_cast<std::uintptr_t>(cur_);
        std::uintptr_t aligned = (p + align - 1) & ~(std::uintptr_t{align} - 1);
        if (aligned + bytes > reinterpret_cast<std::uintptr_t>(end_)) {
            grow(bytes + align);
            p = reinterpret_cast<std::uintptr_t>(cur_);
            aligned = (p + align - 1) & ~(std::uintptr_t{align} - 1);
        }
        cur_ = reinterpret_cast<char *>(aligned + bytes);
        return reinterpret_cast<void *>(aligned);
    }

    /** The thread's current construction arena (null outside a scope). */
    static Arena *current() { return tCurrent_; }

    static void setCurrent(Arena *a) { tCurrent_ = a; }

  private:
    /** Header at the start of every mapping; payload follows. */
    struct alignas(64) Slab
    {
        Slab *next;
        std::size_t bytes; ///< whole mapping, header included
    };

    /** Freed slabs of one thread, newest first, kCacheBytes at most. */
    class SlabCache
    {
      public:
        SlabCache() : head_(nullptr), cached_(0) {}
        SlabCache(const SlabCache &) = delete;
        SlabCache &operator=(const SlabCache &) = delete;

        ~SlabCache()
        {
            while (Slab *s = head_) {
                head_ = s->next;
                ::munmap(s, s->bytes);
            }
        }

        /** A cached slab of at least @p bytes, else a fresh mapping. */
        Slab *
        take(std::size_t bytes)
        {
            for (Slab **link = &head_; *link; link = &(*link)->next) {
                if ((*link)->bytes >= bytes) {
                    Slab *s = *link;
                    *link = s->next;
                    cached_ -= s->bytes;
                    return s;
                }
            }
            void *m = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (m == MAP_FAILED)
                throw std::bad_alloc();
            Slab *s = static_cast<Slab *>(m);
            s->bytes = bytes;
            return s;
        }

        void
        give(Slab *s)
        {
            if (cached_ + s->bytes > kCacheBytes) {
                ::munmap(s, s->bytes);
                return;
            }
            s->next = head_;
            head_ = s;
            cached_ += s->bytes;
        }

      private:
        Slab *head_;
        std::size_t cached_;
    };

    static constexpr std::size_t kCacheBytes = std::size_t{16} << 20;
    static constexpr std::size_t kPageBytes = 4096;

    void
    grow(std::size_t at_least)
    {
        std::size_t size = nextSlabBytes_;
        if (size < at_least + sizeof(Slab))
            size = at_least + sizeof(Slab);
        size = (size + kPageBytes - 1) & ~(kPageBytes - 1);
        nextSlabBytes_ *= 2;
        Slab *s = tCache_.take(size);
        s->next = head_;
        head_ = s;
        cur_ = reinterpret_cast<char *>(s + 1);
        end_ = reinterpret_cast<char *>(s) + s->bytes;
    }

    Slab *head_ = nullptr;
    char *cur_ = nullptr;
    char *end_ = nullptr;
    std::size_t nextSlabBytes_;

    static inline thread_local Arena *tCurrent_ = nullptr;
    static inline thread_local SlabCache tCache_;
};

/**
 * Installs @p a as the thread's current arena for the duration of a
 * constructor. Declared as a data member immediately after the Arena it
 * installs, it covers the whole member-init list; the constructor body
 * calls release() at its end so post-construction growth goes to the
 * heap. Nested scopes restore the previous arena (LIFO).
 */
class ArenaCtorScope
{
  public:
    explicit ArenaCtorScope(Arena &a) : prev_(Arena::current())
    {
        Arena::setCurrent(&a);
    }

    ~ArenaCtorScope() { release(); }

    ArenaCtorScope(const ArenaCtorScope &) = delete;
    ArenaCtorScope &operator=(const ArenaCtorScope &) = delete;

    /** Uninstall (idempotent); construction is over. */
    void
    release()
    {
        if (!released_) {
            Arena::setCurrent(prev_);
            released_ = true;
        }
    }

  private:
    Arena *prev_;
    bool released_ = false;
};

/**
 * Stateless std allocator: arena when a construction scope is installed,
 * global heap otherwise. Every block carries a one-word origin header so
 * deallocate() is correct without any thread-local state.
 */
template <typename T>
class ArenaAlloc
{
  public:
    using value_type = T;
    using is_always_equal = std::true_type;
    using propagate_on_container_move_assignment = std::true_type;
    using propagate_on_container_swap = std::true_type;

    ArenaAlloc() = default;
    template <typename U>
    ArenaAlloc(const ArenaAlloc<U> &)
    {
    }

    T *
    allocate(std::size_t n)
    {
        std::size_t bytes = kHeader + n * sizeof(T);
        void *raw;
        std::uint64_t tag;
        if (Arena *a = Arena::current()) {
            raw = a->allocate(bytes, kAlign);
            tag = 1;
        } else {
            if constexpr (kAlign > alignof(std::max_align_t))
                raw = ::operator new(bytes, std::align_val_t{kAlign});
            else
                raw = ::operator new(bytes);
            tag = 0;
        }
        char *p = static_cast<char *>(raw) + kHeader;
        reinterpret_cast<std::uint64_t *>(p)[-1] = tag;
        return reinterpret_cast<T *>(p);
    }

    void
    deallocate(T *p, std::size_t) noexcept
    {
        char *c = reinterpret_cast<char *>(p);
        if (reinterpret_cast<std::uint64_t *>(c)[-1] != 0)
            return; // arena-owned: freed wholesale with the arena's slabs
        void *raw = c - kHeader;
        if constexpr (kAlign > alignof(std::max_align_t))
            ::operator delete(raw, std::align_val_t{kAlign});
        else
            ::operator delete(raw);
    }

  private:
    static constexpr std::size_t kAlign =
        alignof(T) > alignof(std::uint64_t) ? alignof(T)
                                            : alignof(std::uint64_t);
    /** Header keeps the payload aligned: one kAlign-sized prefix. */
    static constexpr std::size_t kHeader =
        sizeof(std::uint64_t) > kAlign ? sizeof(std::uint64_t) : kAlign;
};

template <typename A, typename B>
bool
operator==(const ArenaAlloc<A> &, const ArenaAlloc<B> &)
{
    return true;
}

template <typename A, typename B>
bool
operator!=(const ArenaAlloc<A> &, const ArenaAlloc<B> &)
{
    return false;
}

/** The arena-aware vector every setup-time container uses. */
template <typename T>
using AVec = std::vector<T, ArenaAlloc<T>>;

/**
 * Deleter for single objects placed in the arena (or, outside a scope,
 * on the heap): arena objects are destroyed in place, heap objects
 * deleted. Convertible across Derived -> Base so ArenaPtr<Derived>
 * moves into ArenaPtr<Base>.
 */
template <typename T>
struct ArenaDeleter
{
    bool arena = false;

    ArenaDeleter() = default;
    explicit ArenaDeleter(bool a) : arena(a) {}

    template <typename U,
              typename = std::enable_if_t<std::is_convertible_v<U *, T *>>>
    ArenaDeleter(const ArenaDeleter<U> &o) : arena(o.arena)
    {
    }

    void
    operator()(T *p) const
    {
        if (arena)
            p->~T();
        else
            delete p;
    }
};

template <typename T>
using ArenaPtr = std::unique_ptr<T, ArenaDeleter<T>>;

/** make_unique counterpart: arena placement when a scope is installed. */
template <typename T, typename... Args>
ArenaPtr<T>
makeArena(Args &&...args)
{
    if (Arena *a = Arena::current()) {
        void *raw = a->allocate(sizeof(T), alignof(T));
        return ArenaPtr<T>(new (raw) T(std::forward<Args>(args)...),
                           ArenaDeleter<T>(true));
    }
    return ArenaPtr<T>(new T(std::forward<Args>(args)...),
                       ArenaDeleter<T>(false));
}

} // namespace smtavf

#endif // SMTAVF_BASE_ARENA_HH
