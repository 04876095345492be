/**
 * @file
 * RingBuffer: a flat circular deque over contiguous storage.
 *
 * The pipeline's ordered queues (ROB, LSQ, front-end fetch queue, the
 * workload generator's uncommitted window) only ever push at the tail,
 * pop at the head (commit/retire) or pop at the tail (squash walk-back) —
 * deque discipline with no middle insertion. std::deque pays repeated
 * block allocation/deallocation as the live window slides through its
 * node map; this ring keeps one contiguous buffer that, once warm, is
 * never touched by the allocator again. Capacity grows by doubling when
 * exhausted and never shrinks, so steady-state operation is
 * allocation-free.
 *
 * Iteration is index-based, oldest to youngest — the exact order the
 * std::deque-based queues exposed, which issue arbitration and the
 * invariant checker depend on.
 */

#ifndef SMTAVF_BASE_RING_BUFFER_HH
#define SMTAVF_BASE_RING_BUFFER_HH

#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

#include "base/arena.hh"

namespace smtavf
{

/** Contiguous circular deque; grows by doubling, never shrinks. */
template <typename T>
class RingBuffer
{
  public:
    /** @param initial_capacity slots to reserve up front (min 1). */
    explicit RingBuffer(std::size_t initial_capacity = 16)
        : slots_(initial_capacity ? initial_capacity : 1)
    {
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return slots_.size(); }

    /** Oldest element. Precondition: !empty(). */
    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }

    /** Youngest element. Precondition: !empty(). */
    T &back() { return slots_[wrap(head_ + size_ - 1)]; }
    const T &back() const { return slots_[wrap(head_ + size_ - 1)]; }

    /** i-th oldest element (0 = front). */
    T &operator[](std::size_t i) { return slots_[wrap(head_ + i)]; }
    const T &
    operator[](std::size_t i) const
    {
        return slots_[wrap(head_ + i)];
    }

    void
    push_back(T v)
    {
        if (size_ == slots_.size())
            grow();
        slots_[wrap(head_ + size_)] = std::move(v);
        ++size_;
    }

    /** Remove the oldest element; its slot is reset to T{}. */
    void
    pop_front()
    {
        slots_[head_] = T{};
        head_ = wrap(head_ + 1);
        --size_;
    }

    /** Remove the youngest element; its slot is reset to T{}. */
    void
    pop_back()
    {
        slots_[wrap(head_ + size_ - 1)] = T{};
        --size_;
    }

    /** Remove every element; capacity is retained. */
    void
    clear()
    {
        while (size_ > 0)
            pop_back();
    }

    /**
     * clear() plus rewind the head to slot 0, so the physical layout
     * matches a freshly constructed ring exactly (the logical contents
     * would match either way; this keeps even the grow() copy pattern
     * identical). The core empties its pipeline queues this way
     * (SmtCore::clearInFlight).
     */
    void
    reset()
    {
        clear();
        head_ = 0;
    }

    /** Random-access const iterator, oldest to youngest. */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = const T *;
        using reference = const T &;

        const_iterator() = default;
        const_iterator(const RingBuffer *rb, std::size_t pos)
            : rb_(rb), pos_(pos)
        {
        }

        reference operator*() const { return (*rb_)[pos_]; }
        pointer operator->() const { return &(*rb_)[pos_]; }

        const_iterator &
        operator++()
        {
            ++pos_;
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator tmp = *this;
            ++pos_;
            return tmp;
        }

        bool
        operator==(const const_iterator &o) const
        {
            return rb_ == o.rb_ && pos_ == o.pos_;
        }

        bool operator!=(const const_iterator &o) const { return !(*this == o); }

      private:
        const RingBuffer *rb_ = nullptr;
        std::size_t pos_ = 0;
    };

    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, size_); }

  private:
    std::size_t
    wrap(std::size_t i) const
    {
        std::size_t cap = slots_.size();
        return i >= cap ? i - cap : i; // head_ + i < 2 * cap always
    }

    void
    grow()
    {
        AVec<T> bigger(slots_.size() * 2);
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = std::move(slots_[wrap(head_ + i)]);
        slots_ = std::move(bigger);
        head_ = 0;
    }

    // Arena-backed during Simulator construction, plain heap elsewhere
    // (base/arena.hh): same growth and iteration behaviour either way.
    AVec<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace smtavf

#endif // SMTAVF_BASE_RING_BUFFER_HH
