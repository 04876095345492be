/**
 * @file
 * SmallVec: a vector with inline storage for its first N elements.
 *
 * The memory hierarchy attaches a short, bounded list to each MSHR entry
 * (the accesses merged into one outstanding miss), and entries are
 * created and recycled millions of times per run. A
 * std::vector pays one heap allocation per non-empty list; SmallVec keeps
 * the common case entirely inside the owning object and only touches the
 * heap when a list outgrows its inline capacity — which the callers size
 * so that it never happens in steady state.
 *
 * Restricted to trivially copyable element types so growth and copies are
 * memcpy and the inline buffer needs no per-element destruction.
 */

#ifndef SMTAVF_BASE_SMALL_VEC_HH
#define SMTAVF_BASE_SMALL_VEC_HH

#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

namespace smtavf
{

/** Vector with N inline slots; spills to the heap only beyond them. */
template <typename T, std::size_t N>
class SmallVec
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "SmallVec is restricted to trivially copyable types");
    static_assert(N > 0, "inline capacity must be positive");

  public:
    SmallVec() = default;

    SmallVec(const SmallVec &other) { assignFrom(other); }

    SmallVec &
    operator=(const SmallVec &other)
    {
        if (this != &other) {
            size_ = 0;
            assignFrom(other);
        }
        return *this;
    }

    SmallVec(SmallVec &&other) noexcept { stealFrom(other); }

    SmallVec &
    operator=(SmallVec &&other) noexcept
    {
        if (this != &other) {
            releaseHeap();
            stealFrom(other);
        }
        return *this;
    }

    ~SmallVec() { releaseHeap(); }

    void
    push_back(const T &v)
    {
        if (size_ == capacity_)
            grow();
        data()[size_++] = v;
    }

    /** Drop all elements; heap capacity (if any) is retained. */
    void clear() { size_ = 0; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return capacity_; }
    /** True while the elements still live inside the owning object. */
    bool inlined() const { return heap_ == nullptr; }

    T &operator[](std::size_t i) { return data()[i]; }
    const T &operator[](std::size_t i) const { return data()[i]; }
    T &back() { return data()[size_ - 1]; }
    const T &back() const { return data()[size_ - 1]; }

    T *begin() { return data(); }
    T *end() { return data() + size_; }
    const T *begin() const { return data(); }
    const T *end() const { return data() + size_; }

  private:
    T *data() { return heap_ ? heap_ : inlineData(); }
    const T *data() const { return heap_ ? heap_ : inlineData(); }

    T *inlineData() { return reinterpret_cast<T *>(inline_); }
    const T *
    inlineData() const
    {
        return reinterpret_cast<const T *>(inline_);
    }

    void
    grow()
    {
        std::size_t cap = capacity_ * 2;
        T *mem = static_cast<T *>(::operator new(cap * sizeof(T)));
        std::memcpy(static_cast<void *>(mem), data(), size_ * sizeof(T));
        releaseHeap();
        heap_ = mem;
        capacity_ = static_cast<std::uint32_t>(cap);
    }

    void
    assignFrom(const SmallVec &other)
    {
        while (capacity_ < other.size_)
            grow();
        std::memcpy(static_cast<void *>(data()), other.data(),
                    other.size_ * sizeof(T));
        size_ = other.size_;
    }

    /** Take @p other's contents; leaves it empty and inline. */
    void
    stealFrom(SmallVec &other)
    {
        if (other.heap_) {
            heap_ = other.heap_;
            capacity_ = other.capacity_;
            size_ = other.size_;
            other.heap_ = nullptr;
            other.capacity_ = N;
        } else {
            heap_ = nullptr;
            capacity_ = N;
            size_ = other.size_;
            std::memcpy(static_cast<void *>(inlineData()),
                        other.inlineData(), size_ * sizeof(T));
        }
        other.size_ = 0;
    }

    void
    releaseHeap()
    {
        if (heap_) {
            ::operator delete(heap_);
            heap_ = nullptr;
            capacity_ = N;
        }
    }

    alignas(T) unsigned char inline_[N * sizeof(T)];
    T *heap_ = nullptr;
    std::uint32_t size_ = 0;
    std::uint32_t capacity_ = N;
};

} // namespace smtavf

#endif // SMTAVF_BASE_SMALL_VEC_HH
