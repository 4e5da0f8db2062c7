/**
 * @file
 * replay_bench's operator new[] and delete[]: once keepLargeArrays()
 * is called, a freed array of 16 MiB or more is kept and handed to the
 * next new[] of the same size instead of going back to the system.
 *
 * The array this is for is PhysMemory's backing store, which spans
 * hundreds of MB and which every cold replay allocates afresh. glibc
 * maps an array that large on each new[] and unmaps it on delete[], so
 * the kernel faults in and zeroes every frame a replay touches, once
 * per replay: about half of a paper_cold round's wall time, and the
 * part that neighbours on a shared VM host slow most and least
 * steadily. Kept, the next replay of the same trace reuses resident
 * pages; what is left is the simulator's own work, allocFrame()'s
 * zeroing of each new frame included. Each trace gets its own array,
 * so the run's peak resident memory does not depend on how often it
 * replays.
 *
 * Only new[] is replaced (std::vector and scalar new keep the system
 * allocator). Every array carries a header with its size, so delete[]
 * can tell a large one.
 */

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <new>

#include "bench.hpp"

namespace {

constexpr std::size_t kHeader = __STDCPP_DEFAULT_NEW_ALIGNMENT__;
constexpr std::size_t kLarge = std::size_t{16} << 20;

std::atomic<bool> keeping{false};
std::mutex keptMu;
/** Kept arrays by size; never destroyed, so usable until exit. */
auto &kept = *new std::multimap<std::size_t, void *>;

void *
allocate(std::size_t n)
{
    if (keeping.load(std::memory_order_relaxed) && n >= kLarge) {
        std::lock_guard<std::mutex> lk(keptMu);
        auto it = kept.find(n);
        if (it != kept.end()) {
            void *q = it->second;
            kept.erase(it);
            return q;
        }
    }
    if (n > SIZE_MAX - kHeader)
        throw std::bad_array_new_length();
    void *p = std::malloc(n + kHeader);
    if (!p)
        throw std::bad_alloc();
    *static_cast<std::size_t *>(p) = n;
    return static_cast<char *>(p) + kHeader;
}

void
release(void *q) noexcept
{
    if (!q)
        return;
    void *p = static_cast<char *>(q) - kHeader;
    std::size_t n = *static_cast<std::size_t *>(p);
    if (keeping.load(std::memory_order_relaxed) && n >= kLarge) {
        std::lock_guard<std::mutex> lk(keptMu);
        kept.emplace(n, q);
        return;
    }
    std::free(p);
}

} // namespace

void *
operator new[](std::size_t n)
{
    return allocate(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return allocate(n);
    } catch (...) {
        return nullptr;
    }
}

void
operator delete[](void *q) noexcept
{
    release(q);
}

void
operator delete[](void *q, std::size_t) noexcept
{
    release(q);
}

void
operator delete[](void *q, const std::nothrow_t &) noexcept
{
    release(q);
}

void
perfbench::keepLargeArrays()
{
    keeping.store(true, std::memory_order_relaxed);
}
