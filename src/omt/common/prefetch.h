// Software prefetch over a byte range, for reading or for writing.
//
// A prefetch is a hint: it reads no value, changes no state and cannot
// fault, so it may name memory that another thread is writing or that has
// been freed. Callers use it to start the cache misses of work they will
// do shortly, in a loop that would otherwise stall on each miss in turn.
//
// Write intent matters when the lines were last written on another core,
// as a group's state is when the previous batch ran it on another worker:
// a read prefetch fetches a shared copy, and the first store then waits a
// second time while the other core's copy is invalidated. PREFETCHW
// fetches the line owned. GCC emits it for __builtin_prefetch(p, 1) only
// when the target has it (-mprfchw), so the baseline x86-64 build asks the
// CPU once and issues it directly.
#pragma once

#include <cstddef>
#include <cstdint>

namespace omt {

inline constexpr std::size_t kCacheLineBytes = 64;

/// What the code that follows a prefetch does with the lines.
enum class PrefetchFor : bool { kRead, kWrite };

namespace detail {
/// Whether the CPU has PREFETCHW, read from CPUID once at start-up (false
/// before then and off x86, where write prefetches take the builtin).
extern const bool kHasPrefetchW;
}  // namespace detail

/// Prefetch hint for the cache line holding `p`.
inline void prefetchLine(const void* p, PrefetchFor intent) {
  if (intent == PrefetchFor::kRead) {
    __builtin_prefetch(p);
    return;
  }
#if (defined(__x86_64__) || defined(__i386__)) && !defined(__PRFCHW__)
  if (detail::kHasPrefetchW) {
    // The address goes in a register: `p` is never dereferenced, so it
    // may be null or dangling like any other hint's.
    asm volatile("prefetchw (%0)" : : "r"(p));
    return;
  }
#endif
  __builtin_prefetch(p, 1);
}

/// Prefetch hint for every cache line that [p, p + bytes) overlaps.
inline void prefetchRange(const void* p, std::size_t bytes,
                          PrefetchFor intent) {
  if (bytes == 0) return;
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  for (std::uintptr_t line = begin & ~std::uintptr_t{kCacheLineBytes - 1};
       line < begin + bytes; line += kCacheLineBytes)
    prefetchLine(reinterpret_cast<const void*>(line), intent);
}

}  // namespace omt
