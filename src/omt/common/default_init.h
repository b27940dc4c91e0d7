// A std::vector for per-build arrays: resize() default-initialises new
// elements — leaves arithmetic elements uninitialised — instead of
// zero-filling them, and an array of 2 MiB or more lives on its own
// huge-page mapping.
//
// Construction sizes several large arrays that a later pass overwrites in
// full: the grid's packed polar store and CSR, the tree's CSR child lists
// and BFS order. A value-initialising resize writes every byte twice, and
// on fresh pages the zero-fill is where the page faults land, serially, on
// the resizing thread. Use it only for an array every element of which is
// written before it is read (or that is filled through its constructor).
//
// Storage: a request of kHugePageBytes or more is its own anonymous
// mapping, started on a huge-page boundary, rounded up to whole huge pages
// and advised MADV_HUGEPAGE, so an n = 1M build faults its arrays in a few
// dozen 2 MiB pages instead of thousands of 4 KiB ones. Freeing unmaps it:
// nothing is kept between builds. Smaller requests, and every request in
// an AddressSanitizer build (whose redzones only std::allocator's heap
// carries), go to std::allocator.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace omt {

/// A request of at least this many bytes takes its own mapping; the x86-64
/// and arm64 (4 KiB base page) huge-page size.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Whether requests of kHugePageBytes or more are mapped: not under
/// AddressSanitizer, whose redzones and use-after-free checks cover only
/// its own heap.
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kMapLargeArrays = false;
#else
inline constexpr bool kMapLargeArrays = true;
#endif

/// A fresh zero-filled anonymous mapping of `bytes` rounded up to whole
/// huge pages, starting on a huge-page boundary and advised MADV_HUGEPAGE
/// (a refused advice leaves it on base pages). Throws std::bad_alloc when
/// the kernel refuses the mapping.
void* mapHugePages(std::size_t bytes);

/// Returns a region mapHugePages(bytes) gave out to the kernel.
void unmapHugePages(void* p, std::size_t bytes) noexcept;

/// The machine's transparent-huge-page mode, which decides what the
/// MADV_HUGEPAGE advice buys: the bracketed word of
/// /sys/kernel/mm/transparent_hugepage/enabled ("always", "madvise" or
/// "never"), or "unavailable" without that switch.
std::string transparentHugePageMode();

template <typename T>
class DefaultInitAllocator {
 public:
  using value_type = T;

  DefaultInitAllocator() noexcept = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_array_new_length();
    if (mapped(n)) return static_cast<T*>(mapHugePages(n * sizeof(T)));
    return std::allocator<T>().allocate(n);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (mapped(n)) {
      unmapHugePages(p, n * sizeof(T));
    } else {
      std::allocator<T>().deallocate(p, n);
    }
  }

  /// Construction without arguments default-initialises.
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const DefaultInitAllocator&,
                         const DefaultInitAllocator&) noexcept {
    return true;
  }

 private:
  /// Decided by the request alone, so deallocate(p, n) takes the path
  /// allocate(n) took.
  static bool mapped(std::size_t n) {
    return kMapLargeArrays && n * sizeof(T) >= kHugePageBytes;
  }
};

template <typename T>
using DefaultInitVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace omt
