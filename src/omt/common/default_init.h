// A std::vector whose resize() default-initialises new elements — leaves
// arithmetic elements uninitialised — instead of zero-filling them.
//
// Construction sizes several large arrays that a later pass overwrites in
// full: the grid's packed polar store and CSR member list, the tree's child
// list. A value-initialising resize writes every byte twice, and on fresh
// pages the zero-fill is where the page faults land, serially, on the
// resizing thread. Use it only for an array every element of which is
// written before it is read.
#pragma once

#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace omt {

template <typename T, typename Base = std::allocator<T>>
class DefaultInitAllocator : public Base {
 public:
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<
        U, typename std::allocator_traits<Base>::template rebind_alloc<U>>;
  };

  using Base::Base;

  /// Construction without arguments default-initialises.
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::allocator_traits<Base>::construct(static_cast<Base&>(*this), p,
                                           std::forward<Args>(args)...);
  }
};

template <typename T>
using DefaultInitVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace omt
