#include "omt/common/default_init.h"

#include <sys/mman.h>

#include <cstdint>
#include <fstream>

namespace omt {
namespace {

/// `bytes` rounded up to whole huge pages.
std::size_t wholeHugePages(std::size_t bytes) {
  return (bytes + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes;
}

}  // namespace

void* mapHugePages(std::size_t bytes) {
  if (bytes > std::numeric_limits<std::size_t>::max() - 2 * kHugePageBytes)
    throw std::bad_alloc();
  const std::size_t length = wholeHugePages(bytes);
  // Map one huge page more than needed, then unmap the head and tail so
  // the region starts on a huge-page boundary: only an aligned 2 MiB range
  // can be backed by one huge page.
  const std::size_t span = length + kHugePageBytes;
  void* raw = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t start =
      (base + kHugePageBytes - 1) & ~(std::uintptr_t{kHugePageBytes} - 1);
  const std::size_t head = start - base;
  if (head > 0) munmap(raw, head);
  if (span - head > length)
    munmap(reinterpret_cast<void*>(start + length), span - head - length);
  void* region = reinterpret_cast<void*>(start);
#ifdef MADV_HUGEPAGE
  // Ignored when it fails (THP compiled out or disabled): the region then
  // faults in base pages like any other.
  madvise(region, length, MADV_HUGEPAGE);
#endif
  return region;
}

void unmapHugePages(void* p, std::size_t bytes) noexcept {
  munmap(p, wholeHugePages(bytes));
}

std::string transparentHugePageMode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string text;
  std::getline(in, text);
  const auto open = text.find('[');
  const auto close = text.find(']', open);
  if (open == std::string::npos || close == std::string::npos)
    return "unavailable";
  return text.substr(open + 1, close - open - 1);
}

}  // namespace omt
