#include "omt/common/prefetch.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace omt::detail {
namespace {

bool detectPrefetchW() {
#if defined(__x86_64__) || defined(__i386__)
  // CPUID 0x80000001, ECX bit 8 (PRFCHW).
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  return __get_cpuid(0x80000001U, &eax, &ebx, &ecx, &edx) != 0 &&
         (ecx & (1U << 8)) != 0;
#else
  return false;
#endif
}

}  // namespace

const bool kHasPrefetchW = detectPrefetchW();

}  // namespace omt::detail
