#include "core/memory_policy.h"

#include <climits>

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace kt {

bool RetainFreedMemory() {
#ifdef __GLIBC__
  // Both knobs are needed: raising the mmap threshold alone still trims
  // the freed graph off the heap top, and disabling the trim alone still
  // unmaps every buffer past the (dynamic) mmap threshold.
  const bool mmap_ok = mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1;
  const bool trim_ok = mallopt(M_TRIM_THRESHOLD, INT_MAX) == 1;
  return mmap_ok && trim_ok;
#else
  return false;
#endif
}

}  // namespace kt
