// Process-wide allocator policy for the offline (batch) commands.
//
// A training step builds an autograd graph of ~200 MB of tensor buffers
// and frees it when the step ends. Under glibc's defaults, buffers of
// 128 KiB or more are separate mmaps and the top of the heap is trimmed
// past 128 KiB free, so every step hands the graph back to the kernel and
// the next step page-faults all of it in again (DESIGN.md §9.5).
// RetainFreedMemory keeps freed memory mapped for reuse instead: peak RSS
// stays the same (the next step needs the same bytes), page faults and
// kernel time drop, and no computed value changes.
//
// Long-running processes with many small allocations (`ktcli serve`) keep
// the glibc defaults: there the policy only raises resident memory.
#ifndef KT_CORE_MEMORY_POLICY_H_
#define KT_CORE_MEMORY_POLICY_H_

namespace kt {

// Serves allocations under 32 MiB from the heap and never trims it.
// Returns true when the allocator accepted the policy: false on libcs
// other than glibc, and under sanitizers that replace malloc, where the
// call does nothing. Call once, before the hot loop.
bool RetainFreedMemory();

}  // namespace kt

#endif  // KT_CORE_MEMORY_POLICY_H_
