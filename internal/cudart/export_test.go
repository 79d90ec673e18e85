package cudart

// KernelLogChunk is how many records one chunk of the kernel log holds.
const KernelLogChunk = logChunk
