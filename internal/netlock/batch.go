package netlock

// writerYields bounds the flush loops' opportunistic micro-batching: on
// finding the send queue empty, a writer yields the processor up to this
// many times before flushing, giving concurrently running sessions the
// chance to append the frames they were about to enqueue. The value
// trades a few scheduler passes of latency on a lone op for dramatically
// wider batches under load (on a saturated host the writer otherwise
// wakes between two enqueues and flushes one or two frames per syscall).
const writerYields = 8
