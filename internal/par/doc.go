// Package par provides a persistent worker pool for the hot per-substep
// loops (PR 1). Spawning goroutines per parallel region costs several small
// heap allocations (closure, waitgroup escape, goroutine bookkeeping) —
// repeated millions of times over a run, that churn is exactly what the
// paper's "every component threaded, nothing allocated in the main loop"
// design avoids. A Pool keeps its workers parked on channels between
// regions, so dispatching a sharded loop allocates only the loop closure
// itself; plans that must dispatch allocation-free store persistent bodies
// and publish per-call parameters through plan fields. There are two
// dispatches: For/ForGrain hand each worker one contiguous shard, and Run
// starts every worker on a body that pulls work from a shared atomic
// cursor (the short-range force driver). Resize is the shared
// grow-in-place policy for every persistent scratch buffer in the codebase.
package par
