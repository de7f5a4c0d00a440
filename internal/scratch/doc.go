// Package scratch provides the flat sparse accumulators and reusable
// per-worker buffers the hot kernels accumulate into instead of Go maps.
//
// The paper's sparse-accelerator argument (Fig. 4) is that SpGEMM-class
// kernels live or die by their accumulator structure: the FPGA pipeline
// replaces hashing with a merge sorter precisely because irregular
// accumulation dominates the runtime. The software analogue of that design
// pressure is this package — three accumulator shapes that replace
// map[int32]/map[int64] scatter on every hot path:
//
//   - SPA: the Gustavson sparse accumulator (dense values + generation
//     stamps + touched list) for keys drawn from a bounded integer domain
//     such as vertex or column IDs. O(1) insert/lookup with no hashing,
//     O(touched) emission, O(1) reset via a generation bump.
//   - Map64: an open-addressing, linear-probing flat hash table for
//     unbounded int64 keys (packed vertex pairs). One flat allocation,
//     cheap multiplicative hashing, generation-stamped O(1) reset.
//   - Bitset: a word-packed bitmap with an atomic set, replacing
//     word-per-vertex membership arrays (32× smaller frontier bitmaps).
//
// All three are reusable: Reset forgets contents without freeing, so a
// kernel allocates its accumulator once per call (or borrows one from a
// Pool) and its inner loop allocates nothing. A Pool only carries an
// accumulator from one call to the next while no more than one garbage
// collection falls between them — true of request traffic, not of a batch
// kernel run once a second — so "borrowed" means "free when calls are
// frequent", never "free".
//
// # Concurrency and determinism contract
//
// SPA and Map64 are single-goroutine structures: each worker owns its own
// instance, normally kept in a slice indexed by the worker id par.ForW
// passes (created on a worker's first chunk) or borrowed from a typed
// Pool. Bitset is the one shared shape — SetAtomic is safe from concurrent
// workers; all other methods require external synchronization. Determinism is preserved by
// construction: Touched returns keys in first-insert order, and
// SortedTouched gives the ascending order kernels emit in when output
// order matters, so accumulator iteration never introduces map-order
// nondeterminism into results.
package scratch
