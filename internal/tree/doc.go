// Package tree implements HACC's rank-local recursive coordinate bisection
// (RCB) tree (paper §III). The design follows the paper's two principles:
//
//   - Spatial locality: particles are recursively partitioned in place, so
//     after the build each subtree occupies a contiguous memory range and
//     leaf force evaluation touches only nearby memory.
//   - Walk minimization: leaves are "fat" (tens to hundreds of particles);
//     every particle in a leaf shares one contiguous interaction list, so
//     work shifts from slow pointer-chasing walks into the streaming force
//     kernel.
//
// The short-range force is compact (zero beyond RCut), and periodic images
// are materialized as overloaded replica particles by package domain, so
// the tree is strictly local with open boundaries and no multipoles. One
// tree per rank is persistent: Rebuild re-partitions in place (retaining
// coordinate copies, accumulators, the node pool, the leaf cache, and
// per-worker walk scratch).
//
// The force walk is copy-free and has one production dispatch:
// ComputeForcesPoolRanges pulls leaves from a shared atomic cursor on the
// rank's par.Pool and hands the kernel ordered (start,end) spans over the
// tree's leaf-contiguous SoA arrays instead of gathering neighbor
// coordinates. ComputeForcesRanges is the same walk on spawned goroutines.
// Leaves are visited in ascending index order so adjacent spans coalesce,
// and a subtree entirely inside the search box is emitted as one span
// without descending — both invisible to the kernel, because span order
// equals the copy walk's concatenation order (the bitwise oracle
// TestRangeWalkMatchesCopyWalk). The copy walk remains for that oracle.
package tree
