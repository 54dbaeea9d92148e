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
// the tree is strictly local with open boundaries and no multipoles.
//
// A Tree is a block index for the short-range force driver it embeds
// (shortrange.Pairs): Build partitions the driver's working arrays in
// place, and Block walks the tree for one leaf and names its neighbour set
// as ordered (start,end) spans over the leaf-contiguous arrays instead of
// gathering coordinates. The driver's Run pulls leaves from a shared
// atomic cursor on the rank's par.Pool. Leaves are visited in ascending
// index order so adjacent spans coalesce, and a subtree entirely inside
// the search box is emitted as one span without descending — both
// invisible to the kernel, because span order equals a gathering walk's
// concatenation order (the bitwise oracle TestRangeWalkMatchesCopyWalk;
// the gathering walk lives in the tests). One tree per rank is persistent:
// every buffer, the node pool and the leaf cache are retained across
// builds.
package tree
