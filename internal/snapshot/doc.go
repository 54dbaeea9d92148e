// Package snapshot reads and writes the on-disk products of a run:
// particle snapshots (the analogue of the particle outputs the paper's
// science run stored at 10 intermediate redshifts, §V) and — since PR 4 —
// the in-situ analysis products, per-rank FOF halo catalogs and binned
// power spectra, which is how the sky-survey workload records its science
// without raw particle dumps.
//
// Since PR 5 every product is a gio container (self-describing typed
// columns, per-block CRC32-C, an index validated against the real file
// size), so snapshots, catalogs, spectra, and checkpoints share one
// durable, versioned, checksummed layout; the meta blob carries the
// product kind, the schema Version, and the run Header. Every product is
// written by a Save* and read back from its file by the matching Load*
// (LoadHeader reads only the index and meta blob); reads bound every
// allocation by sizes gio.Open has checked against the file, so a
// truncated, corrupt or non-container file fails with a descriptive error
// instead of over-allocating. AppendParticleVars/ReadParticleRank define
// the canonical particle column schema shared with core's checkpoint state
// containers.
package snapshot
