// Package machine provides flop accounting and the BG/Q machine model used
// to print paper-style performance columns (PFlops, % of peak) from counted
// work, alongside honestly measured host wall-clock numbers. Constants come
// from paper §III. Counters Encode/Decode/MergeRestored define the per-rank
// counter block a checkpoint stores, with merge semantics that keep
// global-transform counts honest when a checkpoint is restored at a
// different rank count. Wall-clock phase timing lives in internal/obs
// (Phases); CommPost and CommWait name its two communication phases.
package machine
