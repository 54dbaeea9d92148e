// Package machine provides flop accounting and the BG/Q node model (peak
// rate, sustained fraction, flops per interaction) used to print
// paper-style performance columns (PFlops, % of peak) from counted work,
// alongside honestly measured host wall-clock numbers. Constants come from
// paper §III; nothing here models the interconnect, since no table prints
// a network estimate. Counters Encode/Decode/MergeRestored define the per-rank
// counter block a checkpoint stores, with merge semantics that keep
// global-transform counts honest when a checkpoint is restored at a
// different rank count. Wall-clock phase timing lives in internal/obs
// (Phases); CommPost and CommWait name its two communication phases.
package machine
