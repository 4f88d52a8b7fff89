// Package rng is the repository's one seed-driven generator, splitmix64.
// Fault schedules (internal/faultinject, iofs.Faulty) and kill schedules
// (internal/experiments) draw from it, and flight bundles record only
// the seed of a fault schedule, so its output sequence is part of what
// makes a bundle replay: it must never change.
package rng

// SplitMix64 is a splitmix64 stream; its value is the generator state,
// and the zero value is the stream of seed 0.
type SplitMix64 uint64

// Next advances the stream and returns its next value.
func (s *SplitMix64) Next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
