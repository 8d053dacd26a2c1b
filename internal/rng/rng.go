// Package rng provides deterministic, splittable random streams for the DIVOT
// simulation. Every stochastic component (line manufacturing, comparator
// noise, traffic, environment) draws from its own labelled child stream so
// that experiments are reproducible and components are statistically
// independent of each other.
//
// Determinism contract: a stream's output depends only on its seed, and a
// child's seed depends only on the parent's seed and the label — never on how
// much the parent (or any sibling) has been consumed. This is what lets the
// measurement engine fan independent units of work (enrollment captures,
// fleet rigs, monitored links) across goroutines and still produce
// bit-identical results at any parallelism level: each unit derives its own child stream
// from a stable label, so scheduling order cannot change what anyone draws.
//
// Streams are backed by PCG (math/rand/v2): two words of state, so forking a
// child per phase bin inside a hot measurement loop costs a few dozen bytes,
// not the ~5 KB a math/rand v1 source would.
package rng

import (
	"math/rand/v2"
)

// Stream is a deterministic random source. It wraps a PCG generator with a
// seed derivation scheme that lets a stream be split into independent,
// labelled children.
type Stream struct {
	seed uint64
	pcg  *rand.PCG
	r    *rand.Rand
}

// New returns a stream rooted at the given seed.
func New(seed uint64) *Stream {
	// The second PCG word is decorrelated from the first with a golden-ratio
	// increment so that nearby seeds do not yield overlapping sequences.
	pcg := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return &Stream{seed: seed, pcg: pcg, r: rand.New(pcg)}
}

// Reseed resets the stream in place to the state New(seed) would produce,
// without allocating. A PCG's output depends only on its two state words and
// rand.Rand carries no state of its own, so a reseeded stream is
// bit-identical to a freshly constructed one — the primitive that lets hot
// loops keep one Stream per worker and re-derive it per work unit instead of
// forking garbage.
func (s *Stream) Reseed(seed uint64) {
	s.seed = seed
	s.pcg.Seed(seed, seed^0x9e3779b97f4a7c15)
}

// ReseedChildN is ChildN without the allocation: it re-points s at the
// stream ChildN(label, n) of parent would return. s and parent may not be
// the same stream. Reading the parent's seed is the only access to parent,
// so distinct workers may re-derive children of one shared parent
// concurrently.
func (s *Stream) ReseedChildN(parent *Stream, label string, n uint64) {
	s.Reseed(parent.deriveSeed(label, n, true))
}

// Child derives an independent stream from this stream's seed and a label.
// Calling Child with the same label always yields an identically seeded
// stream, regardless of how much the parent has been consumed.
func (s *Stream) Child(label string) *Stream {
	return New(s.deriveSeed(label, 0, false))
}

// ChildN derives an independent stream from the seed, a label, and an index —
// the allocation-light equivalent of Child(fmt.Sprintf("%s-%d", label, n))
// for fan-out loops that fork one stream per work unit. Distinct (label, n)
// pairs yield independent streams, and ChildN never collides with Child: the
// index is hashed as a fixed-width suffix, not formatted into the label.
func (s *Stream) ChildN(label string, n uint64) *Stream {
	return New(s.deriveSeed(label, n, true))
}

// FNV-1a constants, matching hash/fnv's 64-bit offset basis and prime. The
// hash is inlined (rather than calling hash/fnv) so deriving a child seed
// allocates nothing; the rng tests pin the inline form against hash/fnv so
// historical child seeds can never silently change.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// deriveSeed hashes the parent seed, the label, and (optionally) an index
// into a child seed — FNV-1a over the little-endian seed bytes, the label
// bytes, then the little-endian index bytes.
func (s *Stream) deriveSeed(label string, n uint64, indexed bool) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(s.seed>>(8*i)))) * fnvPrime64
	}
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * fnvPrime64
	}
	if indexed {
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(n>>(8*i)))) * fnvPrime64
		}
	}
	return h
}

// Seed returns the seed this stream was created with.
func (s *Stream) Seed() uint64 { return s.seed }

// Float64 returns a uniform sample in [0, 1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Uniform returns a uniform sample in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Gaussian returns a normal sample with the given mean and standard deviation.
func (s *Stream) Gaussian(mean, sigma float64) float64 {
	return mean + sigma*s.r.NormFloat64()
}

// NormFloat64s fills dst with standard normal samples: exactly the values,
// in order, that len(dst) successive draws behind Gaussian would scale. Hot
// loops that take a fixed number of draws batch them through here and apply
// Gaussian's `mean + sigma*n` themselves, leaving the stream in the same
// state.
func (s *Stream) NormFloat64s(dst []float64) {
	for i := range dst {
		dst[i] = s.r.NormFloat64()
	}
}

// Intn returns a uniform sample in [0, n).
func (s *Stream) Intn(n int) int { return s.r.IntN(n) }

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool { return s.r.Float64() < p }

// Bytes fills b with random bytes.
func (s *Stream) Bytes(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := s.r.Uint64()
		for j := 0; j < 8; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	if i < len(b) {
		v := s.r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }
