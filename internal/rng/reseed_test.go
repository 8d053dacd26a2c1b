package rng

import (
	"hash/fnv"
	"testing"
)

// TestDeriveSeedMatchesHashFnv pins the inlined FNV-1a against the standard
// library: if the inline form ever drifts, every historical child seed — and
// with it every golden result in the repo — would silently change.
func TestDeriveSeedMatchesHashFnv(t *testing.T) {
	ref := func(seed uint64, label string, n uint64, indexed bool) uint64 {
		h := fnv.New64a()
		var buf [8]byte
		for i := range buf {
			buf[i] = byte(seed >> (8 * i))
		}
		h.Write(buf[:])
		h.Write([]byte(label))
		if indexed {
			for i := range buf {
				buf[i] = byte(n >> (8 * i))
			}
			h.Write(buf[:])
		}
		return h.Sum64()
	}
	cases := []struct {
		seed    uint64
		label   string
		n       uint64
		indexed bool
	}{
		{0, "", 0, false},
		{7, "line", 0, false},
		{7, "bin", 42, true},
		{0xdeadbeefcafef00d, "measurement", 1 << 40, true},
		{^uint64(0), "comparator", ^uint64(0), true},
	}
	for _, c := range cases {
		s := New(c.seed)
		got := s.deriveSeed(c.label, c.n, c.indexed)
		want := ref(c.seed, c.label, c.n, c.indexed)
		if got != want {
			t.Errorf("deriveSeed(%d, %q, %d, %v) = %#x, want %#x",
				c.seed, c.label, c.n, c.indexed, got, want)
		}
	}
}

// TestReseedMatchesChild proves a reseeded stream is bit-identical to a
// freshly forked child: same seed, same draw sequence, at every draw kind.
func TestReseedMatchesChild(t *testing.T) {
	parent := New(99)
	scratch := New(0)
	for n := uint64(0); n < 8; n++ {
		fresh := parent.ChildN("bin", n)
		scratch.ReseedChildN(parent, "bin", n)
		if scratch.Seed() != fresh.Seed() {
			t.Fatalf("n=%d: reseeded seed %#x != child seed %#x", n, scratch.Seed(), fresh.Seed())
		}
		for i := 0; i < 16; i++ {
			a, b := fresh.Gaussian(0, 1), scratch.Gaussian(0, 1)
			if a != b {
				t.Fatalf("n=%d draw %d: child %v != reseeded %v", n, i, a, b)
			}
		}
	}
}

// TestReseedAllocationFree is the point of the mechanism: re-deriving a child
// in place must not allocate.
func TestReseedAllocationFree(t *testing.T) {
	parent := New(5)
	scratch := New(0)
	n := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		scratch.ReseedChildN(parent, "bin", n)
		n++
		_ = scratch.Float64()
	})
	if allocs != 0 {
		t.Fatalf("ReseedChildN allocates %v times per run, want 0", allocs)
	}
}
