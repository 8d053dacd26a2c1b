package ring

import (
	"fmt"
	"math"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("dimm%05d", i)
	}
	return out
}

func assignAll(r *Ring, ks []string) map[string]string {
	out := make(map[string]string, len(ks))
	for _, k := range ks {
		n, ok := r.Get(k)
		if !ok {
			panic("unassigned key on a non-empty ring")
		}
		out[k] = n
	}
	return out
}

func TestEmptyRing(t *testing.T) {
	r := New(0)
	if _, ok := r.Get("x"); ok {
		t.Error("empty ring assigned a key")
	}
	if r.Len() != 0 || len(r.members) != 0 {
		t.Error("empty ring reports members")
	}
}

func TestSingleNodeOwnsEverything(t *testing.T) {
	r := New(0)
	r.Add("d0")
	for _, k := range keys(100) {
		if n, ok := r.Get(k); !ok || n != "d0" {
			t.Fatalf("Get(%q) = %q, %v; want d0", k, n, ok)
		}
	}
}

func TestAddRemoveIdempotent(t *testing.T) {
	r := New(0)
	r.Add("d0")
	r.Add("d0")
	r.Add("d1")
	if r.Len() != 2 {
		t.Fatalf("Len = %d after duplicate Add, want 2", r.Len())
	}
	r.Remove("ghost")
	r.Remove("d1")
	r.Remove("d1")
	if r.Len() != 1 || !r.members["d0"] {
		t.Fatalf("members = %v, want [d0]", r.members)
	}
}

// TestAssignmentIsMembershipPure: two rings holding the same members agree on
// every key regardless of the Add/Remove history that built them.
func TestAssignmentIsMembershipPure(t *testing.T) {
	a, b := New(64), New(64)
	for _, n := range []string{"d0", "d1", "d2", "d3"} {
		a.Add(n)
	}
	a.Remove("d2")
	b.Add("d3")
	b.Add("d0")
	b.Add("d2")
	b.Remove("d2")
	b.Add("d1")
	for _, k := range keys(500) {
		na, _ := a.Get(k)
		nb, _ := b.Get(k)
		if na != nb {
			t.Fatalf("rings with equal membership disagree on %q: %q vs %q", k, na, nb)
		}
	}
}

// TestJoinMovesAboutOneNth is the consistent-hashing property: adding a node
// to an N-node ring reassigns ~1/(N+1) of the keys — and every reassigned key
// moves TO the new node, never between old ones.
func TestJoinMovesAboutOneNth(t *testing.T) {
	const n, nKeys = 8, 20000
	r := New(0)
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("d%d", i))
	}
	ks := keys(nKeys)
	before := assignAll(r, ks)
	r.Add("d-new")
	after := assignAll(r, ks)

	moved := 0
	for _, k := range ks {
		if before[k] != after[k] {
			moved++
			if after[k] != "d-new" {
				t.Fatalf("key %q moved between old nodes (%q -> %q) on a join",
					k, before[k], after[k])
			}
		}
	}
	ideal := float64(nKeys) / float64(n+1)
	if f := float64(moved); f < 0.5*ideal || f > 2*ideal {
		t.Errorf("join moved %d keys, want ~%.0f (0.5x..2x tolerated)", moved, ideal)
	}
}

// TestLeaveMovesOnlyTheDepartedKeys: removing a node reassigns exactly the
// keys it owned; every other key stays put.
func TestLeaveMovesOnlyTheDepartedKeys(t *testing.T) {
	const n, nKeys = 8, 20000
	r := New(0)
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("d%d", i))
	}
	ks := keys(nKeys)
	before := assignAll(r, ks)
	r.Remove("d3")
	after := assignAll(r, ks)

	moved := 0
	for _, k := range ks {
		switch {
		case before[k] == "d3":
			moved++
			if after[k] == "d3" {
				t.Fatalf("key %q still assigned to removed node", k)
			}
		case before[k] != after[k]:
			t.Fatalf("key %q moved (%q -> %q) though its node survived",
				k, before[k], after[k])
		}
	}
	ideal := float64(nKeys) / float64(n)
	if f := float64(moved); f < 0.5*ideal || f > 2*ideal {
		t.Errorf("leave moved %d keys, want ~%.0f (0.5x..2x tolerated)", moved, ideal)
	}
}

// TestBalance: with DefaultReplicas virtual points the per-node share stays
// within a factor of two of ideal — coarse, but it catches a broken hash or
// a collapsed point set.
func TestBalance(t *testing.T) {
	const n, nKeys = 8, 40000
	r := New(0)
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("d%d", i))
	}
	counts := make(map[string]int)
	for _, k := range keys(nKeys) {
		node, _ := r.Get(k)
		counts[node]++
	}
	ideal := float64(nKeys) / n
	for node, c := range counts {
		if f := float64(c); f < ideal/2 || f > ideal*2 {
			t.Errorf("node %s owns %d keys, want within [%d, %d]",
				node, c, int(math.Floor(ideal/2)), int(math.Ceil(ideal*2)))
		}
	}
	if len(counts) != n {
		t.Errorf("only %d of %d nodes own keys", len(counts), n)
	}
}

// TestPickSkipsIneligible: Pick must return the first eligible node on the
// clockwise walk, agree with Get when everything is eligible, and fail only
// when nothing qualifies.
func TestPickSkipsIneligible(t *testing.T) {
	r := New(0)
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("d%d", i))
	}
	for _, k := range keys(200) {
		want, _ := r.Get(k)
		if got, ok := r.Pick(k, func(string) bool { return true }); !ok || got != want {
			t.Fatalf("Pick(all-eligible) = %q, want Get's %q", got, want)
		}
		// Excluding the owner must yield a different, eligible node.
		got, ok := r.Pick(k, func(n string) bool { return n != want })
		if !ok || got == want {
			t.Fatalf("Pick(sans owner) = %q, %v; want another node", got, ok)
		}
		if _, ok := r.Pick(k, func(string) bool { return false }); ok {
			t.Fatal("Pick with nothing eligible reported success")
		}
	}
}

// TestPickReassignmentIsConsistent: Picking with "node X ineligible" must
// agree with a ring that never contained X — the federation's re-balance
// story depends on it (a dead daemon's buses land exactly where a ring
// without it would put them).
func TestPickReassignmentIsConsistent(t *testing.T) {
	full, sans := New(0), New(0)
	for _, n := range []string{"d0", "d1", "d2", "d3"} {
		full.Add(n)
		if n != "d2" {
			sans.Add(n)
		}
	}
	for _, k := range keys(1000) {
		got, ok := full.Pick(k, func(n string) bool { return n != "d2" })
		want, _ := sans.Get(k)
		if !ok || got != want {
			t.Fatalf("Pick(sans d2) = %q, want %q (ring-without-d2 assignment)", got, want)
		}
	}
}
