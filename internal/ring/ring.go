// Package ring is a consistent-hash ring: it assigns string keys (buses) to
// nodes (daemons) so that membership changes move only ~1/N of the keys.
//
// Each node is hashed onto the ring at a configurable number of virtual
// points; a key belongs to the first node point clockwise of the key's own
// hash. Adding a node steals ~1/(N+1) of every other node's keys; removing
// one redistributes only its own keys. Assignment is a pure function of the
// membership set — two rings holding the same members agree on every key, no
// matter the order of Add/Remove calls that built them.
//
// Pick extends lookup with an eligibility predicate: it walks clockwise from
// the key's hash and returns the first node the predicate accepts. A
// federation uses this to skip daemons that are down or do not serve the
// bus, which preserves the minimal-movement property for the nodes that
// remain eligible.
package ring

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// DefaultReplicas is the virtual-point count per node when New is given 0.
// 128 points keep the per-node key share within a few percent of ideal for
// fleets of up to a few hundred daemons.
const DefaultReplicas = 128

// point is one virtual node position on the ring.
type point struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring. Safe for concurrent use.
type Ring struct {
	replicas int

	mu      sync.RWMutex
	points  []point // sorted by (hash, node)
	members map[string]bool
}

// New builds an empty ring with the given virtual-point count per node
// (DefaultReplicas when n <= 0).
func New(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{replicas: replicas, members: make(map[string]bool)}
}

// hashKey is FNV-1a over the key bytes pushed through a 64-bit avalanche
// finalizer — cheap, stateless, and stable across processes (assignment must
// agree between a herd and any harness that pre-shards a fleet the same
// way). Bare FNV-1a is too correlated on short keys like "d5#17": adjacent
// suffixes land near each other and a node's whole arc clumps, skewing
// ownership 6x; the finalizer's mixing restores the uniformity consistent
// hashing needs.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key)) //nolint:errcheck // fnv cannot fail
	return fmix64(h.Sum64())
}

// fmix64 is the murmur3 64-bit finalizer: full avalanche, bijective.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts a node (no-op when already a member).
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[node] {
		return
	}
	r.members[node] = true
	for i := 0; i < r.replicas; i++ {
		p := point{hash: hashKey(node + "#" + strconv.Itoa(i)), node: node}
		at := sort.Search(len(r.points), func(j int) bool {
			if r.points[j].hash != p.hash {
				return r.points[j].hash > p.hash
			}
			return r.points[j].node >= p.node
		})
		r.points = append(r.points, point{})
		copy(r.points[at+1:], r.points[at:])
		r.points[at] = p
	}
}

// Remove deletes a node and all its virtual points (no-op for non-members).
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[node] {
		return
	}
	delete(r.members, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Get returns the node owning key, or false on an empty ring.
func (r *Ring) Get(key string) (string, bool) {
	return r.Pick(key, nil)
}

// Pick returns the first node clockwise of key's hash that eligible accepts
// (every node is eligible when the predicate is nil). It returns false when
// no member qualifies.
func (r *Ring) Pick(key string, eligible func(node string) bool) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(j int) bool { return r.points[j].hash >= h })
	// Walk at most one full revolution, skipping repeat visits to a node's
	// other virtual points so the predicate cost is bounded by the member
	// count, not the point count.
	seen := 0
	visited := make(map[string]bool, len(r.members))
	for i := 0; i < len(r.points) && seen < len(r.members); i++ {
		p := r.points[(start+i)%len(r.points)]
		if visited[p.node] {
			continue
		}
		visited[p.node] = true
		seen++
		if eligible == nil || eligible(p.node) {
			return p.node, true
		}
	}
	return "", false
}
