package fingerprint

import (
	"fmt"
	"sync"
)

// Store models the EPROM each endpoint uses to hold enrolled fingerprints
// (§III, calibration). The paper notes the store's secrecy is not
// security-critical — an IIP is useless off its own line — so this is a
// plain keyed store with no access control. It is safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	entries map[string]IIP
}

// NewStore returns an empty fingerprint store.
func NewStore() *Store {
	return &Store{entries: make(map[string]IIP)}
}

// Enroll writes the fingerprint for the given link identity, replacing any
// previous enrollment (re-calibration at user installation time).
func (s *Store) Enroll(id string, f IIP) error {
	if !f.Valid() {
		return fmt.Errorf("fingerprint: refusing to enroll invalid fingerprint for %q", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[id] = f
	return nil
}

// Lookup returns the enrolled fingerprint for id.
func (s *Store) Lookup(id string) (IIP, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.entries[id]
	return f, ok
}

// Forget removes an enrollment; removing an unknown id is a no-op.
func (s *Store) Forget(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.entries, id)
}
