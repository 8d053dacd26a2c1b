package store

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sync"
)

// Backend is the daemon's durable-state surface: per-bus enrollment
// snapshots, the score/IIP history log, and the segmented audit log.
// Implementations must be safe for concurrent use.
type Backend interface {
	// SaveSnapshot persists one bus's enrollment snapshot (a JSON payload)
	// atomically under the given spec hash, replacing any previous one.
	SaveSnapshot(bus, specHash string, payload []byte) error
	// LoadSnapshot returns the bus's snapshot payload after validating it.
	// Failures are typed: ErrNoSnapshot, ErrCorruptSnapshot (checksum or
	// envelope damage), ErrStaleSnapshot (spec hash mismatch) — all of which
	// the caller answers with cold calibration.
	LoadSnapshot(bus, specHash string) ([]byte, error)
	// AppendHistory appends one history record to the WAL.
	AppendHistory(rec []byte) error
	// ReplayHistory streams every retained history record, oldest first.
	// Corrupt stretches are skipped (their byte count is returned), never
	// fatal.
	ReplayHistory(fn func(rec []byte) error) (skipped int64, err error)
	// AppendAudit appends one rendered audit line to the audit log.
	AppendAudit(line []byte) error
	// Sync flushes everything buffered to stable storage.
	Sync() error
	// Close syncs and releases the backend.
	Close() error
}

// Memory is the in-memory Backend for tests: same semantics, no disk.
// CorruptSnapshot lets tests exercise the validation path.
type Memory struct {
	mu      sync.Mutex
	snaps   map[string]memSnap
	history [][]byte
	audit   [][]byte
}

type memSnap struct {
	specHash string
	payload  []byte
	corrupt  bool
}

// NewMemory builds an empty in-memory backend.
func NewMemory() *Memory {
	return &Memory{snaps: make(map[string]memSnap)}
}

// SaveSnapshot implements Backend.
func (m *Memory) SaveSnapshot(bus, specHash string, payload []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp := make([]byte, len(payload))
	copy(cp, payload)
	m.snaps[bus] = memSnap{specHash: specHash, payload: cp}
	return nil
}

// LoadSnapshot implements Backend.
func (m *Memory) LoadSnapshot(bus, specHash string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.snaps[bus]
	if !ok {
		return nil, fmt.Errorf("%w: bus %q", ErrNoSnapshot, bus)
	}
	if s.corrupt {
		return nil, fmt.Errorf("%w: bus %q", ErrCorruptSnapshot, bus)
	}
	if s.specHash != specHash {
		return nil, fmt.Errorf("%w: bus %q", ErrStaleSnapshot, bus)
	}
	cp := make([]byte, len(s.payload))
	copy(cp, s.payload)
	return cp, nil
}

// AppendHistory implements Backend.
func (m *Memory) AppendHistory(rec []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp := make([]byte, len(rec))
	copy(cp, rec)
	m.history = append(m.history, cp)
	return nil
}

// ReplayHistory implements Backend.
func (m *Memory) ReplayHistory(fn func(rec []byte) error) (int64, error) {
	m.mu.Lock()
	recs := m.history
	m.mu.Unlock()
	for _, r := range recs {
		if err := fn(r); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

// AppendAudit implements Backend.
func (m *Memory) AppendAudit(line []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp := make([]byte, len(line))
	copy(cp, line)
	m.audit = append(m.audit, cp)
	return nil
}

// Sync implements Backend (a no-op in memory).
func (m *Memory) Sync() error { return nil }

// Close implements Backend (a no-op in memory).
func (m *Memory) Close() error { return nil }

// CorruptSnapshot marks a bus's stored snapshot as damaged, so the next
// LoadSnapshot reports ErrCorruptSnapshot — the test seam for the
// never-trust-a-bad-snapshot path.
func (m *Memory) CorruptSnapshot(bus string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.snaps[bus]; ok {
		s.corrupt = true
		m.snaps[bus] = s
	}
}

// AuditLines returns the retained audit lines (test inspection).
func (m *Memory) AuditLines() [][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([][]byte, len(m.audit))
	copy(out, m.audit)
	return out
}

// DirOptions tunes the embedded file backend. The zero value picks the
// defaults (4 MiB / 8 segments for history, 4 MiB / 16 for audit).
type DirOptions struct {
	// History tunes the score/IIP history WAL.
	History WALOptions
	// Audit tunes the segmented audit log.
	Audit WALOptions
}

// Dir is the embedded file Backend: a state directory holding per-bus
// snapshot files plus segmented history and audit WALs.
//
//	<root>/snapshots/<bus>.snap
//	<root>/history/seg-*.wal
//	<root>/audit/seg-*.wal
type Dir struct {
	root    string
	history *WAL
	audit   *WAL
}

// OpenDir opens (creating if needed) the state directory at root, recovering
// any torn WAL tails left by a crash.
func OpenDir(root string, opts DirOptions) (*Dir, error) {
	if err := os.MkdirAll(filepath.Join(root, "snapshots"), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating state dir: %w", err)
	}
	if opts.Audit.MaxSegments == 0 {
		opts.Audit.MaxSegments = 16
	}
	hist, err := OpenWAL(filepath.Join(root, "history"), opts.History)
	if err != nil {
		return nil, err
	}
	audit, err := OpenWAL(filepath.Join(root, "audit"), opts.Audit)
	if err != nil {
		hist.Close() //nolint:errcheck // surfacing the open error
		return nil, err
	}
	return &Dir{root: root, history: hist, audit: audit}, nil
}

// snapPath renders a bus's snapshot file path; ids are path-escaped so bus
// names cannot traverse out of the snapshots directory.
func (d *Dir) snapPath(bus string) string {
	return filepath.Join(d.root, "snapshots", url.PathEscape(bus)+".snap")
}

// SaveSnapshot implements Backend.
func (d *Dir) SaveSnapshot(bus, specHash string, payload []byte) error {
	raw, err := EncodeSnapshot(specHash, payload)
	if err != nil {
		return err
	}
	return writeFileAtomic(d.snapPath(bus), raw)
}

// LoadSnapshot implements Backend.
func (d *Dir) LoadSnapshot(bus, specHash string) ([]byte, error) {
	raw, err := os.ReadFile(d.snapPath(bus))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: bus %q", ErrNoSnapshot, bus)
		}
		return nil, fmt.Errorf("%w: bus %q: %v", ErrCorruptSnapshot, bus, err)
	}
	payload, err := DecodeSnapshot(raw, specHash)
	if err != nil {
		return nil, fmt.Errorf("bus %q: %w", bus, err)
	}
	return payload, nil
}

// AppendHistory implements Backend.
func (d *Dir) AppendHistory(rec []byte) error { return d.history.Append(rec) }

// ReplayHistory implements Backend.
func (d *Dir) ReplayHistory(fn func(rec []byte) error) (int64, error) {
	return d.history.Replay(fn)
}

// AppendAudit implements Backend.
func (d *Dir) AppendAudit(line []byte) error { return d.audit.Append(line) }

// HistoryWAL exposes the history log (smoke-test and stats access).
func (d *Dir) HistoryWAL() *WAL { return d.history }

// Sync implements Backend.
func (d *Dir) Sync() error {
	if err := d.history.Sync(); err != nil {
		return err
	}
	return d.audit.Sync()
}

// Close implements Backend.
func (d *Dir) Close() error {
	err := d.history.Close()
	if aerr := d.audit.Close(); err == nil {
		err = aerr
	}
	return err
}
