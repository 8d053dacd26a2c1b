// Package store is the daemon's persistence layer: validated enrollment
// snapshots and a segmented write-ahead log, behind a small Backend interface
// so tests run on an in-memory implementation and production on an embedded
// file backend (Dir).
//
// Crash-safety contract:
//
//   - Snapshots are written atomically (temp file + rename) and carry a
//     sha256 over their payload plus the spec hash they were taken under. A
//     load that fails any check returns a typed error — the caller falls back
//     to cold calibration, never to a half-trusted snapshot.
//   - The WAL frames every record as length + CRC32 + payload inside
//     size-bounded segment files. A crash can tear at most the tail of the
//     newest segment; recovery detects the torn record, truncates it away,
//     and keeps appending — torn tails are expected, not fatal. Old segments
//     are deleted once the retention bound is exceeded (compaction), so the
//     log never grows without bound the way a plain JSONL file does.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Record framing: a fixed 8-byte header — payload length then CRC32 (IEEE) of
// the payload, both little-endian uint32 — followed by the payload bytes.
const recordHeader = 8

// maxRecordLen rejects absurd lengths while scanning: a corrupt header must
// not make recovery allocate gigabytes. 16 MiB comfortably exceeds any record
// the daemon writes (history samples and audit lines are <1 KiB).
const maxRecordLen = 16 << 20

// errTornRecord marks the scan position where a segment stops being
// trustworthy: a truncated header, a truncated payload, a CRC mismatch, or a
// nonsense length.
var errTornRecord = errors.New("store: torn or corrupt WAL record")

// WALOptions tunes a write-ahead log. The zero value picks the defaults.
type WALOptions struct {
	// SegmentBytes rotates to a new segment file once the current one
	// exceeds this size (default 4 MiB).
	SegmentBytes int64
	// MaxSegments bounds retained segment files; the oldest sealed segments
	// are deleted past it (default 8, minimum 2 — the live segment is never
	// deleted).
	MaxSegments int
	// SyncEvery fsyncs the live segment every n appends (default 64;
	// negative disables periodic sync — rotation and Close still sync).
	SyncEvery int
}

func (o WALOptions) withDefaults() WALOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.MaxSegments <= 0 {
		o.MaxSegments = 8
	}
	if o.MaxSegments < 2 {
		o.MaxSegments = 2
	}
	if o.SyncEvery == 0 {
		o.SyncEvery = 64
	}
	return o
}

// WAL is a segmented, checksummed, length-prefixed append log. Safe for
// concurrent use.
type WAL struct {
	dir  string
	opts WALOptions

	mu        sync.Mutex
	f         *os.File
	bw        *bufio.Writer // batches record writes; Sync/rotate/Replay flush
	size      int64         // bytes in the live segment, buffered writes included
	segs      []int         // retained segment indices, ascending; last is live
	sinceSync int
	truncated int64 // torn-tail bytes dropped at Open
	hdr       [recordHeader]byte
}

// segName renders a segment file name; lexicographic order is append order.
func segName(i int) string { return fmt.Sprintf("seg-%08d.wal", i) }

// OpenWAL opens (creating if needed) the segmented log in dir. The newest
// segment is scanned for a torn tail, which is truncated away — recovery
// after kill -9 is the normal path, not an error. Earlier segments are left
// untouched; replay skips any mid-segment corruption they may carry.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating WAL dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing WAL dir: %w", err)
	}
	var segs []int
	for _, e := range entries {
		var i int
		if _, err := fmt.Sscanf(e.Name(), "seg-%08d.wal", &i); err == nil {
			segs = append(segs, i)
		}
	}
	sort.Ints(segs)
	w := &WAL{dir: dir, opts: opts, segs: segs}
	if len(segs) == 0 {
		if err := w.openSegment(1); err != nil {
			return nil, err
		}
		w.segs = []int{1}
		return w, nil
	}
	// Recover the live (newest) segment: find the last whole, checksummed
	// record and cut everything after it.
	live := segs[len(segs)-1]
	path := filepath.Join(dir, segName(live))
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: reading live WAL segment: %w", err)
	}
	valid := validPrefix(raw)
	if valid < int64(len(raw)) {
		w.truncated = int64(len(raw)) - valid
		if err := os.Truncate(path, valid); err != nil {
			return nil, fmt.Errorf("store: truncating torn WAL tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening live WAL segment: %w", err)
	}
	w.f = f
	w.bw = bufio.NewWriter(f)
	w.size = valid
	return w, nil
}

// openSegment creates segment i and makes it live.
func (w *WAL) openSegment(i int) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segName(i)),
		os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating WAL segment: %w", err)
	}
	w.f = f
	w.bw = bufio.NewWriter(f)
	w.size = 0
	return nil
}

// validPrefix returns the length of the longest prefix of data made of whole,
// checksummed records.
func validPrefix(data []byte) int64 {
	var off int64
	for {
		_, n, err := scanRecord(data[off:])
		if err != nil {
			return off
		}
		off += int64(n)
	}
}

// scanRecord decodes one record from the head of data, returning the payload
// and the total bytes consumed. io.EOF means a clean end; errTornRecord means
// the bytes at the head are not a whole valid record.
func scanRecord(data []byte) (payload []byte, n int, err error) {
	if len(data) == 0 {
		return nil, 0, io.EOF
	}
	if len(data) < recordHeader {
		return nil, 0, errTornRecord
	}
	length := binary.LittleEndian.Uint32(data[0:4])
	sum := binary.LittleEndian.Uint32(data[4:8])
	if length > maxRecordLen {
		return nil, 0, errTornRecord
	}
	end := recordHeader + int(length)
	if len(data) < end {
		return nil, 0, errTornRecord
	}
	payload = data[recordHeader:end]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, errTornRecord
	}
	return payload, end, nil
}

// TruncatedBytes reports how many torn-tail bytes Open discarded.
func (w *WAL) TruncatedBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.truncated
}

// Append writes one record. Rotation and retention run inline when the live
// segment fills up.
func (w *WAL) Append(payload []byte) error {
	if len(payload) > maxRecordLen {
		return fmt.Errorf("store: WAL record of %d bytes exceeds the %d byte bound", len(payload), maxRecordLen)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("store: WAL is closed")
	}
	if w.size > 0 && w.size+recordHeader+int64(len(payload)) > w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint32(w.hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.bw.Write(w.hdr[:]); err != nil {
		return fmt.Errorf("store: appending WAL record: %w", err)
	}
	if _, err := w.bw.Write(payload); err != nil {
		return fmt.Errorf("store: appending WAL record: %w", err)
	}
	w.size += recordHeader + int64(len(payload))
	w.sinceSync++
	if w.opts.SyncEvery > 0 && w.sinceSync >= w.opts.SyncEvery {
		w.sinceSync = 0
		if err := w.syncLocked(); err != nil {
			return err
		}
	}
	return nil
}

// syncLocked flushes the buffer and fsyncs the live segment.
func (w *WAL) syncLocked() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("store: flushing WAL: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing WAL: %w", err)
	}
	return nil
}

// rotateLocked seals the live segment, opens the next one, and deletes the
// oldest sealed segments beyond the retention bound.
func (w *WAL) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: sealing WAL segment: %w", err)
	}
	next := w.segs[len(w.segs)-1] + 1
	if err := w.openSegment(next); err != nil {
		return err
	}
	w.segs = append(w.segs, next)
	w.sinceSync = 0
	for len(w.segs) > w.opts.MaxSegments {
		os.Remove(filepath.Join(w.dir, segName(w.segs[0]))) //nolint:errcheck // best-effort compaction
		w.segs = w.segs[1:]
	}
	return nil
}

// Sync flushes the live segment to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	w.sinceSync = 0
	return w.syncLocked()
}

// Close syncs and closes the live segment. The WAL rejects appends afterwards.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	w.bw = nil
	return err
}

// Replay streams every retained record, oldest first, into fn. Mid-segment
// corruption ends that segment's replay (the rest of it cannot be framed
// reliably) and moves on to the next segment; the skipped byte count is
// returned. fn returning an error aborts the replay with that error. Replay
// may run on an open WAL — records already appended are visible.
func (w *WAL) Replay(fn func(payload []byte) error) (skipped int64, err error) {
	w.mu.Lock()
	if w.bw != nil {
		if ferr := w.bw.Flush(); ferr != nil {
			w.mu.Unlock()
			return 0, fmt.Errorf("store: flushing WAL before replay: %w", ferr)
		}
	}
	segs := make([]int, len(w.segs))
	copy(segs, w.segs)
	w.mu.Unlock()
	for _, i := range segs {
		raw, rerr := os.ReadFile(filepath.Join(w.dir, segName(i)))
		if rerr != nil {
			if os.IsNotExist(rerr) {
				continue // compacted away while we replayed
			}
			return skipped, fmt.Errorf("store: reading WAL segment: %w", rerr)
		}
		off := 0
		for {
			payload, n, serr := scanRecord(raw[off:])
			if serr != nil {
				if errors.Is(serr, errTornRecord) {
					skipped += int64(len(raw) - off)
				}
				break
			}
			off += n
			if ferr := fn(payload); ferr != nil {
				return skipped, ferr
			}
		}
	}
	return skipped, nil
}
