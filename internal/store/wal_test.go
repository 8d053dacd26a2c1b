package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func collect(t *testing.T, w *WAL) (recs [][]byte, skipped int64) {
	t.Helper()
	skipped, err := w.Replay(func(p []byte) error {
		cp := make([]byte, len(p))
		copy(cp, p)
		recs = append(recs, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs, skipped
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		rec := []byte(fmt.Sprintf(`{"i":%d,"pad":"%032d"}`, i, i))
		want = append(want, rec)
		if err := w.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	got, skipped := collect(t, w)
	if skipped != 0 {
		t.Fatalf("clean log reported %d skipped bytes", skipped)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: everything still there.
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if w2.TruncatedBytes() != 0 {
		t.Fatalf("clean reopen truncated %d bytes", w2.TruncatedBytes())
	}
	got, _ = collect(t, w2)
	if len(got) != len(want) {
		t.Fatalf("after reopen: %d records, want %d", len(got), len(want))
	}
}

func TestWALRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SegmentBytes: 256, MaxSegments: 3})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	defer w.Close()
	rec := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 50; i++ {
		if err := w.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if n := len(w.segs); n != 3 {
		t.Fatalf("retained %d segments, want 3 (compaction bound)", n)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("%d files on disk, want 3", len(entries))
	}
	// Replay covers only what retention kept — bounded, not unbounded.
	recs, _ := collect(t, w)
	if len(recs) == 0 || len(recs) >= 50 {
		t.Fatalf("replayed %d records; want a bounded, non-empty suffix", len(recs))
	}
}

// TestWALTornTailRecovered is the kill -9 contract: a partial record at the
// live segment's tail is truncated away on reopen and the log keeps working.
func TestWALTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Tear the tail: append half a record's worth of garbage.
	path := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x0b, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	defer w2.Close()
	if w2.TruncatedBytes() != 6 {
		t.Fatalf("truncated %d bytes, want 6", w2.TruncatedBytes())
	}
	if err := w2.Append([]byte("after-crash")); err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	recs, skipped := collect(t, w2)
	if skipped != 0 {
		t.Fatalf("replay skipped %d bytes after tail truncation", skipped)
	}
	if len(recs) != 11 {
		t.Fatalf("replayed %d records, want 11 (10 pre-crash + 1 post)", len(recs))
	}
	if string(recs[10]) != "after-crash" {
		t.Fatalf("last record = %q", recs[10])
	}
}

// TestWALMidSegmentCorruption: a bit flip inside a sealed segment loses the
// rest of that segment (skipped bytes reported) but later segments replay.
func TestWALMidSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SegmentBytes: 300, MaxSegments: 10})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	rec := bytes.Repeat([]byte("y"), 80)
	for i := 0; i < 12; i++ {
		if err := w.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(w.segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(w.segs))
	}
	// Flip a payload byte in the middle of the first segment.
	path := filepath.Join(dir, segName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[recordHeader+len(rec)+recordHeader+10] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, skipped := collect(t, w)
	if skipped == 0 {
		t.Fatal("corruption went unreported")
	}
	if len(recs) >= 12 || len(recs) == 0 {
		t.Fatalf("replayed %d records, want a partial set", len(recs))
	}
	w.Close()
}

func TestWALRejectsOversizeRecord(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(make([]byte, maxRecordLen+1)); err == nil {
		t.Fatal("oversize record accepted")
	}
}
