package fingerprint

import (
	"sync"
	"testing"
)

func TestStoreLifecycle(t *testing.T) {
	s := NewStore()
	f := Pipeline{}.FromWaveform(waveOf(1, 2, 3))
	if err := s.Enroll("bus0", f); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Lookup("bus0")
	if !ok || got.Len() != 3 {
		t.Fatalf("lookup failed: %v %v", got, ok)
	}
	if _, ok := s.Lookup("missing"); ok {
		t.Error("lookup of unknown id should fail")
	}
	s.Forget("bus0")
	if _, ok := s.Lookup("bus0"); ok {
		t.Error("forget did not remove entry")
	}
	s.Forget("missing") // no-op
}

func TestStoreRejectsInvalid(t *testing.T) {
	s := NewStore()
	if err := s.Enroll("x", IIP{}); err == nil {
		t.Error("expected error enrolling invalid fingerprint")
	}
}

func TestStoreReEnrollReplaces(t *testing.T) {
	s := NewStore()
	if err := s.Enroll("x", Pipeline{}.FromWaveform(waveOf(1, 2))); err != nil {
		t.Fatal(err)
	}
	if err := s.Enroll("x", Pipeline{}.FromWaveform(waveOf(1, 2, 3, 4))); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Lookup("x")
	if got.Len() != 4 {
		t.Errorf("re-enrollment did not replace: len %d", got.Len())
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := NewStore()
	f := Pipeline{}.FromWaveform(waveOf(1, 2))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = s.Enroll("shared", f)
				s.Lookup("shared")
			}
		}()
	}
	wg.Wait()
}
