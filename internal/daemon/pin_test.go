package daemon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"divot"
	"divot/internal/store"
)

// TestEnrollmentSnapshotPin pins the persisted enrollment-snapshot payloads
// of a 4-bus fleet cold-started into a store.Memory backend, at the default engine
// configuration and at the light benchmark one. The snapshot is what a
// restarted daemon warm-restores from, so these digests are the fleet-level
// output contract: a change below the daemon (physics, instrument,
// fingerprint) that moves one enrolled bit fails here.
//
// The pins are amd64-only: the Go spec lets other architectures fuse
// x*y+z into one rounding, so their enrollments may legitimately differ in
// the last bits.
func TestEnrollmentSnapshotPin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("snapshot pins are recorded on amd64; %s may fuse multiply-add", runtime.GOARCH)
	}
	defaultCfg := divot.DefaultConfig()
	for _, tc := range []struct {
		name string
		cfg  *divot.Config
		want string
	}{
		{"default", &defaultCfg, "f4c524c20dbd294167596276626633fbd9a8582dd40515e53dbbb8646d99befa"},
		{"light", lightConfig(), "eb608d02948c5982f2fc6ec62dbbc995864b075d13d93d9dfb360129b96ad2e1"},
	} {
		spec := benchSpec(4, 0)
		backend := store.NewMemory()
		d, err := newWarm(spec, Options{Config: tc.cfg, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, bus := range spec.Buses {
			raw, err := backend.LoadSnapshot(bus.ID, d.specHash)
			if err != nil {
				t.Fatalf("%s: snapshot for %s: %v", tc.name, bus.ID, err)
			}
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(raw))))
			h.Write(raw)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s config: snapshot digest %s, pinned %s", tc.name, got, tc.want)
		}
	}
}
