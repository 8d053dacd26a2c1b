package itdr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"divot/internal/txline"
)

// iipPins are SHA-256 digests of the IIP sample bits a default-configured
// reflectometer reconstructs over 25 consecutive captures of a default line,
// per rig seed and ambient condition. They pin what a user of the instrument
// observes: a change to the physics or the instrument that moves any IIP by
// one bit fails here, however small the waveform-level error it introduces.
var iipPins = []struct {
	seed uint64
	cond string
	want string
}{
	{1, "room", "4162a25d377a3147fb4d0e31532862c0182563ba479ef87ed04b3a5223bf09d3"},
	{1, "oven", "01a313befe921ee7d47223403f72c855987fd53ed9b64268186ced5589bbdef6"},
	{1, "vibration", "6a95d142fa97cd70f6efd1127173d83780eb5abedc8a192ca738787092902a97"},
	{2, "room", "d4384071bbbc0e50a43eace7c7d1eef0dd550d9959f616c5c686cb8d8a061560"},
	{2, "oven", "6e6ab6ebfd16a1c6f4e8080ba9175fe76177bae26d6ab8441c8162f704c01953"},
	{2, "vibration", "54fdfcc38006e1c22309a5ca8ead827da53cd5f0247e311c9bee16e57b0012e2"},
	{3, "room", "5ba1e33dfccfcf2d8f9e87cdd6188f7463e406318edbd6d14e985d409273c8c4"},
	{3, "oven", "09b52741c29da02062fff55e6fd06bc44435402cf2530197e939375c38149861"},
	{3, "vibration", "24e7333c313aaeac08b32133237b3ce1481cfb1418b2083cf5a437c394fd4f2c"},
	{4, "room", "68d3a3bd504760c4b55dabd35da9a995fd522e1ea7d56e35d8eb60dd5959023c"},
	{4, "oven", "114e28c7bf6a6533688a60fdcd773ed29aa80a4d1ea80e86aedfa6c364a90ab7"},
	{4, "vibration", "7de8ce9b0b3157ce0f5b8aff4e1a41bfb7da128e1cdc87bad4e3b644ffed05f0"},
}

var pinConditions = map[string]txline.Environment{
	"room":      txline.RoomTemperature(),
	"oven":      txline.OvenSwing(),
	"vibration": txline.Vibration(2e-3),
}

// triggerPins are SHA-256 digests of the cycle counts and IIP sample bits a
// data-triggered reflectometer produces over five consecutive captures of a
// default line, per rig seed. The clock-triggered pins above never draw a
// trigger search, an edge polarity or an EMI phase; these pin every one of
// those per-bin draws, plus PLL jitter and comparator noise.
var triggerPins = []struct {
	name    string
	trigger TriggerMode
	env     txline.Environment
	want    map[uint64]string // rig seed -> digest
}{
	{"fifo-emi", TriggerFIFO, txline.EMI(0.8e-3, 333e6), map[uint64]string{
		1: "47c10b4dbf42f843d1585c69c8a1e23ce77d0da6379487f34c403633ecfdbcb9",
		2: "da0ab6caa3e2f33d669c9258389f307013bc3024664d12e557801d503724edee",
	}},
	{"none", TriggerNone, txline.RoomTemperature(), map[uint64]string{
		1: "0710b250ec5e01158a676bf22bf236b90b17ea97dc05e39cccdc654dcdea6fe7",
		2: "8df8d79521177aeff411a7d70c87a288635ea48c1574669b89943e8755ab2af5",
	}},
}

// TestIIPOutputPin checks the pinned IIP digests. The pins are amd64-only:
// the Go spec lets other architectures fuse x*y+z into one rounding, so their
// IIPs may legitimately differ in the last bits.
func TestIIPOutputPin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("IIP bit pins are recorded on amd64; %s may fuse multiply-add", runtime.GOARCH)
	}
	const captures = 25
	var buf [8]byte
	for _, pin := range iipPins {
		line, r := testRig(t, pin.seed, DefaultConfig())
		env := pinConditions[pin.cond]
		h := sha256.New()
		for range captures {
			for _, v := range r.Measure(line, env).IIP.Samples {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != pin.want {
			t.Errorf("seed %d, %s: IIP digest %s, pinned %s", pin.seed, pin.cond, got, pin.want)
		}
	}
}

// TestDataTriggerIIPPin checks the pinned data-triggered digests; amd64-only
// for the same reason as TestIIPOutputPin.
func TestDataTriggerIIPPin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("IIP bit pins are recorded on amd64; %s may fuse multiply-add", runtime.GOARCH)
	}
	const captures = 5
	var buf [8]byte
	for _, pin := range triggerPins {
		t.Run(pin.name, func(t *testing.T) {
			for seed, want := range pin.want {
				cfg := DefaultConfig()
				cfg.Trigger = pin.trigger
				line, r := testRig(t, seed, cfg)
				h := sha256.New()
				for range captures {
					m := r.Measure(line, pin.env)
					binary.LittleEndian.PutUint64(buf[:], uint64(m.CyclesUsed))
					h.Write(buf[:])
					for _, v := range m.IIP.Samples {
						binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
						h.Write(buf[:])
					}
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != want {
					t.Errorf("seed %d: digest %s, pinned %s", seed, got, want)
				}
			}
		})
	}
}
