package divot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
)

// spotCheckVerdictPin is the SHA-256 over the Authenticate results of
// spotCheckCleanCalls spot checks on a clean link of a seed-77 default system
// followed by spotCheckSwapCalls on a module-swapped link of the same system.
// It pins the CPU-side verdict sequence a caller of Authenticate observes,
// including the clean bus's rare legitimate false rejections (the first is
// the 1535th call, inside the pinned window).
const spotCheckVerdictPin = "9a1297179093cd076fd37c2685e460d82dd4183df91a212cbf372e31d59eea71"

const (
	spotCheckCleanCalls = 1600
	spotCheckSwapCalls  = 50
)

// TestSpotCheckVerdictPin checks the pinned verdict digest. The pin is
// amd64-only: the Go spec lets other architectures fuse x*y+z into one
// rounding, so their IIPs may legitimately differ in the last bits.
func TestSpotCheckVerdictPin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("IIP bit pins are recorded on amd64; %s may fuse multiply-add", runtime.GOARCH)
	}
	sys := NewSystem(77, DefaultConfig())
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	spot := func(l *Link, calls int) (rejected int) {
		for range calls {
			res := l.Authenticate()
			var flags uint64
			if res.Accepted {
				flags |= 1
			} else {
				rejected++
			}
			if res.Tampered {
				flags |= 2
			}
			put(flags)
			put(math.Float64bits(res.Score))
			put(math.Float64bits(res.TamperPosition))
		}
		return rejected
	}
	calibrated := func(id string) *Link {
		l, err := sys.NewLink(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Calibrate(); err != nil {
			t.Fatal(err)
		}
		return l
	}

	if n := spot(calibrated("dimm0"), spotCheckCleanCalls); n == 0 {
		t.Errorf("no false rejection in %d clean spot checks; the pin should cover one", spotCheckCleanCalls)
	}
	swapped := calibrated("dimm1")
	NewModuleSwap(sys.Config().Line, sys.Stream("attack-dimm1")).Apply(swapped.Line)
	if n := spot(swapped, spotCheckSwapCalls); n != spotCheckSwapCalls {
		t.Errorf("swapped module accepted %d of %d spot checks", spotCheckSwapCalls-n, spotCheckSwapCalls)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != spotCheckVerdictPin {
		t.Errorf("spot-check verdict digest %s, pinned %s", got, spotCheckVerdictPin)
	}
}
