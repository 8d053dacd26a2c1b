package daemon

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"divot"
	"divot/internal/store"
)

// trailingSpec is a valid one-bus spec followed by a second spec and junk;
// only the first object would load if the rest were ignored.
const trailingSpec = `{"buses":[{"id":"a"}]} {"buses":[{"id":"b"},{"id":"c"}]} garbage`

func TestLoadSpecRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"empty buses", `{"seed": 1, "buses": []}`, "at least one bus"},
		{"no file content", `{`, "parsing fleet spec"},
		{"duplicate ids", `{"buses": [{"id": "a"}, {"id": "a"}]}`, `duplicate bus id "a"`},
		{"missing id", `{"buses": [{}]}`, "has no id"},
		{"bad jitter", `{"jitter_frac": 2, "buses": [{"id": "a"}]}`, "jitter_frac"},
		{"negative interval", `{"interval_ms": -5, "buses": [{"id": "a"}]}`, "interval_ms"},
		{"unknown attack", `{"buses": [{"id": "a", "attack": {"kind": "laser"}}]}`, `unknown attack kind "laser"`},
		{"unknown field", `{"busses": [{"id": "a"}]}`, "parsing fleet spec"},
		{"bad threshold", `{"auth_threshold": 1.2, "buses": [{"id": "a"}]}`, "auth_threshold"},
		// The cold-start key is gone: cold start runs at parallelism.
		{"removed key", `{"calib_parallelism": 2, "buses": [{"id": "a"}]}`, `unknown field "calib_parallelism"`},
		{"trailing data", trailingSpec, "trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadSpec(writeSpec(t, tc.body))
			if err == nil {
				t.Fatalf("spec %s loaded without error", tc.body)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
	var trailing *TrailingDataError
	if _, err := LoadSpec(writeSpec(t, trailingSpec)); !errors.As(err, &trailing) || trailing.Offset != 22 {
		t.Errorf("trailing-data error %v, want a *TrailingDataError at offset 22", err)
	}
	if _, err := LoadSpec(writeSpec(t, `{"buses": [{"id": "a"}]}`+"\n\t \n")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
	if _, err := LoadSpec(""); err == nil || !strings.Contains(err.Error(), "-spec") {
		t.Errorf("missing path error %v should point at -spec", err)
	}
	if _, err := LoadSpec("/does/not/exist.json"); err == nil {
		t.Error("nonexistent file should error")
	}
}

// FuzzLoadSpec feeds hostile spec files through LoadSpec: every input must
// either fail with an error or load as a spec that validates and names at
// least one bus — never panic.
func FuzzLoadSpec(f *testing.F) {
	f.Add([]byte(`{"seed": 3, "interval_ms": 50, "buses": [{"id": "a"}, {"id": "b", "interval_ms": 7}]}`))
	f.Add([]byte(`{"calib_parallelism": 2, "buses": [{"id": "a"}]}`))
	f.Add([]byte(trailingSpec))
	f.Add([]byte(`{"seed": 5, "buses": [{"id": "a", "attack": {"kind": "interposer", "after_rounds": 3, "position": 0.1}}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		path := filepath.Join(t.TempDir(), "fleet.json")
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		spec, err := LoadSpec(path)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("loaded spec fails Validate: %v", err)
		}
		if len(spec.Buses) == 0 {
			t.Fatal("loaded spec has no buses")
		}
	})
}

func TestLoadSpecDefaults(t *testing.T) {
	spec, err := LoadSpec(writeSpec(t, `{"seed": 3, "buses": [{"id": "a"}, {"id": "b", "interval_ms": 7}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Listen != "127.0.0.1:9720" {
		t.Errorf("default listen = %q", spec.Listen)
	}
	if spec.IntervalMS != 100 {
		t.Errorf("default interval = %d", spec.IntervalMS)
	}
	if got := spec.interval(spec.Buses[0]); got != 100 {
		t.Errorf("bus a interval = %d, want fleet default 100", got)
	}
	if got := spec.interval(spec.Buses[1]); got != 7 {
		t.Errorf("bus b interval = %d, want override 7", got)
	}
}

// TestSpecAcceptsAdaptiveTapAndThreshold covers the experiment-harness spec
// extensions: the adaptive-tap scripted attack validates and builds a
// stepper, and a tuned auth_threshold reaches the engine configuration.
func TestSpecAcceptsAdaptiveTapAndThreshold(t *testing.T) {
	spec, err := LoadSpec(writeSpec(t, `{
		"seed": 5, "auth_threshold": 0.62,
		"buses": [{"id": "a", "attack": {"kind": "adaptive-tap", "after_rounds": 3, "position": 0.1}}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.AuthThreshold != 0.62 {
		t.Errorf("AuthThreshold = %v, want 0.62", spec.AuthThreshold)
	}
	d, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ls := d.byID["a"]
	if ls.attack == nil || ls.attack.Name() != "adaptive-tap" {
		t.Fatalf("scripted attack = %v, want adaptive-tap", ls.attack)
	}
	if _, ok := ls.attack.(divot.AttackStepper); !ok {
		t.Fatal("adaptive-tap does not implement the stepper the scheduler advances")
	}
}

// TestRunExitCodes drives the command entry point Main directly: a bad spec
// must exit non-zero with a useful message on stderr, a bad flag must exit 2.
func TestRunExitCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	ctx := context.Background()

	if code := Main(ctx, []string{"-spec", writeSpec(t, `{"buses": []}`)}, &stdout, &stderr); code != 1 {
		t.Errorf("bad spec exit = %d, want 1", code)
	}
	if msg := stderr.String(); !strings.Contains(msg, "at least one bus") {
		t.Errorf("bad-spec stderr %q carries no useful message", msg)
	}

	stderr.Reset()
	if code := Main(ctx, nil, &stdout, &stderr); code != 1 {
		t.Errorf("missing -spec exit = %d, want 1", code)
	}

	stderr.Reset()
	if code := Main(ctx, []string{"-bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}

	// The happy path: a cancelled context makes run return promptly after
	// startup, exit 0.
	runCtx, cancel := context.WithCancel(ctx)
	good := writeSpec(t, `{"seed": 1, "interval_ms": 20, "buses": [{"id": "solo"}]}`)
	out, errOut := &syncBuffer{}, &syncBuffer{}
	codeCh := make(chan int, 1)
	go func() {
		codeCh <- Main(runCtx, []string{"-spec", good, "-listen", "127.0.0.1:0"}, out, errOut)
	}()
	for deadline := time.Now().Add(15 * time.Second); !strings.Contains(out.String(), "serving on"); {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported startup (stderr: %s)", errOut.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if code := <-codeCh; code != 0 {
		t.Errorf("clean run exit = %d, want 0 (stderr: %s)", code, errOut.String())
	}
}

// syncBuffer is a bytes.Buffer safe for one writer and one polling reader.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAttackPositionBounds: a scripted attack's position is checked against
// the line length when the fleet is built, so an attack that could not be
// mounted is refused with an error naming the bus instead of panicking the
// scheduler when it mounts. Every accepted spec must then mount cleanly.
func TestAttackPositionBounds(t *testing.T) {
	cfg := lightConfig()
	length := cfg.Line.Length
	positions := []struct {
		name string
		pos  float64
	}{
		{"zero", 0},
		{"mid", length / 2},
		{"length", length},
		{"beyond", 4 * length},
	}
	accept := map[string]map[string]bool{
		"interposer":   {"mid": true},
		"wiretap":      {"zero": true, "mid": true, "length": true},
		"probe":        {"zero": true, "mid": true, "length": true},
		"adaptive-tap": {"zero": true, "mid": true, "length": true},
		"module-swap":  {"zero": true, "mid": true, "length": true, "beyond": true},
	}
	for kind, ok := range accept {
		for _, p := range positions {
			t.Run(kind+"/"+p.name, func(t *testing.T) {
				spec := benchSpec(1, 0)
				spec.Buses[0].Attack = &AttackSpec{Kind: kind, Position: p.pos}
				if err := spec.Validate(); err != nil {
					t.Fatalf("Validate: %v", err)
				}
				d, err := newWarm(spec, Options{Config: cfg, Backend: store.NewMemory()})
				if !ok[p.name] {
					if err == nil {
						t.Fatalf("%s at %g m on a %g m line was accepted", kind, p.pos, length)
					}
					if !strings.Contains(err.Error(), spec.Buses[0].ID) {
						t.Errorf("error %q does not name the bus", err)
					}
					return
				}
				if err != nil {
					t.Fatalf("%s at %g m refused: %v", kind, p.pos, err)
				}
				d.monitorOnce(d.links[0]) // mounts the attack
				d.monitorOnce(d.links[0]) // and steps an adaptive one
				if !d.links[0].attacked {
					t.Error("attack did not mount")
				}
			})
		}
	}
}
