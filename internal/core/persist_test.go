package core

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"divot/internal/rng"
	"divot/internal/txline"
)

func TestExportBeforeCalibrationFails(t *testing.T) {
	l := newLink(t, 20)
	var buf bytes.Buffer
	if err := l.CPU.ExportEnrollment(&buf); err == nil {
		t.Error("expected error before calibration")
	}
}

func TestCalibrationSurvivesPowerCycle(t *testing.T) {
	// Calibrate once (manufacturing time), export both EPROM images,
	// "power cycle" into a fresh engine over the same physical line, and
	// restore — monitoring must work without re-pairing.
	first := newLink(t, 21)
	if err := first.Calibrate(); err != nil {
		t.Fatal(err)
	}
	var cpuROM, modROM bytes.Buffer
	if err := first.CPU.ExportEnrollment(&cpuROM); err != nil {
		t.Fatal(err)
	}
	if err := first.Module.ExportEnrollment(&modROM); err != nil {
		t.Fatal(err)
	}

	// Same physical line, new engine instances (fresh noise streams).
	second, err := NewLinkOver("bus0", DefaultConfig(), first.Line, rng.New(9999))
	if err != nil {
		t.Fatal(err)
	}
	if err := second.RestoreCalibration(&cpuROM, &modROM); err != nil {
		t.Fatal(err)
	}
	if !second.Calibrated() {
		t.Fatal("link not calibrated after restore")
	}
	if alerts := mustMonitorN(t, second, 3); len(alerts) != 0 {
		t.Errorf("restored link alarms on its own bus: %v", alerts)
	}

	// And it still rejects a different bus.
	attacker := txline.New("attacker", txline.DefaultConfig(), rng.New(31337))
	second.Module.SetObservedLine(attacker)
	alerts := mustMonitor(t, second)
	var rejected bool
	for _, a := range alerts {
		if a.Side == SideModule && a.Kind == AlertAuthFailure {
			rejected = true
		}
	}
	if !rejected {
		t.Error("restored link accepted a foreign bus")
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	l := newLink(t, 22)
	if _, err := l.CPU.decodeEnrollment(strings.NewReader("junk")); err == nil {
		t.Error("expected import error")
	}
	if err := l.RestoreCalibration(strings.NewReader("junk"), strings.NewReader("junk")); err == nil {
		t.Error("expected restore error")
	}
}

// TestRestoreCalibrationRejectsWrongGrid: an EPROM image cut short or
// recorded at another sample rate is refused with an error instead of
// panicking on the first capture scored against it.
func TestRestoreCalibrationRejectsWrongGrid(t *testing.T) {
	first := newLink(t, 24)
	if err := first.Calibrate(); err != nil {
		t.Fatal(err)
	}
	f, ok := first.CPU.store.Lookup(enrollKey)
	if !ok {
		t.Fatal("no CPU enrollment")
	}
	var modROM bytes.Buffer
	if err := first.Module.ExportEnrollment(&modROM); err != nil {
		t.Fatal(err)
	}
	image := func(rate float64, samples []float64) *strings.Reader {
		return strings.NewReader(fmt.Sprintf(`{"version":1,"rate":%v,"samples":%s}`, rate, floats(samples)))
	}
	for name, cpuROM := range map[string]*strings.Reader{
		"half-length": image(f.Raw.Rate, f.Raw.Samples[:f.Raw.Len()/2]),
		"double-rate": image(2*f.Raw.Rate, f.Raw.Samples),
	} {
		t.Run(name, func(t *testing.T) {
			l, err := NewLinkOver("bus0", DefaultConfig(), first.Line, rng.New(24))
			if err != nil {
				t.Fatal(err)
			}
			err = l.RestoreCalibration(cpuROM, bytes.NewReader(modROM.Bytes()))
			if err == nil || !strings.Contains(err.Error(), "grid") {
				t.Fatalf("err = %v, want a grid mismatch", err)
			}
			if l.Calibrated() {
				t.Fatal("link calibrated after a rejected image")
			}
		})
	}
}

// TestRestoreCalibrationAllOrNothing: a valid CPU image paired with a junk
// module image is refused without installing the CPU half — no enrollment,
// no authentication, gate still closed.
func TestRestoreCalibrationAllOrNothing(t *testing.T) {
	first := newLink(t, 25)
	if err := first.Calibrate(); err != nil {
		t.Fatal(err)
	}
	var cpuROM bytes.Buffer
	if err := first.CPU.ExportEnrollment(&cpuROM); err != nil {
		t.Fatal(err)
	}
	l, err := NewLinkOver("bus0", DefaultConfig(), first.Line, rng.New(25))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.RestoreCalibration(&cpuROM, strings.NewReader("junk")); err == nil {
		t.Fatal("restore accepted a junk module image")
	}
	if l.Calibrated() {
		t.Error("link calibrated after a rejected image")
	}
	if l.CPU.Gate.Authorized() || l.CPU.authenticated {
		t.Errorf("CPU endpoint opened by a rejected restore: gate %v, authenticated %v",
			l.CPU.Gate.Authorized(), l.CPU.authenticated)
	}
	if _, ok := l.CPU.store.Lookup(enrollKey); ok {
		t.Error("CPU enrollment stored by a rejected restore")
	}
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

func TestEnrollmentIntegrityMatters(t *testing.T) {
	// §III argues the fingerprint store needs no *confidentiality* — an IIP
	// is useless off its own line. It still needs *write protection*: an
	// attacker who can rewrite the module's EPROM with the fingerprint of
	// their own bus makes the module accept that bus. This test documents
	// the threat-model boundary.
	victim := newLink(t, 23)
	if err := victim.Calibrate(); err != nil {
		t.Fatal(err)
	}
	// The attacker builds their own machine and enrolls its bus fingerprint.
	attackerStream := rng.New(31415)
	attackerLine := txline.New("attacker-bus", txline.DefaultConfig(), attackerStream)
	attacker, err := NewLinkOver("attacker", DefaultConfig(), attackerLine, attackerStream.Child("engine"))
	if err != nil {
		t.Fatal(err)
	}
	if err := attacker.Calibrate(); err != nil {
		t.Fatal(err)
	}
	var forged bytes.Buffer
	if err := attacker.Module.ExportEnrollment(&forged); err != nil {
		t.Fatal(err)
	}

	// With EPROM write access, the attacker overwrites the victim module's
	// enrollment and moves the module onto their bus: the module now
	// authenticates the attacker's machine.
	f, err := victim.Module.decodeEnrollment(&forged)
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.Module.store.Enroll(enrollKey, f); err != nil {
		t.Fatal(err)
	}
	victim.Module.SetObservedLine(attackerLine)
	alerts := mustMonitor(t, victim)
	for _, a := range alerts {
		if a.Side == SideModule && a.Kind == AlertAuthFailure {
			t.Fatalf("rewritten enrollment should (regrettably) authenticate: %v", alerts)
		}
	}
	// The defense is therefore write-once/authenticated EPROM — outside
	// DIVOT's own mechanism, as the paper's future-work reactions are.
}
