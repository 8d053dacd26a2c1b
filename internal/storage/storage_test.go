package storage

import (
	"bytes"
	"testing"

	"divot/internal/memctl"
	"divot/internal/sim"
)

type rig struct {
	sched *sim.Scheduler
	dev   *Device
	host  *Host
	comps []Completion
}

func newRig(t *testing.T, hostGate, devGate memctl.Gate, cfg HostConfig) *rig {
	t.Helper()
	r := &rig{sched: &sim.Scheduler{}}
	var err error
	r.dev, err = NewDevice(1024, devGate)
	if err != nil {
		t.Fatal(err)
	}
	r.host, err = NewHost(r.sched, r.dev, cfg, hostGate)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *rig) submit(op CmdOp, lba int64, data []byte) {
	r.host.Submit(&Command{Op: op, LBA: lba, Data: data,
		Done: func(c Completion) { r.comps = append(r.comps, c) }})
}

// testHostConfig is a 1 GHz link with NVMe-ish constants.
func testHostConfig() HostConfig {
	return HostConfig{
		LinkClockHz:       1e9,
		CmdOverheadCycles: 64,
		MediaCycles:       4096,
	}
}

func block(b byte) []byte { return bytes.Repeat([]byte{b}, BlockSize) }

func TestReadWriteTrimRoundTrip(t *testing.T) {
	r := newRig(t, nil, nil, testHostConfig())
	r.submit(CmdWrite, 7, block(0xAB))
	r.submit(CmdRead, 7, nil)
	r.submit(CmdTrim, 7, nil)
	r.submit(CmdRead, 7, nil)
	r.sched.Run(1 << 20)
	if len(r.comps) != 4 {
		t.Fatalf("completions: %d", len(r.comps))
	}
	for i, c := range r.comps {
		if c.Status != CompOK {
			t.Fatalf("command %d status %v", i, c.Status)
		}
	}
	if !bytes.Equal(r.comps[1].Data, block(0xAB)) {
		t.Error("read-back differs")
	}
	for _, b := range r.comps[3].Data {
		if b != 0 {
			t.Fatal("trimmed block should read zero")
		}
	}
	if r.host.Completed != 4 {
		t.Errorf("Completed = %d", r.host.Completed)
	}
}

func TestUnwrittenBlockReadsZero(t *testing.T) {
	r := newRig(t, nil, nil, testHostConfig())
	r.submit(CmdRead, 100, nil)
	r.sched.Run(1 << 20)
	for _, b := range r.comps[0].Data {
		if b != 0 {
			t.Fatal("fresh block should read zero")
		}
	}
}

func TestOutOfRangeLBA(t *testing.T) {
	r := newRig(t, nil, nil, testHostConfig())
	r.submit(CmdRead, 5000, nil)
	r.submit(CmdRead, -1, nil)
	r.sched.Run(1 << 20)
	for i, c := range r.comps {
		if c.Status != CompOutOfRange {
			t.Errorf("command %d status %v", i, c.Status)
		}
	}
}

func TestDeviceGateBlocksStolenDrive(t *testing.T) {
	// The storage cold boot: the drive is moved to an attacker's host, so
	// the device-side gate (driven by the drive's own iTDR) is closed and
	// the media refuses to serve.
	devGate := memctl.NewStaticGate(true)
	r := newRig(t, nil, devGate, testHostConfig())
	r.submit(CmdWrite, 3, block(0x42))
	r.sched.Run(1 << 20)
	devGate.Set(false) // drive now sees a foreign bus
	r.submit(CmdRead, 3, nil)
	r.sched.Run(1 << 20)
	last := r.comps[len(r.comps)-1]
	if last.Status != CompBlockedDevice {
		t.Fatalf("stolen-drive read status %v", last.Status)
	}
	if r.dev.Refused != 1 {
		t.Errorf("Refused = %d", r.dev.Refused)
	}
	// Back on the paired host, data is intact.
	devGate.Set(true)
	r.submit(CmdRead, 3, nil)
	r.sched.Run(1 << 20)
	last = r.comps[len(r.comps)-1]
	if last.Status != CompOK || !bytes.Equal(last.Data, block(0x42)) {
		t.Error("data lost after gate reopened")
	}
}

func TestHostGateStallsThenRecovers(t *testing.T) {
	hostGate := memctl.NewStaticGate(false)
	r := newRig(t, hostGate, nil, testHostConfig())
	r.submit(CmdRead, 0, nil)
	r.sched.RunUntil(10 * sim.Microsecond)
	if len(r.comps) != 0 {
		t.Fatal("command completed while host gate closed")
	}
	if len(r.host.queue) != 1 {
		t.Fatalf("queue depth %d", len(r.host.queue))
	}
	hostGate.Set(true)
	r.sched.Run(1 << 20)
	if len(r.comps) != 1 || r.comps[0].Status != CompOK {
		t.Fatalf("completions after recovery: %+v", r.comps)
	}
	if r.comps[0].Latency < 10*sim.Microsecond {
		t.Error("latency should include the stall")
	}
}

func TestHostGateFailFast(t *testing.T) {
	cfg := testHostConfig()
	cfg.FailFast = true
	hostGate := memctl.NewStaticGate(false)
	r := newRig(t, hostGate, nil, cfg)
	r.submit(CmdRead, 0, nil)
	r.submit(CmdWrite, 1, block(1))
	r.sched.Run(1 << 20)
	if len(r.comps) != 2 {
		t.Fatalf("completions: %d", len(r.comps))
	}
	for _, c := range r.comps {
		if c.Status != CompBlockedHost {
			t.Errorf("status %v", c.Status)
		}
	}
	if r.host.Blocked != 2 {
		t.Errorf("Blocked = %d", r.host.Blocked)
	}
}

func TestLatencyModel(t *testing.T) {
	r := newRig(t, nil, nil, testHostConfig())
	r.submit(CmdTrim, 0, nil)
	r.submit(CmdRead, 0, nil)
	r.sched.Run(1 << 20)
	trim, read := r.comps[0].Latency, r.comps[1].Latency
	if read <= trim {
		t.Errorf("read (%v) should outlast trim (%v): payload transfer", read, trim)
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewDevice(0, nil); err == nil {
		t.Error("expected capacity error")
	}
	sched := &sim.Scheduler{}
	dev, _ := NewDevice(8, nil)
	bad := testHostConfig()
	bad.LinkClockHz = 0
	if _, err := NewHost(sched, dev, bad, nil); err == nil {
		t.Error("expected clock error")
	}
	bad = testHostConfig()
	bad.MediaCycles = 0
	if _, err := NewHost(sched, dev, bad, nil); err == nil {
		t.Error("expected latency error")
	}
}

func TestBadWriteSizePanicsViaDeviceError(t *testing.T) {
	r := newRig(t, nil, nil, testHostConfig())
	r.submit(CmdWrite, 0, []byte{1, 2, 3})
	defer func() {
		if recover() == nil {
			t.Error("malformed write should surface loudly")
		}
	}()
	r.sched.Run(1 << 20)
}

func TestStringers(t *testing.T) {
	if CmdRead.String() != "READ" || CmdWrite.String() != "WRITE" ||
		CmdTrim.String() != "TRIM" || CmdOp(9).String() == "" {
		t.Error("CmdOp names")
	}
	if CompOK.String() != "OK" || CompBlockedHost.String() != "BLOCKED(host)" ||
		CompBlockedDevice.String() != "BLOCKED(device)" ||
		CompOutOfRange.String() != "OUT-OF-RANGE" || CompletionStatus(9).String() == "" {
		t.Error("CompletionStatus names")
	}
}
