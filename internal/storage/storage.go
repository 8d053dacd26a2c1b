// Package storage extends DIVOT to a data-storage link — §VI names "data
// storage systems" as the next interface class after memory buses. A block
// device (an SSD's logical view) sits behind a DIVOT-protected serial link:
// the host-side gate stalls command submission and the device-side gate
// refuses media access when the link fingerprint stops matching, so a drive
// pulled from its chassis (the storage cold boot: stealing the disk) will
// not serve blocks to a foreign host even before full-disk-encryption keys
// enter the picture.
package storage

import (
	"errors"
	"fmt"

	"divot/internal/memctl"
	"divot/internal/sim"
)

// BlockSize is the logical block size in bytes.
const BlockSize = 512

// Sentinel errors.
var (
	// ErrUnauthorized is returned when the device-side gate refuses media
	// access.
	ErrUnauthorized = errors.New("storage: media access blocked by device gate")
	// ErrOutOfRange is returned for LBAs beyond the device capacity.
	ErrOutOfRange = errors.New("storage: LBA out of range")
)

// CmdOp is a block-command opcode.
type CmdOp int

const (
	// CmdRead reads one block.
	CmdRead CmdOp = iota
	// CmdWrite writes one block.
	CmdWrite
	// CmdTrim discards one block.
	CmdTrim
)

// String names the opcode.
func (o CmdOp) String() string {
	switch o {
	case CmdRead:
		return "READ"
	case CmdWrite:
		return "WRITE"
	case CmdTrim:
		return "TRIM"
	}
	return fmt.Sprintf("CmdOp(%d)", int(o))
}

// Command is one queued block operation.
type Command struct {
	ID   uint64
	Op   CmdOp
	LBA  int64
	Data []byte
	Done func(Completion)

	issued sim.Time
}

// CompletionStatus is the command outcome.
type CompletionStatus int

const (
	// CompOK: success.
	CompOK CompletionStatus = iota
	// CompBlockedHost: the host-side gate was closed (link unauthentic
	// from the host's view) under the fail-fast policy.
	CompBlockedHost
	// CompBlockedDevice: the device-side gate refused media access.
	CompBlockedDevice
	// CompOutOfRange: bad LBA.
	CompOutOfRange
)

// String names the status.
func (s CompletionStatus) String() string {
	switch s {
	case CompOK:
		return "OK"
	case CompBlockedHost:
		return "BLOCKED(host)"
	case CompBlockedDevice:
		return "BLOCKED(device)"
	case CompOutOfRange:
		return "OUT-OF-RANGE"
	}
	return fmt.Sprintf("CompletionStatus(%d)", int(s))
}

// Completion reports a finished command.
type Completion struct {
	ID      uint64
	Status  CompletionStatus
	Data    []byte
	Latency sim.Time
}

// Device is the drive's logical media plus its DIVOT gate.
type Device struct {
	capacity int64 // blocks
	gate     memctl.Gate
	blocks   map[int64][]byte

	// Served and Refused count media accesses.
	Served  int64
	Refused int64
}

// NewDevice builds a device with the given capacity in blocks. A nil gate
// means always authorized.
func NewDevice(capacityBlocks int64, gate memctl.Gate) (*Device, error) {
	if capacityBlocks <= 0 {
		return nil, fmt.Errorf("storage: non-positive capacity %d", capacityBlocks)
	}
	if gate == nil {
		gate = memctl.GateFunc(func() bool { return true })
	}
	return &Device{capacity: capacityBlocks, gate: gate, blocks: make(map[int64][]byte)}, nil
}

// Capacity returns the device size in blocks.
func (d *Device) Capacity() int64 { return d.capacity }

// access performs one media operation under the gate.
func (d *Device) access(op CmdOp, lba int64, data []byte) ([]byte, error) {
	if lba < 0 || lba >= d.capacity {
		return nil, fmt.Errorf("%w: %d", ErrOutOfRange, lba)
	}
	if !d.gate.Authorized() {
		d.Refused++
		return nil, fmt.Errorf("%w: LBA %d", ErrUnauthorized, lba)
	}
	d.Served++
	switch op {
	case CmdWrite:
		if len(data) != BlockSize {
			return nil, fmt.Errorf("storage: write of %d bytes, want %d", len(data), BlockSize)
		}
		buf := make([]byte, BlockSize)
		copy(buf, data)
		d.blocks[lba] = buf
		return nil, nil
	case CmdTrim:
		delete(d.blocks, lba)
		return nil, nil
	default:
		out := make([]byte, BlockSize)
		if b, ok := d.blocks[lba]; ok {
			copy(out, b)
		}
		return out, nil
	}
}

// HostConfig parameterizes the host-side queue.
type HostConfig struct {
	// LinkClockHz is the serial-link clock; command and data transfer
	// times derive from it.
	LinkClockHz float64
	// CmdOverheadCycles is the per-command protocol overhead.
	CmdOverheadCycles int
	// MediaCycles is the device's media latency per block.
	MediaCycles int
	// FailFast completes commands with CompBlockedHost while the host gate
	// is closed, instead of stalling them.
	FailFast bool
}

// Host is the host-side command queue over the protected link.
type Host struct {
	sched  *sim.Scheduler
	clock  *sim.Clock
	cfg    HostConfig
	dev    *Device
	gate   memctl.Gate
	queue  []*Command
	busy   bool
	nextID uint64

	// Completed and Blocked count command outcomes.
	Completed int64
	Blocked   int64
}

// NewHost builds the host-side queue. hostGate may be nil (unprotected).
func NewHost(sched *sim.Scheduler, dev *Device, cfg HostConfig, hostGate memctl.Gate) (*Host, error) {
	if cfg.LinkClockHz <= 0 {
		return nil, fmt.Errorf("storage: non-positive link clock %v", cfg.LinkClockHz)
	}
	if cfg.CmdOverheadCycles <= 0 || cfg.MediaCycles <= 0 {
		return nil, fmt.Errorf("storage: non-positive latency constants %+v", cfg)
	}
	if hostGate == nil {
		hostGate = memctl.GateFunc(func() bool { return true })
	}
	return &Host{
		sched: sched,
		clock: sim.NewClock(cfg.LinkClockHz),
		cfg:   cfg,
		dev:   dev,
		gate:  hostGate,
	}, nil
}

// Submit queues a command and returns its ID.
func (h *Host) Submit(c *Command) uint64 {
	h.nextID++
	c.ID = h.nextID
	c.issued = h.sched.Now()
	h.queue = append(h.queue, c)
	h.kick()
	return c.ID
}

func (h *Host) kick() {
	if h.busy {
		return
	}
	h.busy = true
	h.sched.After(0, h.serviceNext)
}

func (h *Host) serviceNext() {
	if len(h.queue) == 0 {
		h.busy = false
		return
	}
	if !h.gate.Authorized() {
		if h.cfg.FailFast {
			for _, c := range h.queue {
				h.finish(c, Completion{ID: c.ID, Status: CompBlockedHost})
				h.Blocked++
			}
			h.queue = h.queue[:0]
			h.busy = false
			return
		}
		h.sched.After(h.clock.CyclesToTime(256), h.serviceNext)
		return
	}
	c := h.queue[0]
	h.queue = h.queue[1:]

	// Transfer time: command overhead plus one block of payload for
	// reads/writes (8 bits per link cycle on this single-lane model).
	cycles := int64(h.cfg.CmdOverheadCycles + h.cfg.MediaCycles)
	if c.Op != CmdTrim {
		cycles += BlockSize
	}
	done := h.sched.Now() + h.clock.CyclesToTime(cycles)
	h.sched.At(done, func() {
		data, err := h.dev.access(c.Op, c.LBA, c.Data)
		comp := Completion{ID: c.ID, Latency: h.sched.Now() - c.issued}
		switch {
		case err == nil:
			comp.Status = CompOK
			comp.Data = data
			h.Completed++
		case errors.Is(err, ErrUnauthorized):
			comp.Status = CompBlockedDevice
			h.Blocked++
		case errors.Is(err, ErrOutOfRange):
			comp.Status = CompOutOfRange
		default:
			panic(fmt.Sprintf("storage: unexpected device error: %v", err))
		}
		h.finish(c, comp)
		h.serviceNext()
	})
}

func (h *Host) finish(c *Command, comp Completion) {
	if c.Done != nil {
		c.Done(comp)
	}
}
