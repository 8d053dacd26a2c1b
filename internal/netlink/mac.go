package netlink

import (
	"errors"
	"fmt"

	"divot/internal/bus"
	"divot/internal/memctl"
)

// ErrLinkDown is returned when the DIVOT gate holds the port down.
var ErrLinkDown = errors.New("netlink: port held down by authentication gate")

// Stats counts port activity.
type Stats struct {
	FramesSent    int64
	FramesDropped int64 // gate-down drops
}

// Port is the transmitting end of the protected network link: framing,
// 8b/10b line coding, and the DIVOT gate. A port refuses to transmit while
// its gate is down (the host side reacting to a tapped or swapped cable); the
// receiving end is a Deframer.
type Port struct {
	// Addr is the port's MAC-style address.
	Addr uint16

	gate memctl.Gate
	enc  *bus.Encoder8b10b

	// Stats accumulates port activity.
	Stats Stats
}

// NewPort builds a port. A nil gate means always authorized.
func NewPort(addr uint16, gate memctl.Gate) *Port {
	if gate == nil {
		gate = memctl.GateFunc(func() bool { return true })
	}
	return &Port{Addr: addr, gate: gate, enc: &bus.Encoder8b10b{}}
}

// TransmitFramed frames and line-codes a payload for the wire behind a
// leading K28.5 comma, for a receiver that deframes the continuous symbol
// stream (see Deframer). It fails when the gate is down.
func (p *Port) TransmitFramed(dst uint16, payload []byte) ([]uint16, error) {
	if !p.gate.Authorized() {
		p.Stats.FramesDropped++
		return nil, fmt.Errorf("%w: tx to %04x", ErrLinkDown, dst)
	}
	f := Frame{Dst: dst, Src: p.Addr, Payload: payload}
	raw, err := f.Marshal()
	if err != nil {
		return nil, err
	}
	p.Stats.FramesSent++
	out := make([]uint16, 0, len(raw)+1)
	out = append(out, p.enc.EncodeComma())
	return append(out, p.enc.Encode(raw)...), nil
}
