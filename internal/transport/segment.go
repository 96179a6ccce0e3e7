// Package transport implements a reliable, connection-oriented byte
// stream over simnet packets — the sidecar-to-sidecar channel of the
// mesh. It provides window-based congestion control with pluggable
// algorithms, including the scavenger protocols (LEDBAT, TCP-LP style)
// that the paper's cross-layer optimization 3(b) assigns to
// latency-insensitive requests.
//
// Messages, not bytes, are the unit of the API: an upper layer sends
// (meta, wireSize) pairs and the peer receives meta exactly when all
// wireSize bytes have been delivered in order. Bodies are accounted
// byte-accurately on the wire without being materialized.
package transport

import (
	"fmt"
	"time"
)

// SegKind enumerates segment types.
type SegKind uint8

// Segment kinds.
const (
	SegSYN SegKind = iota + 1
	SegSYNACK
	SegACK
	SegDATA
	SegFIN
)

func (k SegKind) String() string {
	switch k {
	case SegSYN:
		return "SYN"
	case SegSYNACK:
		return "SYNACK"
	case SegACK:
		return "ACK"
	case SegDATA:
		return "DATA"
	case SegFIN:
		return "FIN"
	}
	return fmt.Sprintf("SegKind(%d)", uint8(k))
}

// Bound marks the end of an application message within the stream:
// the message's meta is delivered once End bytes are contiguous.
type Bound struct {
	End  uint64
	Meta any
}

// Segment is the transport payload carried in a simnet.Packet.
//
// Segments are recycled through their network's table.segPool: once
// freeSeg returns one it may be scrubbed and reused, so references must
// not outlive the handling call (enforced by meshvet's poolescape
// analyzer).
//
//meshvet:pooled
type Segment struct {
	Kind SegKind
	// Seq is the stream offset of the first payload byte (DATA), or of
	// the FIN marker.
	Seq uint64
	// Len is the payload byte count (DATA only).
	Len int
	// Ack is the cumulative acknowledgment (ACK and SYNACK).
	Ack uint64
	// Wnd is the advertised receive window in bytes.
	Wnd int
	// TSVal is the sender's clock at transmission; TSEcr echoes the
	// peer's most recent TSVal (RTT measurement robust to
	// retransmission, per RFC 7323 semantics).
	TSVal, TSEcr time.Duration
	// Bounds lists message boundaries that end inside this segment's
	// payload range.
	Bounds []Bound
	// Sacks reports up to maxSackBlocks received out-of-order ranges
	// (ACK only), letting the sender repair multi-loss windows in one
	// round trip instead of one hole per RTT.
	Sacks []SackBlock
}

// SackBlock is a half-open [Start, End) range of received bytes beyond
// the cumulative ACK.
type SackBlock struct {
	Start, End uint64
}

// maxSackBlocks bounds the SACK option size, mirroring TCP's limit.
const maxSackBlocks = 4

// MSS is the maximum payload bytes per DATA segment.
const MSS = 1460 // simnet.MTU - simnet.HeaderBytes

// ctrlSize is the on-wire size of a control (SYN/ACK/FIN) packet.
const ctrlSize = 40
