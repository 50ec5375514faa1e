package gm

// Mirrors is the port's host-side view of the NIC's tokens: receive buffers
// provided and not yet consumed, sends in flight, and per operation slot
// (barrier, collective) the completion buffers provided and not yet claimed
// and whether a token is posted and its completion not yet received.
type Mirrors struct {
	RecvBufs, SendsInFlight int
	SlotBufs                [2]int32
	SlotActive              [2]bool
}

// Mirrors returns the port's host-side mirrors of NIC state.
func (pt *Port) Mirrors() Mirrors {
	m := Mirrors{RecvBufs: pt.recvBufs, SendsInFlight: pt.sendsInFlight}
	for i, s := range pt.slots {
		m.SlotBufs[i], m.SlotActive[i] = s.bufs, s.active
	}
	return m
}
