// Package a declares the names the exports rule judges.
package a

// T is used by package b.
type T struct {
	// Live is written by package b.
	Live int
	// Dead is written by a's own tests alone.
	Dead int
}

// Reset is called by a's own tests alone; package b calls a Reset of its own.
func (T) Reset() {}

// String satisfies fmt.Stringer, which b's fmt.Println call relies on.
func (T) String() string { return "T" }

// Probe is used by b's tests alone.
func Probe() {}

// Sink is what package b writes to.
type Sink interface {
	// Put is called through the interface by package b.
	Put()
	// Flush is implemented by b's sink but never called through Sink.
	Flush()
}
