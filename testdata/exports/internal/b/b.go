// Package b uses package a and declares a Reset of its own.
package b

import (
	"fmt"

	"fixture/internal/a"
)

// U has a Reset unrelated to a.T's.
type U struct{}

// Reset does nothing.
func (U) Reset() {}

// sink is an a.Sink.
type sink struct{}

func (sink) Put()   {}
func (sink) Flush() {}

// Run prints an a.T, resets a U and puts to a sink.
func Run() {
	fmt.Println(a.T{Live: 1})
	U{}.Reset()
	var s a.Sink = sink{}
	s.Put()
}
