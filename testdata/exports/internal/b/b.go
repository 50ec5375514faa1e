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

// Run prints an a.T and resets a U.
func Run() {
	fmt.Println(a.T{})
	U{}.Reset()
}
