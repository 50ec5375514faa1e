package b

import (
	"testing"

	"fixture/internal/a"
)

func TestProbe(t *testing.T) { a.Probe() }
