package a

import "testing"

func TestReset(t *testing.T) { T{}.Reset() }
