package a

import "testing"

func TestReset(t *testing.T) { T{Dead: 1}.Reset() }
