package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample should be all zeros")
	}
	if s.Variance() != 0 || s.StdDev() != 0 {
		t.Fatal("empty sample variance should be 0")
	}
}

func TestSingleValue(t *testing.T) {
	var s Sample
	s.Add(7)
	if s.Mean() != 7 || s.Min() != 7 || s.Max() != 7 || s.N() != 1 {
		t.Fatalf("single value sample wrong: %v", s.String())
	}
	if s.Variance() != 0 {
		t.Fatal("single value variance should be 0")
	}
}

func TestMeanMinMax(t *testing.T) {
	var s Sample
	for _, v := range []float64{3, 1, 4, 1, 5, 9, 2, 6} {
		s.Add(v)
	}
	if !almostEqual(s.Mean(), 31.0/8, 1e-12) {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
}

func TestVarianceKnown(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	// population variance 4 => sample variance 4*8/7
	want := 4.0 * 8 / 7
	if !almostEqual(s.Variance(), want, 1e-9) {
		t.Fatalf("Variance = %v, want %v", s.Variance(), want)
	}
}

// TestSampleSize pins Sample's O(1) state: a count and four running
// moments, no slice of observations.
func TestSampleSize(t *testing.T) {
	if sz := unsafe.Sizeof(Sample{}); sz > 40 {
		t.Fatalf("Sample is %d bytes, want <= 40", sz)
	}
}

func TestStringNonPanic(t *testing.T) {
	var s Sample
	s.Add(1.5)
	if !strings.Contains(s.String(), "n=1") {
		t.Fatalf("String = %q", s.String())
	}
}

// Property: mean lies within [min, max]; variance nonnegative; N counts
// every observation.
func TestPropertySampleInvariants(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Sample
		count := int(n%100) + 1
		for i := 0; i < count; i++ {
			s.Add(rng.NormFloat64() * 100)
		}
		if s.Mean() < s.Min()-1e-9 || s.Mean() > s.Max()+1e-9 {
			return false
		}
		if s.Variance() < 0 {
			return false
		}
		return s.N() == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Figure 5(a)", "Nodes", "NIC-PE", "Host-PE")
	tb.AddRow(16, 102.14, 181.81)
	tb.AddRow(8, 82.72, "n/a")
	out := tb.String()
	if !strings.Contains(out, "Figure 5(a)") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "102.14") {
		t.Fatal("missing float cell")
	}
	if !strings.Contains(out, "n/a") {
		t.Fatal("missing string cell")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("line count = %d, want 5:\n%s", len(lines), out)
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "A")
	tb.AddRow(1)
	out := tb.String()
	if strings.HasPrefix(out, "\n") {
		t.Fatal("empty title should not emit blank line")
	}
}

func TestTableColumnAlignment(t *testing.T) {
	tb := NewTable("", "X", "Y")
	tb.AddRow("longvalue", 1)
	tb.AddRow("a", 2)
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	// Second column should start at the same offset on all data rows.
	if idx := strings.Index(last, "2"); idx != strings.Index(lines[len(lines)-2], "1") {
		t.Fatalf("columns misaligned:\n%s", tb.String())
	}
}
