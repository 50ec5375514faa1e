package host

import (
	"strings"
	"testing"

	"gmsim/internal/sim"
)

func TestDefaultParamsSane(t *testing.T) {
	p := DefaultParams()
	if p.SendCost <= 0 || p.RecvProcess <= 0 || p.DoorbellLatency <= 0 ||
		p.RecvDetect <= 0 || p.SentEvtCost <= 0 || p.ProvideBufferCost <= 0 ||
		p.PollCost <= 0 || p.BarrierPostCost <= 0 {
		t.Fatalf("default params have non-positive entries: %+v", p)
	}
	if p.LayerOverhead != 0 {
		t.Fatal("default layer overhead should be zero")
	}
}

func TestEffectiveCostsWithLayerOverhead(t *testing.T) {
	p := DefaultParams()
	if p.EffectiveSendCost() != p.SendCost {
		t.Fatal("no-overhead send cost wrong")
	}
	p.LayerOverhead = sim.FromMicros(10)
	if p.EffectiveSendCost() != p.SendCost+sim.FromMicros(10) {
		t.Fatal("effective send cost ignores overhead")
	}
	if p.EffectiveRecvProcess() != p.RecvProcess+sim.FromMicros(10) {
		t.Fatal("effective recv cost ignores overhead")
	}
}

func TestProcessAccessorsAndCompute(t *testing.T) {
	s := sim.New()
	var hp Process
	hp.Start(s, 3, 7, DefaultParams(), func(any) {
		hp.Compute(100 * sim.Microsecond)
	}, nil)
	s.Run()
	if hp.Node() != 3 || hp.Rank() != 7 {
		t.Fatalf("node/rank = %v/%v", hp.Node(), hp.Rank())
	}
	if hp.Proc() != &hp.proc || hp.Proc().Sim() != s {
		t.Fatal("Proc() mismatch")
	}
	if hp.Now() != 100*sim.Microsecond {
		t.Fatalf("Now = %v after Compute(100us)", hp.Now())
	}
	if hp.Params().SendCost != DefaultParams().SendCost {
		t.Fatal("Params() mismatch")
	}
	if got := hp.String(); got != "node3/rank7" {
		t.Fatalf("String() = %q", got)
	}
}

func TestProcessWait(t *testing.T) {
	s := sim.New()
	sig := s.NewSignal()
	var woke sim.Time
	var hp Process
	hp.Start(s, 0, 0, DefaultParams(), func(any) {
		hp.Wait(sig)
		woke = hp.Now()
	}, nil)
	s.After(250, sig.Fire)
	s.Run()
	if woke != 250 {
		t.Fatalf("woke at %v, want 250", woke)
	}
}

// TestCellNamesItsProcess: a process whose cell embeds its Process is named
// by node and rank in a panic message, formatted only then.
func TestCellNamesItsProcess(t *testing.T) {
	type cell struct {
		Process
		d sim.Time
	}
	s := sim.New()
	c := &cell{d: -1}
	c.Start(s, 2, 5, DefaultParams(), func(a any) {
		c := a.(*cell)
		c.Proc().Sleep(c.d)
	}, c)
	defer func() {
		s.Close()
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, `process "node2/rank5"`) {
			t.Fatalf("panic %v, want one naming node2/rank5", r)
		}
	}()
	s.Run()
}

// TestPlainArgNamesProcessByNodeAndRank: an arg without a String of its own
// (here nil) still leaves the process named by node and rank, and the body
// still gets that arg.
func TestPlainArgNamesProcessByNodeAndRank(t *testing.T) {
	s := sim.New()
	var hp Process
	hp.Start(s, 4, 9, DefaultParams(), func(a any) {
		if a != nil {
			t.Errorf("body got arg %v, want nil", a)
		}
		hp.Proc().Sleep(-1)
	}, nil)
	defer func() {
		s.Close()
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, `process "node4/rank9"`) {
			t.Fatalf("panic %v, want one naming node4/rank9", r)
		}
	}()
	s.Run()
}
