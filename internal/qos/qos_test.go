package qos

import (
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/sim"
)

func TestNilPolicyIsPermissive(t *testing.T) {
	var p *Policy
	if p.QueueBound() != 0 || p.DepthBound() != 0 {
		t.Error("nil policy has bounds")
	}
	if got := p.RetryBudget(blockdev.ClassNormal, 7); got != 7 {
		t.Errorf("RetryBudget fallback = %d, want 7", got)
	}
	if got := p.Deadline(1000, 0); got != 0 {
		t.Errorf("nil policy deadline = %d, want 0", got)
	}
	if got := p.Deadline(1000, 555); got != 555 {
		t.Errorf("explicit deadline = %d, want 555", got)
	}
	if p.ClassBound(blockdev.ClassBackground) != 0 {
		t.Error("nil policy has a class bound")
	}
}

func TestPolicyDeadlineAndBudgets(t *testing.T) {
	p := &Policy{DefaultDeadline: time.Millisecond, NormalRetries: 2, InteractiveRetries: 9}
	if got := p.Deadline(sim.Time(1000), 0); got != sim.Time(1000).Add(time.Millisecond) {
		t.Errorf("default deadline = %d", got)
	}
	if got := p.Deadline(sim.Time(1000), 42); got != 42 {
		t.Errorf("explicit deadline overridden: %d", got)
	}
	if got := p.RetryBudget(blockdev.ClassNormal, 7); got != 2 {
		t.Errorf("normal budget = %d, want 2", got)
	}
	if got := p.RetryBudget(blockdev.ClassInteractive, 7); got != 9 {
		t.Errorf("interactive budget = %d, want 9", got)
	}
	// Unset class budget falls back to the historical constant.
	if got := p.RetryBudget(blockdev.ClassBackground, 7); got != 7 {
		t.Errorf("background budget = %d, want fallback 7", got)
	}
}

func TestClassBoundsOrderShedding(t *testing.T) {
	p := &Policy{MaxQueue: 64}
	bg := p.ClassBound(blockdev.ClassBackground)
	no := p.ClassBound(blockdev.ClassNormal)
	in := p.ClassBound(blockdev.ClassInteractive)
	if !(bg < no && no < in) {
		t.Errorf("class bounds not ordered: bg=%d normal=%d interactive=%d", bg, no, in)
	}
	if in != 64 {
		t.Errorf("interactive bound = %d, want MaxQueue", in)
	}
}
