package blockdev

import (
	"errors"
	"fmt"
	"testing"
)

// Every exported sentinel is classified through one level of %w wrapping by
// errors.Is — and by nothing else: no sentinel matches another, and each
// predicate answers for exactly its own.
func TestSentinelsClassifyThroughWrapping(t *testing.T) {
	sentinels := []struct {
		name                     string
		err                      error
		transient, shed, expired bool
	}{
		{"ErrOutOfRange", ErrOutOfRange, false, false, false},
		{"ErrShortBuffer", ErrShortBuffer, false, false, false},
		{"ErrMediaError", ErrMediaError, false, false, false},
		{"ErrTimeout", ErrTimeout, true, false, false},
		{"ErrDeviceFailed", ErrDeviceFailed, false, false, false},
		{"ErrOverload", ErrOverload, false, true, false},
		{"ErrDeadlineExceeded", ErrDeadlineExceeded, false, false, true},
	}
	for _, s := range sentinels {
		wrapped := fmt.Errorf("stddisk dev(3,0) write (attempt 2): %w", s.err)
		for _, other := range sentinels {
			if got, want := errors.Is(wrapped, other.err), other.err == s.err; got != want {
				t.Errorf("errors.Is(wrapped %s, %s) = %v, want %v", s.name, other.name, got, want)
			}
		}
		if IsTransient(wrapped) != s.transient || IsShed(wrapped) != s.shed || IsExpired(wrapped) != s.expired {
			t.Errorf("wrapped %s: transient=%v shed=%v expired=%v, want %v %v %v", s.name,
				IsTransient(wrapped), IsShed(wrapped), IsExpired(wrapped), s.transient, s.shed, s.expired)
		}
	}
	if err := CheckRange(100, 96, 8); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("CheckRange past the end: %v, want ErrOutOfRange", err)
	}
	if err := CheckRange(100, 92, 8); err != nil {
		t.Errorf("CheckRange inside the device: %v", err)
	}
	if err := CheckWrite(100, 96, 8, make([]byte, 8*512)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("CheckWrite past the end: %v, want ErrOutOfRange", err)
	}
	if err := CheckWrite(100, 92, 8, make([]byte, 8*512-1)); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("CheckWrite one byte short: %v, want ErrShortBuffer", err)
	}
	if err := CheckWrite(100, 92, 8, make([]byte, 8*512)); err != nil {
		t.Errorf("CheckWrite of a full buffer: %v", err)
	}
}
