// Package wal is an errtaxonomy fixture. It imports the real sentinel
// taxonomy from tracklog/internal/blockdev and defines one sentinel of its
// own, exercising ==/!=, switch-case, and fmt.Errorf wrapping rules.
package wal

import (
	"errors"
	"fmt"

	"tracklog/internal/blockdev"
)

// ErrLogFull is a module sentinel: same rules apply to locally declared ones.
var ErrLogFull = errors.New("wal: log region full")

func compare(err error) bool {
	if err == blockdev.ErrTimeout { // want `== comparison against sentinel blockdev\.ErrTimeout`
		return true
	}
	if err != blockdev.ErrMediaError { // want `!= comparison against sentinel blockdev\.ErrMediaError`
		return false
	}
	return err == ErrLogFull // want `== comparison against sentinel wal\.ErrLogFull`
}

func compareOK(err error) bool {
	if err == nil { // nil checks are fine
		return false
	}
	return errors.Is(err, blockdev.ErrTimeout) || errors.Is(err, ErrLogFull)
}

func classify(err error) int {
	switch err {
	case nil:
		return 0
	case blockdev.ErrDeviceFailed: // want `switch-case comparison against sentinel blockdev\.ErrDeviceFailed`
		return 1
	default:
		return 2
	}
}

func wrapBad(sector int) error {
	return fmt.Errorf("wal: sector %d: %v", sector, blockdev.ErrMediaError) // want `wraps sentinel blockdev\.ErrMediaError without %w`
}

func wrapGood(sector int) error {
	return fmt.Errorf("wal: sector %d: %w", sector, blockdev.ErrMediaError)
}

// nonSentinel errors are untouched: local dynamic errors may be compared.
func nonSentinel(err error) bool {
	var sentinel = errors.New("scratch")
	return err == sentinel
}
