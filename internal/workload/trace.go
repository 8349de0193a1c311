package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"tracklog/internal/sim"
)

// TraceOp is one record of an I/O trace: issue a request `At` after trace
// start, at LBA for Sectors sectors.
type TraceOp struct {
	At      time.Duration
	Write   bool
	LBA     int64
	Sectors int
}

// Trace is an ordered sequence of I/O operations, replayable against any
// block device through its Load. Traces serialize to a simple text format,
// one op per line:
//
//	<at_us> <R|W> <lba> <sectors>
type Trace struct {
	Ops []TraceOp
}

// WriteTo serializes the trace.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, op := range t.Ops {
		kind := "R"
		if op.Write {
			kind = "W"
		}
		m, err := fmt.Fprintf(w, "%d %s %d %d\n", op.At.Microseconds(), kind, op.LBA, op.Sectors)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ParseTrace reads the text format produced by WriteTo. It is strict: every
// non-comment line must be exactly four fields, values must be in range, and
// issue times must be non-decreasing. Errors carry the offending line number.
func ParseTrace(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	line := 0
	lastAt := int64(-1)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 4 {
			return nil, fmt.Errorf("workload: trace line %d: %d fields, want 4 (<at_us> <R|W> <lba> <sectors>)", line, len(fields))
		}
		atUS, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: bad issue time %q: %w", line, fields[0], err)
		}
		if atUS < 0 {
			return nil, fmt.Errorf("workload: trace line %d: negative issue time %d", line, atUS)
		}
		if atUS < lastAt {
			return nil, fmt.Errorf("workload: trace line %d: issue time %dus before previous op at %dus", line, atUS, lastAt)
		}
		kind := fields[1]
		if kind != "R" && kind != "W" {
			return nil, fmt.Errorf("workload: trace line %d: bad op %q, want R or W", line, kind)
		}
		lba, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: bad LBA %q: %w", line, fields[2], err)
		}
		if lba < 0 {
			return nil, fmt.Errorf("workload: trace line %d: negative LBA %d", line, lba)
		}
		sectors, err := strconv.Atoi(fields[3])
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: bad sector count %q: %w", line, fields[3], err)
		}
		if sectors <= 0 {
			return nil, fmt.Errorf("workload: trace line %d: sector count %d, want > 0", line, sectors)
		}
		lastAt = atUS
		t.Ops = append(t.Ops, TraceOp{
			At:      time.Duration(atUS) * time.Microsecond,
			Write:   kind == "W",
			LBA:     lba,
			Sectors: sectors,
		})
	}
	return t, sc.Err()
}

// SynthesizeTrace builds a trace of n operations with the given pattern,
// write ratio (0..1), request size and mean inter-arrival gap
// (exponentially distributed, a Poisson arrival process).
func SynthesizeTrace(n int, pattern Pattern, writeRatio float64, sectors int, meanGap time.Duration, devSectors int64, seed uint64) *Trace {
	rng := sim.NewRand(seed)
	t := &Trace{Ops: make([]TraceOp, 0, n)}
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		at += time.Duration(rng.Exp(float64(meanGap)))
		t.Ops = append(t.Ops, TraceOp{
			At:      at,
			Write:   rng.Float64() < writeRatio,
			LBA:     pattern.Next(rng, devSectors, sectors),
			Sectors: sectors,
		})
	}
	return t
}

// Load returns the trace as a closed load of one stream, trace-replay: each
// op is issued at its trace offset or, when the previous op is still
// outstanding, as soon as that completes.
func (t *Trace) Load() Load {
	return Load{Streams: []Stream{{Name: "trace-replay", Ops: t.Ops}}}
}
