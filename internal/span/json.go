package span

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Deterministic JSON span dump. Hand-rolled like the Chrome exporter: all
// numbers are integers (virtual ns), field order is fixed, requests appear
// in completion order and spans in attribution order, so two same-seed runs
// produce byte-identical files. ReadJSON reads it back.

// WriteJSON writes every retained request as one JSON document:
//
//	{"version":1,"dropped":0,"requests":[
//	  {"id":1,"kind":"write","driver":"trail","dev":"data0","lba":128,
//	   "count":2,"start_ns":0,"end_ns":1510000,"err":0,
//	   "spans":[{"phase":"queue","start_ns":0,"end_ns":9000,"a":1,"b":0},...]},
//	  ...]}
//
// A nil recorder writes an empty but valid dump.
func (r *Recorder) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"version\":1,\"dropped\":%d,\"requests\":[", r.Dropped())
	for i, req := range r.Requests() {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteByte('\n')
		writeRequest(bw, req)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

func writeRequest(bw *bufio.Writer, r *Request) {
	errBit := 0
	if r.Err {
		errBit = 1
	}
	fmt.Fprintf(bw, `{"id":%d,"kind":%s,"driver":%s,"dev":%s,"lba":%d,"count":%d,"start_ns":%d,"end_ns":%d,"err":%d`,
		r.ID, strconv.Quote(r.Kind.String()), strconv.Quote(r.Driver), strconv.Quote(r.Dev),
		r.LBA, r.Count, r.Start, r.End, errBit)
	if len(r.Flows) > 0 {
		bw.WriteString(`,"flows":[`)
		for i, f := range r.Flows {
			if i > 0 {
				bw.WriteByte(',')
			}
			fmt.Fprintf(bw, "%d", f)
		}
		bw.WriteByte(']')
	}
	bw.WriteString(`,"spans":[`)
	for i, s := range r.Spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, `{"phase":%s,"start_ns":%d,"end_ns":%d,"a":%d,"b":%d}`,
			strconv.Quote(s.Phase.String()), s.Start, s.End, s.A, s.B)
	}
	bw.WriteString("]}")
}

// ErrBadDump is the sentinel every ReadJSON failure wraps.
var ErrBadDump = errors.New("span: malformed span dump")

// ReadJSON reads a dump that WriteJSON wrote and returns its requests in
// file order, as a non-nil slice, and its dropped count. It checks the
// version (1), every kind and phase name, and that no request or span ends
// before it starts.
func ReadJSON(r io.Reader) ([]*Request, int64, error) {
	var dump struct {
		Version  int
		Dropped  int64
		Requests []struct {
			ID, LBA           int64
			Kind, Driver, Dev string
			Count, Err        int
			Start             int64 `json:"start_ns"`
			End               int64 `json:"end_ns"`
			Flows             []int64
			Spans             []struct {
				Phase string
				Start int64 `json:"start_ns"`
				End   int64 `json:"end_ns"`
				A, B  int64
			}
		}
	}
	data, err := io.ReadAll(r)
	if err == nil {
		err = json.Unmarshal(data, &dump)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadDump, err)
	}
	if dump.Version != 1 {
		return nil, 0, fmt.Errorf("%w: version %d (want 1)", ErrBadDump, dump.Version)
	}
	reqs := make([]*Request, 0, len(dump.Requests))
	for _, d := range dump.Requests {
		kind, ok := named(kindNames[:], d.Kind)
		if !ok {
			return nil, 0, fmt.Errorf("%w: request %d: unknown kind %q", ErrBadDump, d.ID, d.Kind)
		}
		if d.End < d.Start {
			return nil, 0, fmt.Errorf("%w: request %d: end %d before start %d", ErrBadDump, d.ID, d.End, d.Start)
		}
		req := &Request{ID: d.ID, Kind: Kind(kind), Driver: d.Driver, Dev: d.Dev, LBA: d.LBA, Count: d.Count,
			Start: d.Start, End: d.End, Err: d.Err != 0, Flows: d.Flows, Spans: make([]Span, 0, len(d.Spans))}
		for _, s := range d.Spans {
			phase, ok := named(phaseNames[:], s.Phase)
			if !ok {
				return nil, 0, fmt.Errorf("%w: request %d: unknown phase %q", ErrBadDump, d.ID, s.Phase)
			}
			if s.End < s.Start {
				return nil, 0, fmt.Errorf("%w: request %d: span %s end %d before start %d", ErrBadDump, d.ID, s.Phase, s.End, s.Start)
			}
			req.Spans = append(req.Spans, Span{Phase: Phase(phase), Start: s.Start, End: s.End, A: s.A, B: s.B})
		}
		reqs = append(reqs, req)
	}
	return reqs, dump.Dropped, nil
}

// named returns the index of name in names.
func named(names []string, name string) (int, bool) {
	for i, n := range names {
		if n == name {
			return i, true
		}
	}
	return 0, false
}
