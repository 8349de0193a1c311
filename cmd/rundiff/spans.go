package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"tracklog/internal/telemetry"
)

// spanDump mirrors the deterministic span JSON written by span.WriteJSON
// (trailsim -out): schema version, drop count, and every retained
// request with its attributed phase intervals.
type spanDump struct {
	Version  int           `json:"version"`
	Dropped  int64         `json:"dropped"`
	Requests []spanRequest `json:"requests"`
}

type spanRequest struct {
	ID      int64      `json:"id"`
	Kind    string     `json:"kind"`
	Driver  string     `json:"driver"`
	Dev     string     `json:"dev"`
	StartNS int64      `json:"start_ns"`
	EndNS   int64      `json:"end_ns"`
	Err     int        `json:"err"`
	Spans   []spanSpan `json:"spans"`
}

type spanSpan struct {
	Phase   string `json:"phase"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	A       int64  `json:"a"`
	B       int64  `json:"b"`
}

// parseSpanFile loads and validates one span dump.
func parseSpanFile(path string) (*spanDump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseSpanDump(data)
}

func parseSpanDump(data []byte) (*spanDump, error) {
	var d spanDump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, err
	}
	if d.Version != 1 {
		return nil, fmt.Errorf("span dump version %d (want 1)", d.Version)
	}
	for i := range d.Requests {
		r := &d.Requests[i]
		if r.EndNS < r.StartNS {
			return nil, fmt.Errorf("request %d: end %d before start %d", r.ID, r.EndNS, r.StartNS)
		}
		for _, s := range r.Spans {
			if s.EndNS < s.StartNS {
				return nil, fmt.Errorf("request %d: span %s end %d before start %d", r.ID, s.Phase, s.EndNS, s.StartNS)
			}
		}
	}
	return &d, nil
}

// phaseShares aggregates the dump into per-"kind/phase" time shares: the
// summed duration of that phase across all requests of that kind, as
// percent of the summed end-to-end latency of every request. Shares are in
// the same unit as timeline occupancy shares (percent of total observed
// time), so rundiff ranks them in one list.
func (d *spanDump) phaseShares() map[string]float64 {
	var total int64
	sums := make(map[string]int64)
	for i := range d.Requests {
		r := &d.Requests[i]
		total += r.EndNS - r.StartNS
		for _, s := range r.Spans {
			sums[r.Kind+"/"+s.Phase] += s.EndNS - s.StartNS
		}
	}
	shares := make(map[string]float64, len(sums))
	if total == 0 {
		return shares
	}
	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		shares[k] = float64(sums[k]) / float64(total) * 100
	}
	return shares
}

// parsePromFile loads one telemetry export through telemetry.ParseProm
// (duplicate names and malformed samples are load errors, with line
// numbers).
func parsePromFile(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return telemetry.ParseProm(f)
}
