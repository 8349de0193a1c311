package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"tracklog/internal/span"
)

// profPackages are the packages prof.cpu_share.* splits host CPU over; a
// sample outside all of them lands in "other".
var profPackages = []string{"sim", "disk", "sched", "trail", "wal", "txn", "bufcache", "kvdb", "tpcc",
	"cluster", "span", "timeline", "telemetry", "runtime", "other"}

// phaseShares reports where Trail's synchronous writes spent their virtual
// latency, from the span trees the product's recorder kept in the traced rep.
func phaseShares(reqs []*span.Request, out map[string]float64) {
	var queue, trackSwitch, mechanical, retry, total float64
	var reads, staged float64
	for _, rq := range reqs {
		if rq.Driver != "trail" {
			continue
		}
		switch rq.Kind {
		case span.KRead:
			reads++
			for _, s := range rq.Spans {
				if s.Phase == span.PStaging {
					staged++
					break
				}
			}
		case span.KWrite:
			total += float64(rq.Latency())
			for _, s := range rq.Spans {
				d := float64(s.Dur())
				switch s.Phase {
				case span.PQueue:
					queue += d
				case span.PTrackSwitch:
					trackSwitch += d
				case span.PRetry:
					retry += d
				case span.PTurnaround, span.POverhead, span.PSeek, span.PHeadSwitch,
					span.PSettle, span.PRotWait, span.PTransfer:
					mechanical += d
				}
			}
		}
	}
	out["trail.phase.queue_share"] = ratio(queue, total)
	out["trail.phase.track_switch_share"] = ratio(trackSwitch, total)
	out["trail.phase.mechanical_share"] = ratio(mechanical, total)
	out["trail.phase.retry_share"] = ratio(retry, total)
	// A staging hit takes no virtual time, so its share is of reads, not of
	// latency.
	out["trail.phase.staging_share"] = ratio(staged, reads)
}

// cpuShares aggregates the flat samples of a CPU profile by package. The
// standard library has no public profile parser, so it reads the text of
// `go tool pprof -top`. Without the tool it reports nothing and says so.
func cpuShares(exe, profile string, out map[string]float64) error {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", exe, profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	text, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	flat := make(map[string]float64)
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(text))
	table := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !table {
			table = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			continue
		}
		flat[profPackage(strings.Join(f[5:], " "))] += d.Seconds()
		total += d.Seconds()
	}
	if total == 0 {
		return fmt.Errorf("go tool pprof: no samples in %s", profile)
	}
	for _, pkg := range profPackages {
		out["prof.cpu_share."+pkg] = flat[pkg] / total
	}
	return nil
}

// profPackage maps a profiled function to its row of profPackages.
func profPackage(fn string) string {
	for _, prefix := range []string{"runtime.", "runtime/", "internal/runtime/"} {
		if strings.HasPrefix(fn, prefix) {
			return "runtime"
		}
	}
	rest, ok := strings.CutPrefix(fn, "tracklog/internal/")
	if !ok {
		return "other"
	}
	pkg := rest[:strings.IndexAny(rest+".", "./")]
	for _, known := range profPackages {
		if pkg == known {
			return pkg
		}
	}
	return "other"
}

// writeSpans writes the harness's wall-clock spans of one workload.
func writeSpans(dir, workload string, l *spanLog) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(l.Spans, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
