package stddisk

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/fault"
	"tracklog/internal/geom"
	"tracklog/internal/qos"
	"tracklog/internal/sim"
	"tracklog/internal/span"
	"tracklog/internal/trace"
)

// digest is an artefact's length and FNV-64a, the form the golden pins use.
func digest(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%d bytes %016x", len(b), h.Sum64())
}

// The baseline device's span trees must tile exactly: queue wait, retries,
// and mechanical phases sum to each command's end-to-end latency.
func TestDeviceSpanInvariant(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	dev, d := newDev(env)
	fault.Attach(d, sim.NewRand(9), fault.Config{Timeouts: 2, TimeoutWindow: 30})
	rec := span.NewRecorder(0)
	dev.SetRecorder(rec, "disk0")

	for w := 0; w < 4; w++ {
		w := w
		env.Go("writer", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				dev.Write(p, int64(w*20+i%20)*64, 2, make([]byte, 2*geom.SectorSize)) //nolint:errcheck
			}
		})
	}
	env.Go("reader", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		for i := 0; i < 20; i++ {
			dev.Read(p, int64(i)*32, 4) //nolint:errcheck
			p.Sleep(300 * time.Microsecond)
		}
	})
	env.Run()

	reqs := rec.Requests()
	if len(reqs) != 60 {
		t.Fatalf("recorded %d requests, want 60", len(reqs))
	}
	retried := 0
	for _, r := range reqs {
		if got, want := r.Attributed(), r.Latency(); got != want {
			t.Errorf("req %d (%s, lba %d): attributed %dns != latency %dns", r.ID, r.Kind, r.LBA, got, want)
		}
		cur := r.Start
		for i, s := range r.Spans {
			if s.Start < cur {
				t.Errorf("req %d: span %d (%v) overlaps previous", r.ID, i, s.Phase)
			}
			cur = s.End
			if s.Phase == span.PRetry {
				retried++
			}
		}
	}
	if retried == 0 {
		t.Error("injected timeouts but no retry spans recorded")
	}
	// Queue snapshots must flow through: with two competing clients at
	// least one request saw a non-empty queue.
	sawDepth := false
	for _, r := range reqs {
		for _, s := range r.Spans {
			if s.Phase == span.PQueue && s.A > 0 {
				sawDepth = true
			}
		}
	}
	if !sawDepth {
		t.Error("no request recorded a non-zero queue depth at submit")
	}
}

// TestFaultRunDigest pins the span JSON and trace events of a faulted run
// under QoS deadlines (and no depth bound, so nothing is shed): timeouts are
// re-issued, some requests expire while queued, a retry would fire past its
// deadline and a latent sector fails a read. Every outcome's error text is
// pinned with them.
func TestFaultRunDigest(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	dev, d := newDev(env)
	fault.Attach(d, sim.NewRand(5), fault.Config{Timeouts: 8, TimeoutWindow: 80, TimeoutDelay: 20 * time.Millisecond,
		LatentReadErrors: 40, MaxLBA: 1440})
	dev.SetQoS(&qos.Policy{DefaultDeadline: 40 * time.Millisecond})
	rec := span.NewRecorder(0)
	dev.SetRecorder(rec, "disk0")
	tr := trace.New(0)
	dev.SetTracer(tr, "disk0")

	var outcomes strings.Builder
	var expired, pastDeadline int
	note := func(p *sim.Proc, op string, lba int64, err error) {
		fmt.Fprintf(&outcomes, "%d %s %d %v\n", p.Now(), op, lba, err)
		if errors.Is(err, blockdev.ErrDeadlineExceeded) {
			if strings.Contains(err.Error(), "retry past deadline") {
				pastDeadline++
			} else {
				expired++
			}
		}
	}
	for w := 0; w < 3; w++ {
		env.Go("writer", func(p *sim.Proc) {
			for i := 0; i < 15; i++ {
				lba := int64(w*25+i%25) * 64
				note(p, "write", lba, dev.Write(p, lba, 2, make([]byte, 2*geom.SectorSize)))
				p.Sleep(2 * time.Millisecond)
			}
		})
	}
	env.Go("reader", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		for i := 0; i < 30; i++ {
			lba := int64(i) * 48
			_, err := dev.Read(p, lba, 4)
			note(p, "read", lba, err)
			p.Sleep(300 * time.Microsecond)
		}
	})
	env.Run()

	if st := dev.Stats(); st.Retries == 0 || expired == 0 || pastDeadline == 0 {
		t.Errorf("retries %d, expired in queue %d, retries past deadline %d: want all > 0",
			st.Retries, expired, pastDeadline)
	}
	if shed := dev.Queue().Stats().Shed; shed != 0 {
		t.Errorf("%d requests shed, want none", shed)
	}
	var spans bytes.Buffer
	if err := rec.WriteJSON(&spans); err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	for _, ev := range tr.Events() {
		fmt.Fprintf(&events, "%d %d %s %s %d %d %d %d\n", ev.At, ev.Dur, ev.Kind, ev.Track, ev.LBA, ev.Count, ev.A, ev.B)
	}
	for _, c := range []struct{ name, got, want string }{
		{"span JSON", digest(spans.Bytes()), "41357 bytes 6413e14a5b105138"},
		{"trace events", digest(events.Bytes()), "24973 bytes 6ae4f825823d2531"},
		{"outcomes", digest([]byte(outcomes.String())), "2850 bytes 77486d4859ae3c30"},
	} {
		if c.got != c.want {
			t.Errorf("%s: %s, want %s", c.name, c.got, c.want)
		}
	}
}
