package stacks_test

import (
	"bytes"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/crashexplore"
	"tracklog/internal/disk"
	"tracklog/internal/fault"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
	"tracklog/internal/trail"
)

// evolved builds a Trail log drive and a fault plan after workloads that
// leave real state behind: a log holding records whose blocks stay staged
// because their write-backs fail, pending timeouts beside a healed latent
// error. variant shifts every workload without changing either component's
// identity or shape, so variant 1's drive and plan accept variant 0's bytes.
func evolved(tb testing.TB, variant int) map[string]snapshotter {
	tb.Helper()
	env := sim.NewEnv()
	tb.Cleanup(env.Close)
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}

	// Trail: every sector below 16 fails its write-back, so extents there
	// stay staged with their log references.
	log := disk.New(env, logParams())
	must(trail.Format(log))
	log.SetSeekDeratePPM(int64(variant) * 250_000)
	data := disk.New(env, dataParams())
	fault.Attach(data, sim.NewRand(5), fault.Config{LatentWriteErrors: 16, MaxLBA: 16})
	drv, err := trail.NewDriver(env, log, []*disk.Disk{data}, trail.Config{})
	must(err)

	// A lone drive under a fault plan: two latent read errors that a write
	// heals, and timeouts sampled over more commands than the workload issues.
	plain := disk.New(env, dataParams())
	plan := fault.Attach(plain, sim.NewRand(uint64(21+variant)),
		fault.Config{LatentReadErrors: 2, Timeouts: 4, TimeoutWindow: 24, MaxLBA: 32})
	sd := stddisk.New(env, plain, blockdev.DevID{Major: 4, Minor: 2}, sched.LOOK)

	env.Go("trail", func(p *sim.Proc) {
		extents := [][2]int{{0, 16}, {8, 8}, {64, 4}, {8, 8}}
		for i := 0; i < variant; i++ {
			extents = append(extents, [2]int{96 + 8*i, 8})
		}
		for _, w := range extents {
			if err := drv.Dev(0).Write(p, int64(w[0]), w[1], crashexplore.Payload(w[0], 1+variant, w[1])); err != nil {
				tb.Errorf("trail write: %v", err)
			}
			p.Sleep(time.Duration(variant) * 700 * time.Microsecond)
		}
	})
	env.Go("stddisk", func(p *sim.Proc) {
		for i := 0; i < 6+variant; i++ {
			sd.Write(p, int64(4*i), 4, crashexplore.Payload(i, 1, 4)) //nolint:errcheck // faults are the point
		}
	})
	env.Run()

	if drv.StagedBytes() == 0 || plan.Stats().Repaired == 0 || plan.Stats().Timeouts == 0 ||
		plan.Stats().Timeouts == 4 {
		tb.Fatalf("variant %d left too little state: staged %d, plan %+v", variant, drv.StagedBytes(), plan.Stats())
	}
	return map[string]snapshotter{"disk": log, "fault": plan}
}

// TestSnapshotGoldenDigests pins every snapshot format's bytes: the lengths
// and digests were recorded at 5cdd678, before the codec became one walk per
// component. A format change must bump the component's version and these
// values together.
func TestSnapshotGoldenDigests(t *testing.T) {
	type pin struct {
		n      int
		digest uint64
	}
	want := map[string]pin{
		"fuzz/disk":  {1719, 0xe9205c1f0fa43df8},
		"fuzz/env":   {389, 0xd1ade53972eef01d},
		"fuzz/fault": {198, 0x88b4448a8420a755},

		"evolved/disk":  {22679, 0x38bf8427748f5f32},
		"evolved/fault": {232, 0x94f2f0e79e0f5100},
	}
	got := map[string][]byte{}
	env, targets := fuzzTargets(t)
	defer env.Close()
	for name, s := range targets {
		got["fuzz/"+name] = s.Snapshot()
	}
	for name, s := range evolved(t, 0) {
		got["evolved/"+name] = s.Snapshot()
	}
	for name, data := range got {
		p, ok := want[name]
		if !ok {
			t.Errorf("%s: %d bytes, digest %016x: no pinned value", name, len(data), digest(data))
			continue
		}
		if len(data) != p.n || digest(data) != p.digest {
			t.Errorf("%s: %d bytes, digest %016x; pinned %d bytes, %016x", name, len(data), digest(data), p.n, p.digest)
		}
	}
}

// TestRestoreAcrossInstances restores the drive's and the plan's bytes into
// a second, differently evolved instance of the same shape: everything the
// walk reads must be adopted, so the second instance then snapshots to the
// first one's bytes. A Restore that decodes into a shadow and forgets to
// adopt a field fails here, where a round trip in place cannot see it.
func TestRestoreAcrossInstances(t *testing.T) {
	a, b := evolved(t, 0), evolved(t, 1)
	for _, name := range []string{"disk", "fault"} {
		want := a[name].Snapshot()
		dst := b[name].(restorer)
		if bytes.Equal(dst.Snapshot(), want) {
			t.Errorf("%s: the two variants snapshot alike; the check would be vacuous", name)
			continue
		}
		if err := dst.Restore(want); err != nil {
			t.Errorf("%s: restore into the other variant: %v", name, err)
			continue
		}
		if got := dst.Snapshot(); !bytes.Equal(got, want) {
			t.Errorf("%s: restored instance snapshots to %d bytes (%016x), source %d bytes (%016x)",
				name, len(got), digest(got), len(want), digest(want))
		}
	}
}
