package stacks_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/crashexplore"
	"tracklog/internal/disk"
	"tracklog/internal/fault"
	"tracklog/internal/raid"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/snapshot"
	"tracklog/internal/stddisk"
	"tracklog/internal/trail"
	"tracklog/internal/txn"
	"tracklog/internal/wal"
)

// evolved builds one instance of every adopting Snapshotter after a workload
// that leaves real state behind: staged blocks pinned by failed write-backs,
// pending timeouts beside a healed latent error, retried commands, a degraded
// array with bad sectors on two members, unflushed log records, committed,
// aborted, waiting and deadlocked transactions. variant shifts every workload
// without changing any component's identity or shape, so variant 1's
// components accept variant 0's bytes.
func evolved(tb testing.TB, variant int) map[string]snapshot.Snapshotter {
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
	log := disk.New(env, worldLogParams())
	must(trail.Format(log))
	log.SetSeekDeratePPM(int64(variant) * 250_000)
	data := disk.New(env, worldDataParams())
	fault.Attach(data, sim.NewRand(5), fault.Config{LatentWriteErrors: 16, MaxLBA: 16})
	drv, err := trail.NewDriver(env, log, []*disk.Disk{data}, trail.Config{})
	must(err)

	// A lone drive under a fault plan: two latent read errors that a write
	// heals, and timeouts sampled over more commands than the workload issues.
	plain := disk.New(env, worldDataParams())
	plan := fault.Attach(plain, sim.NewRand(uint64(21+variant)),
		fault.Config{LatentReadErrors: 2, Timeouts: 4, TimeoutWindow: 24, MaxLBA: 32})
	sd := stddisk.New(env, plain, blockdev.DevID{Major: 4, Minor: 2}, sched.LOOK)

	// RAID-5 whose first two members fail writes below sector 24.
	var members []blockdev.Device
	for i := 0; i < 3; i++ {
		d := disk.New(env, worldDataParams())
		if i < 2 {
			fault.Attach(d, sim.NewRand(uint64(30+i+variant)), fault.Config{LatentWriteErrors: 3, MaxLBA: 24})
		}
		members = append(members, stddisk.New(env, d, blockdev.DevID{Major: 9, Minor: uint8(i)}, sched.LOOK))
	}
	arr, err := raid.New(members, 8)
	must(err)

	wlog, err := wal.New(env, wal.Config{
		Dev:     disk.NewInstantDev(disk.New(env, worldDataParams()), blockdev.DevID{Major: 3, Minor: 0}),
		Sectors: 512,
		Mode:    wal.GroupCommit,
	})
	must(err)
	mgr := txn.NewManager(env, wlog)

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
	env.Go("raid", func(p *sim.Proc) {
		for i := 0; i < 6+variant; i++ {
			arr.Write(p, int64(8*i), 8, crashexplore.Payload(i, 1, 8)) //nolint:errcheck // faults are the point
		}
		if err := arr.Fail(2 - variant); err != nil {
			tb.Errorf("raid fail: %v", err)
		}
	})
	env.Go("wal", func(p *sim.Proc) {
		for i := 0; i < 3+variant; i++ {
			if _, err := wlog.Append(p, []byte(fmt.Sprintf("record-%d-%d", variant, i))); err != nil {
				tb.Errorf("wal append: %v", err)
			}
		}
	})
	// Two transactions lock a and b in opposite orders: one waits, the other
	// closes the cycle and is the victim; the survivor commits, then aborts
	// some more.
	for i, keys := range [][2]string{{"a", "b"}, {"b", "a"}} {
		i, keys := i, keys
		env.Go(fmt.Sprintf("txn-%d", i), func(p *sim.Proc) {
			tx := mgr.Begin()
			for _, k := range keys {
				if tx.Lock(p, k, txn.Exclusive) != nil {
					return
				}
				p.Sleep(time.Duration(1+i+variant) * time.Millisecond)
			}
			if err := tx.Commit(p); err != nil {
				tb.Errorf("commit: %v", err)
			}
			for j := 0; j <= variant; j++ {
				mgr.Begin().Abort(p)
			}
		})
	}
	env.Run()

	if drv.StagedBytes() == 0 || plan.Stats().Repaired == 0 || plan.Stats().Timeouts == 0 ||
		plan.Stats().Timeouts == 4 || sd.Stats().Retries == 0 || arr.BadSectors() < 2 || arr.Failed() < 0 ||
		wlog.BufferedBytes() == 0 || mgr.Stats().Deadlocks == 0 || mgr.Stats().Aborted == 0 {
		tb.Fatalf("variant %d left too little state: staged %d, plan %+v, stddisk %+v, raid %d bad failed %d, wal %d buffered, txn %+v",
			variant, drv.StagedBytes(), plan.Stats(), sd.Stats(), arr.BadSectors(), arr.Failed(), wlog.BufferedBytes(), mgr.Stats())
	}
	rng := sim.NewRand(99)
	for i := 0; i < 3+variant; i++ {
		rng.Uint64()
	}
	return map[string]snapshot.Snapshotter{
		"disk": log, "fault": plan, "trail": drv, "stddisk": sd,
		"raid": arr, "wal": wlog, "txn": mgr, "rand": rng,
	}
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
		"fuzz/disk":    {1719, 0xe9205c1f0fa43df8},
		"fuzz/env":     {389, 0xd1ade53972eef01d},
		"fuzz/fault":   {198, 0x88b4448a8420a755},
		"fuzz/raid":    {192, 0x80604be85b95c260},
		"fuzz/rand":    {34, 0xc1a114ddde5ce542},
		"fuzz/stddisk": {50, 0xccd650d45f58325f},
		"fuzz/trail":   {607, 0x91e331fd744bce53},
		"fuzz/txn":     {85, 0xa5ee178ef56a11d6},
		"fuzz/wal":     {118, 0x59e042e8d70970fa},
		"world/40":     {74195, 0x76d2b1fac4adccb2},
		"pinned":       {13131, 0xd3c5889f844ec4ba},

		"evolved/disk":    {22679, 0x38bf8427748f5f32},
		"evolved/fault":   {232, 0x94f2f0e79e0f5100},
		"evolved/raid":    {240, 0xaae38809f5bef042},
		"evolved/rand":    {34, 0x248d35c14b115ee6},
		"evolved/stddisk": {50, 0xde5ddae54bc8b2d2},
		"evolved/trail":   {13237, 0xe5d1f8124eced8f9},
		"evolved/txn":     {85, 0x565b300b5bfaa678},
		"evolved/wal":     {160, 0xf343db3d1769f7c4},
	}
	got := map[string][]byte{}
	env, targets := fuzzTargets(t)
	defer env.Close()
	for name, s := range targets {
		got["fuzz/"+name] = s.Snapshot()
	}
	w, _ := buildTrailWorld(t, 40)
	got["world/40"] = w.Snapshot()
	got["pinned"] = pinnedStagingSnapshot(t)
	for name, s := range evolved(t, 0) {
		got["evolved/"+name] = s.Snapshot()
	}
	for name, data := range got {
		p, ok := want[name]
		if !ok {
			t.Errorf("%s: %d bytes, digest %016x: no pinned value", name, len(data), snapshot.Digest(data))
			continue
		}
		if len(data) != p.n || snapshot.Digest(data) != p.digest {
			t.Errorf("%s: %d bytes, digest %016x; pinned %d bytes, %016x", name, len(data), snapshot.Digest(data), p.n, p.digest)
		}
	}
}

// TestRestoreAcrossInstances restores each component's bytes into a second,
// differently evolved instance of the same shape: everything the walk reads
// must be adopted, so the second instance then snapshots to the first one's
// bytes. A Restore that decodes into a shadow and forgets to adopt a field
// fails here, where a round trip in place cannot see it.
func TestRestoreAcrossInstances(t *testing.T) {
	a, b := evolved(t, 0), evolved(t, 1)
	for name, src := range a {
		want := src.Snapshot()
		dst := b[name]
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
				name, len(got), snapshot.Digest(got), len(want), snapshot.Digest(want))
		}
	}
}
