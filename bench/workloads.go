package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"tracklog"
	"tracklog/internal/blockdev"
	"tracklog/internal/bufcache"
	"tracklog/internal/cluster"
	"tracklog/internal/disk"
	"tracklog/internal/fault"
	"tracklog/internal/geom"
	"tracklog/internal/qos"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
	"tracklog/internal/tpcc"
	"tracklog/internal/trail"
	"tracklog/internal/txn"
	"tracklog/internal/wal"
	"tracklog/internal/workload"
)

// The four workloads. Names are final: later issues cite them.
var workloads = []*scenario{
	{name: "trail_burst", run: trailBurst},
	{name: "std_deepq", run: stdDeepQ},
	{name: "tpcc_trail", run: tpccTrail},
	{name: "cluster_observed", observed: true, run: clusterObserved,
		note: "open loop; latency runs from each request's due instant; generator lateness 0 us (arrivals are virtual-time sleeps)"},
}

const (
	blockSectors = 8 // 4 KB client blocks
	blockBytes   = blockSectors * geom.SectorSize
)

// stamp marks every sector of a block with its own LBA and the write's
// sequence number, so a readback can tell which write it is looking at.
func stamp(buf []byte, lba int64, seq uint64) {
	for s := 0; s < blockSectors; s++ {
		binary.LittleEndian.PutUint64(buf[s*geom.SectorSize:], uint64(lba)+uint64(s))
		binary.LittleEndian.PutUint64(buf[s*geom.SectorSize+8:], seq)
	}
}

func stamped(buf []byte, lba int64, seq uint64) bool {
	if len(buf) != blockBytes {
		return false
	}
	for s := 0; s < blockSectors; s++ {
		if binary.LittleEndian.Uint64(buf[s*geom.SectorSize:]) != uint64(lba)+uint64(s) ||
			binary.LittleEndian.Uint64(buf[s*geom.SectorSize+8:]) != seq {
			return false
		}
	}
	return true
}

// diskShares reports where one role's drives spent the measured phase.
func diskShares(r *rep, role string, elapsed time.Duration, stats ...disk.Stats) {
	var sum disk.Stats
	for _, s := range stats {
		sum.Busy += s.Busy
		sum.SeekTime += s.SeekTime
		sum.RotateTime += s.RotateTime
		sum.TransferTime += s.TransferTime
	}
	busy := float64(sum.Busy)
	r.virt["disk."+role+".busy_share"] = ratio(busy, float64(elapsed)*float64(len(stats)))
	r.virt["disk."+role+".seek_share"] = ratio(float64(sum.SeekTime), busy)
	r.virt["disk."+role+".rotate_share"] = ratio(float64(sum.RotateTime), busy)
	r.virt["disk."+role+".transfer_share"] = ratio(float64(sum.TransferTime), busy)
}

// diskOps reports drive commands per client op and drive errors.
func diskOps(r *rep, ops int64, stats ...disk.Stats) {
	var cmds, errs int64
	for _, s := range stats {
		cmds += s.Reads + s.Writes
		errs += s.Errors
	}
	r.virt["disk.ops_per_op"] = ratio(float64(cmds), float64(ops))
	r.virt["disk.errors"] = float64(errs)
}

func schedStats(r *rep, ops int64, stats ...sched.Stats) {
	var wait time.Duration
	var depth int
	var shed, expired int64
	for _, s := range stats {
		wait += s.QueueWait
		shed += s.Shed
		expired += s.Expired
		if s.MaxDepth > depth {
			depth = s.MaxDepth
		}
	}
	r.virt["sched.queue_wait_ms_per_op"] = ratio(wait.Seconds()*1e3, float64(ops))
	r.virt["sched.max_depth"] = float64(depth)
	r.virt["sched.shed"] = float64(shed)
	r.virt["sched.expired"] = float64(expired)
}

func simStats(r *rep, ks sim.KernelStats) {
	ops := float64(r.ops)
	r.virt["sim.events_per_op"] = ratio(float64(ks.EventsDispatched), ops)
	r.virt["sim.heap_pushes_per_op"] = ratio(float64(ks.HeapPushes), ops)
	r.virt["sim.wakeups_per_op"] = ratio(float64(ks.Wakeups), ops)
	r.virt["sim.procs_spawned_per_op"] = ratio(float64(ks.ProcsSpawned), ops)
	r.virt["sim.queue_peak"] = float64(ks.QueuePeak)
	r.virt["sim.procs_peak"] = float64(ks.ProcsPeak)
	r.host["sim.host_ns_per_event"] = ratio(r.cost.wallS*1e9, float64(ks.EventsDispatched))
	r.fingerprint("sim", ks)
}

func trailStats(r *rep, writes int64, s trail.Stats, reads int64) {
	w := float64(writes)
	r.virt["trail.records_per_write"] = ratio(float64(s.Records), w)
	r.virt["trail.repositions_per_write"] = ratio(float64(s.Repositions), w)
	r.virt["trail.reposition_ms_per_write"] = ratio(s.RepositionTime.Seconds()*1e3, w)
	r.virt["trail.track_util"] = s.AvgTrackUtilization()
	r.virt["trail.writebacks_per_write"] = ratio(float64(s.WriteBacks), w)
	r.virt["trail.superseded_share"] = ratio(float64(s.SupersededWriteBacks), w)
	r.virt["trail.reads_from_staging_share"] = ratio(float64(s.ReadsFromStaging), float64(reads))
	r.virt["trail.log_full_stalls"] = float64(s.LogFullStalls)
	r.virt["trail.retries"] = float64(s.LogWriteRetries + s.LogRefRetries + s.ReadRetries + s.WritebackRetries)
	r.virt["trail.failed_writes"] = float64(s.FailedWrites)
	r.fingerprint("trail", s)
}

// observeKernel hands the kernel the instruments.
func observeKernel(env *sim.Env, o instruments) {
	env.SetTracer(o.tr)
	env.SetTimeline(o.tl)
	env.SetMetrics(o.reg)
}

// observeTrail hands the driver, its disks and the kernel the instruments.
func observeTrail(env *sim.Env, drv *trail.Driver, o instruments) {
	observeKernel(env, o)
	drv.SetTracer(o.tr)
	drv.SetRecorder(o.rec)
	drv.SetTimeline(o.tl)
	drv.RegisterMetrics(o.reg)
}

// trailBurst is the paper's section 5.1 on one log disk and one data disk:
// four closed-loop writers of random 4 KB synchronous writes, a power cut at
// the last ack, recovery, and a readback of every acknowledged block.
func trailBurst(r *rep) error {
	const writers = 4
	per := r.scaled(4000)
	total := writers * per

	var sys *tracklog.System
	var err error
	r.span("build.trail", func() { sys, err = tracklog.NewSystem(tracklog.SystemConfig{DataDisks: 1}) })
	if err != nil {
		return err
	}
	observeTrail(sys.Env, sys.Trail, r.obs)
	dev := sys.Trail.Dev(0)
	// Each write goes to a random block of the writer's stripe after a
	// think time of up to 100 us. Without the think time a seed would move
	// only the data-disk addresses, which no synchronous write waits for,
	// and every seed would read the same virtual latencies.
	type write struct {
		lba   int64
		think time.Duration
	}
	stripe := dev.Sectors() / writers / blockSectors // blocks per writer
	plans := make([][]write, writers)
	for w := range plans {
		rng := sim.NewRand(r.seed*1000003 + uint64(w))
		plans[w] = make([]write, per)
		for i := range plans[w] {
			plans[w][i] = write{
				lba:   (int64(w)*stripe + rng.Int64n(stripe)) * blockSectors,
				think: time.Duration(rng.Intn(100_000)),
			}
		}
	}
	r.setupDone()

	acked := make(map[int64]uint64, total) // lba -> seq of the last acked write
	lat := make([]int64, 0, total)
	var acks int
	var werr error
	var lastAck sim.Time
	for w := 0; w < writers; w++ {
		sys.Go(fmt.Sprintf("writer%d", w), func(p *sim.Proc) {
			buf := make([]byte, blockBytes)
			for i, wr := range plans[w] {
				p.Sleep(wr.think)
				lba, seq := wr.lba, uint64(w*per+i+1)
				stamp(buf, lba, seq)
				t0 := p.Now()
				if err := dev.Write(p, lba, blockSectors, buf); err != nil {
					werr = err
					r.failed++
					continue
				}
				lat = append(lat, int64(p.Now().Sub(t0)))
				acked[lba] = seq
				acks++
				lastAck = p.Now()
			}
		})
	}
	r.measure(func() {
		// Power is cut at the first 10 ms boundary after the last ack, so
		// write-back is still behind the log.
		for acks+int(r.failed) < total {
			sys.RunUntil(sys.Env.Now().Add(10 * time.Millisecond))
		}
	})
	if werr != nil {
		return fmt.Errorf("write: %w", werr)
	}
	r.ops, r.samples = int64(acks), len(lat)
	r.virt["virt_ops_per_sec"] = ratio(float64(acks), lastAck.Duration().Seconds())
	r.latencies("virt_op_p50_us", "virt_op_p99_us", lat)

	ts := sys.Trail.Stats()
	simStats(r, sys.Env.KernelStats())
	trailStats(r, ts.Writes, ts, 0)
	r.virt["trail.staged_mb_at_cut"] = float64(sys.Trail.StagedBytes()) / 1e6
	r.virt["trail.outstanding_records_at_cut"] = float64(sys.Trail.OutstandingRecords())
	logSt, dataSt := sys.LogDisk.Stats(), sys.DataDisks[0].Stats()
	diskShares(r, "log", lastAck.Duration(), logSt)
	diskShares(r, "data", lastAck.Duration(), dataSt)
	diskOps(r, r.ops, logSt, dataSt)
	schedStats(r, r.ops, sys.Trail.DataQueue(0).Stats())
	r.fingerprint("disk.log", logSt)
	r.fingerprint("disk.data", dataSt)

	r.span("cut", sys.Crash)
	var rec *tracklog.System
	var rpt *tracklog.RecoverReport
	t0 := time.Now()
	r.span("recover", func() {
		rec, rpt, err = sys.Recover(tracklog.RecoverOptions{Spans: r.obs.rec})
	})
	if err != nil {
		return err
	}
	defer rec.Close()
	r.host["host_recover_s"] = time.Since(t0).Seconds()
	r.virt["virt_recover_s"] = rpt.Total().Seconds()
	r.virt["trail.recover.records_found"] = float64(rpt.RecordsFound)
	r.virt["trail.recover.blocks_replayed"] = float64(rpt.BlocksReplayed)
	r.virt["trail.recover.locate_s"] = rpt.LocateTime.Seconds()
	r.virt["trail.recover.rebuild_s"] = rpt.RebuildTime.Seconds()
	r.virt["trail.recover.writeback_s"] = rpt.WriteBackTime.Seconds()

	r.span("verify", func() {
		rdev := rec.Trail.Dev(0)
		rec.Go("verify", func(p *sim.Proc) {
			for _, plan := range plans {
				for _, wr := range plan {
					lba := wr.lba
					seq, ok := acked[lba]
					if !ok {
						continue
					}
					delete(acked, lba) // a block written twice is read once
					data, err := rdev.Read(p, lba, blockSectors)
					if err != nil || !stamped(data, lba, seq) {
						r.failed++
					}
				}
			}
		})
		rec.Run()
	})
	if r.failed > 0 {
		return fmt.Errorf("%d acknowledged writes lost across the power cut", r.failed)
	}
	return nil
}

// stdDeepQ is the baseline: one data disk behind the standard driver's LOOK
// elevator, 32 closed-loop clients, half reads and half writes. It never
// enters trail, wal, kvdb or cluster.
func stdDeepQ(r *rep) error {
	const clients = 32
	per := r.scaled(5000)

	type op struct {
		lba   int64
		write bool
	}
	env := sim.NewEnv()
	defer env.Close()
	var dev *stddisk.Device
	var dk *disk.Disk
	r.span("build.stddisk", func() {
		dk = disk.New(env, disk.WDCaviar())
		dev = stddisk.New(env, dk, blockdev.DevID{Major: 3}, sched.LOOK)
	})
	observeKernel(env, r.obs)
	dev.SetTracer(r.obs.tr, "std0")
	dev.SetRecorder(r.obs.rec, "std0")
	dev.SetTimeline(r.obs.tl, "std0")
	dev.RegisterMetrics(r.obs.reg, "std0")
	// Half of a client's reads revisit a block it wrote earlier, so reads
	// check data; the rest go anywhere in its stripe.
	stripe := dev.Sectors() / clients / blockSectors
	plans := make([][]op, clients)
	for c := range plans {
		rng := sim.NewRand(r.seed*1000003 + uint64(c))
		var wrote []int64
		plans[c] = make([]op, per)
		for i := range plans[c] {
			o := op{write: rng.Intn(2) == 0}
			if !o.write && len(wrote) > 0 && rng.Intn(2) == 0 {
				o.lba = wrote[rng.Intn(len(wrote))]
			} else {
				o.lba = (int64(c)*stripe + rng.Int64n(stripe)) * blockSectors
			}
			if o.write {
				wrote = append(wrote, o.lba)
			}
			plans[c][i] = o
		}
	}
	r.setupDone()

	acked := make([]map[int64]uint64, clients)
	var wlat, rlat []int64
	var first error
	var lastAck sim.Time
	fail := func(err error) {
		r.failed++
		if first == nil {
			first = err
		}
	}
	for c := 0; c < clients; c++ {
		acked[c] = make(map[int64]uint64)
		env.Go(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			buf := make([]byte, blockBytes)
			for i, o := range plans[c] {
				t0 := p.Now()
				if o.write {
					seq := uint64(c*per + i + 1)
					stamp(buf, o.lba, seq)
					if err := dev.Write(p, o.lba, blockSectors, buf); err != nil {
						fail(err)
						continue
					}
					acked[c][o.lba] = seq
					wlat = append(wlat, int64(p.Now().Sub(t0)))
				} else {
					data, err := dev.Read(p, o.lba, blockSectors)
					if err != nil {
						fail(err)
						continue
					}
					if seq, ok := acked[c][o.lba]; ok && !stamped(data, o.lba, seq) {
						fail(fmt.Errorf("read of lba %d did not return write %d", o.lba, seq))
						continue
					}
					rlat = append(rlat, int64(p.Now().Sub(t0)))
				}
				r.ops++
				lastAck = p.Now()
			}
		})
	}
	r.measure(func() { env.Run() })
	if first != nil {
		return first
	}
	r.samples = len(wlat)
	r.virt["virt_ops_per_sec"] = ratio(float64(r.ops), lastAck.Duration().Seconds())
	r.latencies("virt_op_p50_us", "virt_op_p99_us", wlat)
	r.latencies("", "virt_read_p99_us", rlat)

	simStats(r, env.KernelStats())
	ds := dk.Stats()
	diskShares(r, "data", lastAck.Duration(), ds)
	diskOps(r, r.ops, ds)
	schedStats(r, r.ops, dev.Queue().Stats())
	r.virt["stddisk.retries"] = float64(dev.Stats().Retries)
	r.virt["stddisk.failures"] = float64(dev.Stats().Failures)
	r.fingerprint("disk.data", ds)

	r.span("verify", func() {
		for c := 0; c < clients; c++ {
			env.Go(fmt.Sprintf("verify%d", c), func(p *sim.Proc) {
				for _, o := range plans[c] {
					seq, ok := acked[c][o.lba]
					if !ok {
						continue
					}
					delete(acked[c], o.lba)
					data, err := dev.Read(p, o.lba, blockSectors)
					if err != nil || !stamped(data, o.lba, seq) {
						r.failed++
					}
				}
			})
		}
		env.Run()
	})
	if r.failed > 0 {
		return fmt.Errorf("%d acknowledged writes not read back", r.failed)
	}
	return nil
}

// tpccTrail is the paper's Table 2 column "EXT2+Trail", assembled from the
// public pieces: three data disks and a log disk behind the Trail driver, a
// write-ahead log forced at every commit, one terminal.
func tpccTrail(r *rep) error {
	warmup, txns := r.scaled(300), r.scaled(2000)
	dbCfg := tpcc.Config{
		Warehouses:               1,
		Districts:                10,
		CustomersPerDistrict:     600,
		Items:                    10000,
		InitialOrdersPerDistrict: 300,
		CachePages:               700,
		Seed:                     r.seed + 1,
	}
	if r.div > 1 { // the smoke test shrinks the database with the op count
		dbCfg.CustomersPerDistrict, dbCfg.Items, dbCfg.InitialOrdersPerDistrict, dbCfg.CachePages = 60, 1000, 30, 70
	}

	env := sim.NewEnv()
	defer env.Close()
	var phys []*disk.Disk
	for i := 0; i < 3; i++ {
		phys = append(phys, disk.New(env, disk.WDCaviar()))
	}
	var err error
	r.span("build.tpcc", func() {
		env.Go("load", func(p *sim.Proc) {
			var db *tpcc.DB
			db, err = tpcc.Load(p, dbCfg, []blockdev.Device{
				disk.NewInstantDev(phys[1], blockdev.DevID{Major: 3, Minor: 1}),
				disk.NewInstantDev(phys[2], blockdev.DevID{Major: 3, Minor: 2}),
			})
			if err == nil {
				err = db.FlushAll(p)
			}
		})
		env.Run()
	})
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}

	logDisk := disk.New(env, disk.ST41601N())
	var drv *trail.Driver
	r.span("build.trail", func() {
		if err = trail.Format(logDisk); err == nil {
			drv, err = trail.NewDriver(env, logDisk, phys, trail.Default())
		}
	})
	if err != nil {
		return err
	}
	observeTrail(env, drv, r.obs)

	var db *tpcc.DB
	var mgr *txn.Manager
	var runner *tpcc.Runner
	r.span("build.wal", func() {
		env.Go("open", func(p *sim.Proc) {
			if db, err = tpcc.Reopen(p, dbCfg, []blockdev.Device{drv.Dev(1), drv.Dev(2)}); err != nil {
				return
			}
			var l *wal.Log
			l, err = wal.New(env, wal.Config{
				Dev:         drv.Dev(0),
				Sectors:     drv.Dev(0).Sectors(),
				Mode:        wal.SyncEveryCommit,
				BufferBytes: 50 * 1024,
			})
			if err != nil {
				return
			}
			l.SetTimeline(r.obs.tl, "wal")
			l.RegisterMetrics(r.obs.reg)
			mgr = txn.NewManager(env, l)
			mgr.RegisterMetrics(r.obs.reg)
			runner = tpcc.NewRunner(db, mgr)
		})
		env.Run()
	})
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	// The warm-up fills the page caches and belongs to set-up; the measured
	// phase is a second Run of exactly txns transactions.
	r.span("build.warmup", func() {
		_, err = runner.Run(env, tpcc.RunConfig{Transactions: warmup, Seed: r.seed + 3})
	})
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	r.setupDone()

	cacheStats := func() (sum bufcache.Stats) {
		for _, st := range db.Stores() {
			s := st.Cache().Stats()
			sum.Hits += s.Hits
			sum.Misses += s.Misses
			sum.Evictions += s.Evictions
			sum.DirtyWrites += s.DirtyWrites
		}
		return sum
	}
	diskStats := func() (out []disk.Stats) {
		for _, d := range append([]*disk.Disk{logDisk}, phys...) {
			out = append(out, d.Stats())
		}
		return out
	}
	queueStats := func() (out []sched.Stats) {
		for i := range phys {
			out = append(out, drv.DataQueue(i).Stats())
		}
		return out
	}
	ks0, ts0, ws0, xs0, cs0 := env.KernelStats(), drv.Stats(), mgr.Log().Stats(), mgr.Stats(), cacheStats()
	ds0, qs0 := diskStats(), queueStats()

	var res *tpcc.Result
	r.measure(func() {
		res, err = runner.Run(env, tpcc.RunConfig{Transactions: txns, Seed: r.seed + 7})
	})
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if got := res.Committed + res.Aborted; got != int64(txns) {
		return fmt.Errorf("%d committed + %d aborted != %d attempted", res.Committed, res.Aborted, txns)
	}
	// An abort here is TPC-C's 1% intentional new-order rollback, which is
	// the specified outcome of that transaction and not a failed operation.
	r.ops, r.samples = int64(txns), int(res.Response.Count())
	n := float64(txns)
	r.virt["virt_ops_per_sec"] = ratio(n, res.Elapsed.Seconds())
	r.virt["virt_tpmC"] = res.TpmC()
	r.virt["virt_op_p50_us"] = float64(res.Response.Quantile(0.50)) / 1e3
	r.virt["virt_op_p99_us"] = float64(res.Response.Quantile(0.99)) / 1e3

	simStats(r, env.KernelStats().Delta(ks0))
	ts := delta(drv.Stats(), ts0)
	ds, qs := diskStats(), queueStats()
	for i := range ds {
		ds[i] = delta(ds[i], ds0[i])
	}
	for i := range qs {
		qs[i] = delta(qs[i], qs0[i])
	}
	var dataReads int64
	for _, s := range ds[1:] {
		dataReads += s.Reads
	}
	trailStats(r, ts.Writes, ts, ts.ReadsFromStaging+dataReads)
	diskShares(r, "log", res.Elapsed, ds[0])
	diskShares(r, "data", res.Elapsed, ds[1:]...)
	diskOps(r, r.ops, ds...)
	schedStats(r, r.ops, qs...)
	ws := delta(mgr.Log().Stats(), ws0)
	r.virt["wal.flushes_per_txn"] = float64(ws.Flushes) / n
	r.virt["wal.bytes_per_txn"] = float64(ws.AppendedBytes) / n
	r.virt["wal.io_ms_per_txn"] = ws.IOTime.Seconds() * 1e3 / n
	xs := delta(mgr.Stats(), xs0)
	r.virt["txn.aborted_share"] = ratio(float64(xs.Aborted), float64(xs.Begun))
	r.virt["txn.deadlocks"] = float64(xs.Deadlocks)
	r.virt["txn.lock_wait_ms_per_txn"] = xs.LockWaitTime.Seconds() * 1e3 / n
	r.virt["txn.commit_io_ms_per_txn"] = xs.CommitIOTime.Seconds() * 1e3 / n
	cs := delta(cacheStats(), cs0)
	r.virt["bufcache.hit_rate"] = ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses))
	r.virt["bufcache.evictions_per_txn"] = float64(cs.Evictions) / n
	r.virt["bufcache.dirty_writes_per_txn"] = float64(cs.DirtyWrites) / n
	r.fingerprint("wal", ws)
	r.fingerprint("txn", xs)
	r.fingerprint("bufcache", cs)

	r.span("verify", func() {
		env.Go("check", func(p *sim.Proc) {
			for t := tpcc.Warehouse; t <= tpcc.Stock; t++ {
				if cerr := db.Tree(t).Check(p); cerr != nil && err == nil {
					err = fmt.Errorf("table %v: %w", t, cerr)
				}
			}
		})
		env.Run()
	})
	return err
}

// clusterObserved is the sharded cluster under an open-loop multi-tenant
// mix with one shard killed part-way, and the observability stack attached
// the way clustersim -metrics -timeline -explain-tail attaches it. The mix
// carries no Background-class requests: the cluster sheds those at its edge
// while a shard is down, and the benchmark's workloads are ones on which no
// operation fails. Rebuild traffic is still Background class.
func clusterObserved(r *rep) error {
	const shards, tenants, killed = 8, 48, 1
	requests := r.scaled(60000)
	const interarrival = 400 * time.Microsecond
	// The kill lands 5 virtual seconds into the 24 s of arrivals, and at the
	// same fraction of a scaled-down run.
	killAt := time.Duration(requests) * interarrival * 5 / 24

	var mix []workload.MixRequest
	var err error
	r.span("build.workload", func() {
		mix, err = workload.GenerateMix(workload.MixConfig{
			Tenants:           tenants,
			Requests:          requests,
			ReadFraction:      0.3,
			Interarrival:      interarrival,
			ZipfS:             0.9,
			InteractiveWeight: 10,
			Seed:              r.seed,
		})
	})
	if err != nil {
		return err
	}
	env := sim.NewEnv()
	defer env.Close()
	var c *cluster.Cluster
	r.span("build.cluster", func() {
		c, err = cluster.New(env, cluster.Config{
			Shards:   shards,
			Tenants:  tenants,
			QoS:      qos.Default(),
			Scenario: fault.ShardScenario{Events: []fault.ShardEvent{{Shard: killed, At: killAt}}},
			Seed:     r.seed,
		})
	})
	if err != nil {
		return err
	}
	observeKernel(env, r.obs)
	c.RegisterMetrics(r.obs.reg)
	c.SetTimeline(r.obs.tl)
	c.SetRecorder(r.obs.rec)
	r.setupDone()

	var res *cluster.MixResult
	r.measure(func() {
		res = c.RunMix(mix)
		env.Run()
	})

	var wlat, rlat []int64
	var lastAck time.Duration
	for _, o := range res.Outcomes {
		if !o.OK {
			r.failed++
			continue
		}
		r.ops++
		if end := o.At + o.Latency; end > lastAck {
			lastAck = end
		}
		if o.Read {
			rlat = append(rlat, int64(o.Latency))
		} else {
			wlat = append(wlat, int64(o.Latency))
		}
	}
	r.samples = len(wlat)
	r.virt["virt_ops_per_sec"] = ratio(float64(r.ops), (lastAck - mix[0].At).Seconds())
	r.latencies("virt_op_p50_us", "virt_op_p99_us", wlat)
	r.latencies("", "virt_read_p99_us", rlat)

	simStats(r, env.KernelStats())
	st := c.Stats()
	r.virt["cluster.degraded_acks"] = float64(st.DegradedAcks)
	r.virt["cluster.shed"] = float64(st.WritesShed)
	r.virt["cluster.failovers"] = float64(st.Failovers)
	r.virt["cluster.hedges"] = float64(st.Hedges)
	r.virt["cluster.hedge_wins"] = float64(st.HedgeWins)
	r.virt["cluster.rebuild_copies"] = float64(st.RebuildCopies)
	r.virt["cluster.rebuild_retries"] = float64(st.RebuildRetries)
	r.virt["cluster.recoveries"] = float64(st.Recoveries)
	r.fingerprint("cluster", st)

	var lost int64
	r.span("verify", func() {
		env.Go("verify", func(p *sim.Proc) { _, lost = c.VerifyAcked(p) })
		env.Run()
	})
	r.failed += lost
	if lost > 0 {
		return fmt.Errorf("%d acknowledged writes lost", lost)
	}
	if s := c.ShardState(killed); s != cluster.Healthy {
		return fmt.Errorf("shard %d ended %v, not healthy", killed, s)
	}
	return nil
}
