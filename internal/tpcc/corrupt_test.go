package tpcc

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/kvdb"
	"tracklog/internal/rig"
	"tracklog/internal/sim"
	"tracklog/internal/trail"
	"tracklog/internal/txn"
	"tracklog/internal/wal"
)

// flipDev is a device that corrupts what it stores: every write reaches the
// device below with byte 0 of its payload flipped. The caller's buffer is
// left as it was.
type flipDev struct{ blockdev.Device }

func (d flipDev) Write(p *sim.Proc, lba int64, count int, data []byte) error {
	flipped := bytes.Clone(data)
	flipped[0] ^= 0xff
	return d.Device.Write(p, lba, count, flipped)
}

// flipped returns devs, each behind a flipDev.
func flipped(devs []blockdev.Device) []blockdev.Device {
	out := make([]blockdev.Device, len(devs))
	for i, d := range devs {
		out[i] = flipDev{d}
	}
	return out
}

// flippedDeploy deploys smokeCfg's database over Trail, as tpcc_trail does,
// and returns the rig and a runner over the same database and a write-ahead
// log reopened on the rig's devices behind flipDev.
func flippedDeploy(t *testing.T) (*rig.Rig, *Runner) {
	t.Helper()
	r, _, err := Deploy(rig.Config{}, smokeCfg, wal.Config{Mode: wal.SyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}
	var runner *Runner
	r.Go("open", func(p *sim.Proc) {
		devs := flipped(r.Devs())
		var db *DB
		if db, err = Reopen(p, smokeCfg, devs[1:]); err != nil {
			return
		}
		var l *wal.Log
		l, err = wal.New(r.Env, wal.Config{Dev: devs[0], Sectors: devs[0].Sectors(), Mode: wal.SyncEveryCommit, BufferBytes: 50 * 1024})
		if err == nil {
			runner = NewRunner(db, txn.NewManager(r.Env, l))
		}
	})
	r.Run()
	if err != nil {
		r.Close()
		t.Fatal(err)
	}
	return r, runner
}

// TestFlippedWritesEndInErrCorrupt runs TPC-C over Trail on devices that
// flip byte 0 of every write. A page the database wrote comes back with a
// bad node type, so the run ends in kvdb.ErrCorrupt within a fixed event
// budget: it neither panics, nor hangs, nor runs to its end on damaged
// tables. After a power cut, Trail recovery and the database's redo over the
// same devices end in a named error too.
func TestFlippedWritesEndInErrCorrupt(t *testing.T) {
	const budget = 20_000 // events; the run fails after ~3 000

	t.Run("run", func(t *testing.T) {
		r, runner := flippedDeploy(t)
		defer r.Close()
		before := r.Env.KernelStats().EventsDispatched
		_, err := runner.Run(r.Env, RunConfig{Transactions: 2000, Seed: 3})
		events := r.Env.KernelStats().EventsDispatched - before
		t.Logf("after %d events: %v", events, err)
		if !errors.Is(err, kvdb.ErrCorrupt) {
			t.Errorf("Run = %v, want a kvdb.ErrCorrupt", err)
		}
		if events > budget {
			t.Errorf("Run failed after %d events, want at most %d", events, budget)
		}
	})

	t.Run("crash then redo", func(t *testing.T) {
		r, runner := flippedDeploy(t)
		ran := r.Env.KernelStats().EventsDispatched
		var runErr error
		r.Go("terminal", func(p *sim.Proc) {
			rng := sim.NewRand(77)
			for runErr == nil {
				_, runErr = runner.runOne(p, rng, pickType(rng))
			}
		})
		r.RunUntil(sim.Time(time.Minute)) // the terminal stops at the damage long before
		ran = r.Env.KernelStats().EventsDispatched - ran
		r.Crash()
		if !errors.Is(runErr, kvdb.ErrCorrupt) {
			t.Fatalf("the terminal stopped with %v, want a kvdb.ErrCorrupt", runErr)
		}
		rec, _, err := r.Recover(trail.RecoverOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		before := rec.Env.KernelStats().EventsDispatched
		var redoErr error
		rec.Go("redo", func(p *sim.Proc) { redoErr = redo(p, rec) })
		rec.Run()
		events := rec.Env.KernelStats().EventsDispatched - before
		t.Logf("run after %d events: %v; redo after %d: %v", ran, runErr, events, redoErr)
		if !errors.Is(redoErr, kvdb.ErrCorrupt) && !errors.Is(redoErr, txn.ErrBadRedo) {
			t.Errorf("redo = %v, want a kvdb.ErrCorrupt or a txn.ErrBadRedo", redoErr)
		}
		if ran > budget || events > budget {
			t.Errorf("run and redo ended after %d and %d events, want at most %d each", ran, events, budget)
		}
	})
}

// redo replays the write-ahead log of the recovered rig onto its tables,
// through flipDev, and checks every table.
func redo(p *sim.Proc, rec *rig.Rig) error {
	devs := flipped(rec.Devs())
	records, err := wal.ReadRecords(p, devs[0], 0, devs[0].Sectors())
	if err != nil {
		return err
	}
	db, err := Reopen(p, smokeCfg, devs[1:])
	if err != nil {
		return err
	}
	if _, err := txn.RecoverDB(p, records, func(tag uint16) *kvdb.Tree { return db.Tree(Table(tag)) }); err != nil {
		return err
	}
	for tb := Warehouse; tb <= Stock; tb++ {
		if err := db.Tree(tb).Check(p); err != nil {
			return err
		}
	}
	return nil
}
