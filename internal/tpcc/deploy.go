package tpcc

import (
	"fmt"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/rig"
	"tracklog/internal/sim"
	"tracklog/internal/txn"
	"tracklog/internal/wal"
)

// Deploy assembles the paper's §5.2 deployment on a rig of three data
// disks — disk 0 dedicated to the database log file, disks 1 and 2 holding
// the tables — behind whatever hw describes (the Trail driver, or a
// baseline elevator). The tables are populated through instant devices
// before the system starts (setup, unmeasured), then reopened on the rig's
// timed devices under a write-ahead log configured by log (Dev and Sectors
// are filled in) and a transaction manager. The caller closes the rig.
func Deploy(hw rig.Config, db Config, log wal.Config) (*rig.Rig, *Runner, error) {
	hw.DataDisks = 3
	r, err := rig.Prepare(hw)
	if err != nil {
		return nil, nil, err
	}
	r.Go("load", func(p *sim.Proc) {
		var loaded *DB
		loaded, err = Load(p, db, []blockdev.Device{
			disk.NewInstantDev(r.DataDisks[1], blockdev.DevID{Major: 3, Minor: 1}),
			disk.NewInstantDev(r.DataDisks[2], blockdev.DevID{Major: 3, Minor: 2}),
		})
		if err == nil {
			err = loaded.FlushAll(p)
		}
	})
	r.Run()
	if err != nil {
		r.Close()
		return nil, nil, fmt.Errorf("tpcc load: %w", err)
	}
	if err := r.Start(); err != nil {
		return nil, nil, err
	}
	var runner *Runner
	r.Go("open", func(p *sim.Proc) {
		var reopened *DB
		devs := r.Devs()
		if reopened, err = Reopen(p, db, devs[1:]); err != nil {
			return
		}
		log.Dev, log.Sectors = devs[0], devs[0].Sectors()
		var l *wal.Log
		if l, err = wal.New(r.Env, log); err != nil {
			return
		}
		runner = NewRunner(reopened, txn.NewManager(r.Env, l))
	})
	r.Run()
	if err != nil {
		r.Close()
		return nil, nil, fmt.Errorf("tpcc open: %w", err)
	}
	return r, runner, nil
}
