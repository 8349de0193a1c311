// Recovery example: walk through Trail's three-phase crash recovery and the
// effect of the paper's two optimizations (binary search for the youngest
// record; bounding the backward walk with log_head) and of skipping the
// write-back phase.
//
//	go run ./examples/recovery
package main

import (
	"fmt"
	"log"
	"time"

	"tracklog"
)

const pending = 64 // log records outstanding at the crash

func main() {
	fmt.Printf("Building a Trail system and crashing it with ~%d pending records...\n\n", pending)
	sys, err := crash()
	if err != nil {
		log.Fatal(err)
	}

	variants := []struct {
		name string
		opts tracklog.RecoverOptions
	}{
		{"full recovery (paper defaults)", tracklog.RecoverOptions{}},
		{"sequential scan (no binary search)", tracklog.RecoverOptions{SequentialScan: true}},
		{"unbounded walk (no log_head)", tracklog.RecoverOptions{IgnoreLogHead: true}},
		{"skip write-back (Fig 4b)", tracklog.RecoverOptions{SkipWriteBack: true}},
	}
	for _, v := range variants {
		rep, err := recoverClones(sys, v.opts)
		if err != nil {
			log.Fatalf("%s: %v", v.name, err)
		}
		fmt.Printf("%-36s total %8v  locate %8v (%3d tracks)  rebuild %8v  write-back %8v  records %d\n",
			v.name, rep.Total().Round(time.Millisecond), rep.LocateTime.Round(time.Millisecond),
			rep.TracksScanned, rep.RebuildTime.Round(time.Millisecond),
			rep.WriteBackTime.Round(time.Millisecond), rep.RecordsFound)
	}
}

// crash builds a Trail system, writes until pending records are outstanding
// and cuts power.
func crash() (*tracklog.System, error) {
	cfg := tracklog.DefaultTrailConfig()
	cfg.MaxBatchSectors = 2 // one 2-sector write per record, for a precise backlog
	sys, err := tracklog.NewSystem(tracklog.SystemConfig{Trail: cfg})
	if err != nil {
		return nil, err
	}
	stop := false
	sys.Go("load", func(p *tracklog.Proc) {
		rng := tracklog.NewRand(5)
		for !stop {
			lba := rng.Int64n(sys.Trail.Dev(0).Sectors()/8) * 8
			if err := sys.Trail.Dev(0).Write(p, lba, 2, make([]byte, 2*tracklog.SectorSize)); err != nil {
				log.Fatal(err)
			}
		}
	})
	for sys.Trail.OutstandingRecords() < pending {
		sys.RunUntil(sys.Env.Now().Add(2 * time.Millisecond))
	}
	stop = true
	sys.Crash()
	return sys, nil
}

// recoverClones recovers clones of the crashed system's drives with opts on
// a fresh environment: recovery marks the log disk clean, so every variant
// gets its own copy of the one crash state.
func recoverClones(sys *tracklog.System, opts tracklog.RecoverOptions) (*tracklog.RecoverReport, error) {
	drives := sys.Drives()
	for i, d := range drives {
		drives[i] = d.Clone()
	}
	env := tracklog.NewEnv()
	defer env.Close()
	_, rep, err := sys.RecoverOn(env, drives, opts)
	return rep, err
}
