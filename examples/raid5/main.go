// RAID-5 example: the paper's §6 proposal in action. A four-disk RAID-5
// array is built twice — over standard devices and over Trail data devices —
// and hit with random small writes (the classic RAID-5 weak spot: each one
// costs two reads plus two synchronous writes). A device failure at the end
// shows parity reconstruction running over either backing.
//
//	go run ./examples/raid5
package main

import (
	"fmt"
	"log"
	"time"

	"tracklog"
	"tracklog/internal/metrics"
	"tracklog/internal/raid"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
)

const (
	nDisks = 4
	chunk  = 8 // sectors
	writes = 60
)

func main() {
	for _, useTrail := range []bool{false, true} {
		name := "standard"
		if useTrail {
			name = "trail-backed"
		}
		mean, reconstructed, err := run(useTrail)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("%-13s small write mean %8v   degraded read OK: %v\n",
			name, mean.Round(10*time.Microsecond), reconstructed)
	}
	fmt.Println("\nThe data+parity writes of each read-modify-write ride the Trail log;")
	fmt.Println("the two reads still pay full seek+rotation, bounding the speedup (~1.5x).")
}

func run(useTrail bool) (time.Duration, bool, error) {
	cfg := tracklog.SystemConfig{DataDisks: nDisks}
	if !useTrail {
		cfg.Baseline, cfg.Major = sched.LOOK, 9 // array members sit on the md major
	}
	sys, err := tracklog.NewSystem(cfg)
	if err != nil {
		return 0, false, err
	}
	defer sys.Close()
	env := sys.Env

	array, err := raid.New(sys.Devs(), chunk)
	if err != nil {
		return 0, false, err
	}

	lat := metrics.NewSummary()
	reconstructed := false
	var ferr error
	env.Go("workload", func(p *sim.Proc) {
		rng := sim.NewRand(7)
		region := array.Sectors() / 128
		payload := make([]byte, chunk*tracklog.SectorSize)
		for i := 0; i < writes; i++ {
			lba := rng.Int64n(region/chunk) * chunk
			for j := range payload {
				payload[j] = byte(i + j)
			}
			start := p.Now()
			if err := array.Write(p, lba, chunk, payload); err != nil {
				ferr = err
				return
			}
			lat.Add(p.Now().Sub(start))
			p.Sleep(2 * time.Millisecond)
		}
		// Kill a disk; reads must still return correct data via parity.
		if err := array.Fail(1); err != nil {
			ferr = err
			return
		}
		if _, err := array.Read(p, 0, chunk); err != nil {
			ferr = err
			return
		}
		reconstructed = array.Stats().Reconstructions > 0
	})
	deadline := sim.Time(5 * time.Minute)
	for env.Now() < deadline && !reconstructed && ferr == nil {
		env.RunUntil(env.Now().Add(500 * time.Millisecond))
	}
	if ferr != nil {
		return 0, false, ferr
	}
	return lat.Mean(), reconstructed, nil
}
