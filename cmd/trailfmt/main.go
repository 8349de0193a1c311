// Command trailfmt demonstrates the Trail log disk format: it formats a
// simulated ST41601N, runs eight small writes through the driver, and then
// inspects the raw media the way the recovery scanner does — dumping the
// disk header, walking tracks for the current epoch's intact write records
// through trail.DecodeRecord, the decoder recovery's scan uses, and naming
// the youngest of them, where recovery's prev_sect walk starts.
//
// Usage:
//
//	trailfmt [-crash]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/rig"
	"tracklog/internal/sim"
	"tracklog/internal/trail"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trailfmt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	crash := fs.Bool("crash", false, "cut power before write-back completes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := demo(stdout, *crash); err != nil {
		fmt.Fprintln(stderr, "trailfmt:", err)
		return 1
	}
	return 0
}

// writes is the demo workload's length.
const writes = 8

func demo(w io.Writer, crash bool) error {
	sys, err := rig.Prepare(rig.Config{})
	if err != nil {
		return err
	}
	defer sys.Close()
	env, log := sys.Env, sys.LogDisk
	fmt.Fprintf(w, "formatted %s: %d tracks, %.2f GiB, header replicas on tracks %v\n",
		log.Params().Name, log.Geom().TotalTracks(),
		float64(log.Geom().Capacity())/(1<<30), trail.HeaderTracks(log.Geom()))

	if err := sys.Start(); err != nil {
		return err
	}
	dev, drv := sys.Dev(0), sys.Trail
	done := 0
	env.Go("workload", func(p *sim.Proc) {
		rng := sim.NewRand(7)
		for i := 0; i < writes; i++ {
			lba := rng.Int64n(dev.Sectors()/8) * 8
			n := rng.IntRange(1, 4)
			buf := make([]byte, n*geom.SectorSize)
			for j := range buf {
				buf[j] = byte(i)
			}
			if err := dev.Write(p, lba, n, buf); err != nil {
				panic(err)
			}
			done++
			p.Sleep(3 * time.Millisecond)
		}
	})
	if crash {
		// Stop as soon as all writes are logged but before write-back
		// drains, leaving pending records on the media.
		for done < writes {
			env.RunUntil(env.Now().Add(time.Millisecond))
		}
		fmt.Fprintf(w, "power cut with %d records outstanding\n\n", drv.OutstandingRecords())
	} else {
		env.Run()
		fmt.Fprintf(w, "workload drained cleanly\n\n")
	}

	return inspect(w, log)
}

// inspect reads the media directly (as an offline tool would) and prints
// the on-disk structures.
func inspect(w io.Writer, log *disk.Disk) error {
	hdr, err := trail.ReadHeader(log)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "log disk header: epoch=%d cleanShutdown=%v geometry=%dx%d cylinders/heads\n",
		hdr.Epoch, hdr.CleanShutdown, hdr.Geom.Cylinders, hdr.Geom.Heads)

	g := log.Geom()
	records := 0
	var youngest *trail.RecordHeader
	for i := range trail.NumUsableTracks(g) {
		cyl, head := g.TrackOf(trail.UsableTrack(g, i))
		spt := g.SPTAt(cyl)
		base := g.TrackStartLBA(cyl, head)
		img := log.MediaRead(base, spt)
		for s := 0; s < spt; s++ {
			rh, _, err := trail.DecodeRecord(img, base, s, hdr.Epoch)
			if err != nil {
				continue
			}
			records++
			if youngest == nil || rh.Seq > youngest.Seq {
				youngest = rh
			}
		}
	}
	fmt.Fprintf(w, "write records on media: %d\n", records)
	if youngest != nil {
		fmt.Fprintf(w, "youngest active record: seq=%d at lba=%d, log head at lba=%d\n",
			youngest.Seq, youngest.HeaderLBA, youngest.LogHead)
	}
	return nil
}
