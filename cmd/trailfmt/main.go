// Command trailfmt demonstrates the Trail log disk format: it formats a
// simulated ST41601N, runs a small workload through the driver, and then
// inspects the raw media the way the recovery scanner does — dumping the
// disk header, walking tracks for write records, and following the
// prev_sect chain from the youngest record.
//
// Usage:
//
//	trailfmt [-writes N] [-crash] [-v]
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
	writes := fs.Int("writes", 8, "writes to run before inspecting")
	crash := fs.Bool("crash", false, "cut power before write-back completes")
	verbose := fs.Bool("v", false, "dump every record's block list")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := demo(stdout, *writes, *crash, *verbose); err != nil {
		fmt.Fprintln(stderr, "trailfmt:", err)
		return 1
	}
	return 0
}

func demo(w io.Writer, writes int, crash, verbose bool) error {
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

	return inspect(w, log, verbose)
}

// inspect reads the media directly (as an offline tool would) and prints
// the on-disk structures.
func inspect(w io.Writer, log *disk.Disk, verbose bool) error {
	hdr, err := trail.ReadHeader(log)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "log disk header: epoch=%d cleanShutdown=%v geometry=%dx%d cylinders/heads\n",
		hdr.Epoch, hdr.CleanShutdown, hdr.Geom.Cylinders, hdr.Geom.Heads)

	g := log.Geom()
	type found struct {
		hdr *trail.RecordHeader
	}
	var records []found
	for _, track := range trail.UsableTracks(g) {
		cyl, head := g.TrackOf(track)
		spt := g.SPTAt(cyl)
		base := g.TrackStartLBA(cyl, head)
		img := log.MediaRead(base, spt)
		empty := true
		for _, b := range img {
			if b != 0 {
				empty = false
				break
			}
		}
		if empty {
			continue
		}
		for s := 0; s < spt; s++ {
			rh, err := trail.DecodeRecordHeader(img[s*geom.SectorSize : (s+1)*geom.SectorSize])
			if err != nil || rh.HeaderLBA != base+int64(s) {
				continue
			}
			records = append(records, found{hdr: rh})
		}
	}
	fmt.Fprintf(w, "write records on media: %d\n", len(records))
	var youngest *trail.RecordHeader
	for _, r := range records {
		if r.hdr.Epoch != hdr.Epoch {
			continue
		}
		if youngest == nil || r.hdr.Seq > youngest.Seq {
			youngest = r.hdr
		}
		if verbose {
			fmt.Fprintf(w, "  seq=%-6d lba=%-8d prev=%-8d logHead=%-8d blocks=%d\n",
				r.hdr.Seq, r.hdr.HeaderLBA, r.hdr.PrevSect, r.hdr.LogHead, len(r.hdr.Blocks))
			for _, b := range r.hdr.Blocks {
				fmt.Fprintf(w, "      -> %v lba %d\n", b.Dev, b.DataLBA)
			}
		}
	}
	if youngest != nil {
		fmt.Fprintf(w, "youngest active record: seq=%d at lba=%d, log head at lba=%d\n",
			youngest.Seq, youngest.HeaderLBA, youngest.LogHead)
	}
	return nil
}
