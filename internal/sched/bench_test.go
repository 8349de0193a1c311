package sched

import (
	"fmt"
	"testing"

	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// The scheduler's rungs of the per-layer benchmark ladder (ROADMAP): host
// cost of one Do through a LOOK queue, alone and with 32 clients keeping the
// queue full, the shape of the benchmark's std_deepq workload. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/sched

func benchDo(b *testing.B, depth int) {
	env := sim.NewEnv()
	defer env.Close()
	d := disk.New(env, disk.WDCaviar())
	q := New(env, d, LOOK)
	const sectors = 8 // 4 KB
	blocks := uint64(d.Geom().TotalSectors()/sectors - 1)
	data := make([]byte, sectors*geom.SectorSize)
	next := 0
	for c := 0; c < depth; c++ {
		env.Go(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			for next < b.N {
				next++
				lba := int64(uint64(next)*0x9E3779B97F4A7C15%blocks) * sectors
				// Reads into the caller's buffer: the media stays empty, so
				// the number is the queue's and the drive's arithmetic.
				if res := q.Do(p, &Request{LBA: lba, Count: sectors, Data: data}); res.Err != nil {
					b.Error(res.Err)
					return
				}
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

func BenchmarkDoDepth1(b *testing.B)  { benchDo(b, 1) }
func BenchmarkDoDepth32(b *testing.B) { benchDo(b, 32) }
