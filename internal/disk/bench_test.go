package disk

import (
	"testing"

	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// The drive's rungs of the per-layer benchmark ladder (ROADMAP): host cost
// of one 4 KB command, service-time arithmetic and media store together,
// and of a checkpoint round trip. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/disk

const benchSectors = 8 // 4 KB

// spreadLBA scatters the i-th command over the drive deterministically.
func spreadLBA(i int, d *Disk) int64 {
	blocks := uint64(d.Geom().TotalSectors()/benchSectors - 1)
	return int64(uint64(i+1)*0x9E3779B97F4A7C15%blocks) * benchSectors
}

// benchAccess runs b.N commands built by req from one process.
func benchAccess(b *testing.B, d *Disk, env *sim.Env, req func(i int) Request) {
	env.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			r := req(i)
			if res := d.Access(p, &r); res.Err != nil {
				b.Error(res.Err)
				return
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// benchContents are the sector contents the write rungs split on, by how far
// the media store's trim scan walks back: an all-zero sector (64 words, and
// no slot), a 16-byte stamp as the benchmark's workloads write (62 words),
// and a dense sector (one word).
var benchContents = []struct {
	name string
	fill func(sec []byte)
}{
	{"zero", func([]byte) {}},
	{"stamped", func(sec []byte) {
		for i := range 16 {
			sec[i] = byte(i) | 0x80
		}
	}},
	{"dense", func(sec []byte) {
		for i := range sec {
			sec[i] = byte(i) | 1
		}
	}},
}

// benchData is one 4 KB extent of sectors filled by fill.
func benchData(fill func([]byte)) []byte {
	data := make([]byte, benchSectors*geom.SectorSize)
	for s := 0; s < benchSectors; s++ {
		fill(data[s*geom.SectorSize : (s+1)*geom.SectorSize])
	}
	return data
}

// Random 4 KB writes, nearly all to sectors never written before: eight
// per-sector sleeps, eight map inserts and, unless the sectors are zero,
// eight slots carved from a slab.
func BenchmarkAccessWrite4K(b *testing.B) {
	for _, c := range benchContents {
		b.Run(c.name, func(b *testing.B) {
			env := sim.NewEnv()
			defer env.Close()
			d := New(env, WDCaviar())
			data := benchData(c.fill)
			benchAccess(b, d, env, func(i int) Request {
				return Request{Write: true, LBA: spreadLBA(i, d), Count: benchSectors, Data: data}
			})
		})
	}
}

// Random 4 KB reads of written data into the caller's buffer, from a drive
// holding 64 MB in scattered extents.
func BenchmarkAccessRead4K(b *testing.B) {
	env := sim.NewEnv()
	defer env.Close()
	d := New(env, WDCaviar())
	const extents = 16384
	data := make([]byte, benchSectors*geom.SectorSize)
	for i := 0; i < extents; i++ {
		d.MediaWrite(spreadLBA(i, d), data)
	}
	benchAccess(b, d, env, func(i int) Request {
		return Request{LBA: spreadLBA(i%extents, d), Count: benchSectors, Data: data}
	})
}

// Snapshot of a drive holding 4 MB in scattered 4 KB extents, restored into
// a second drive: what one crash-explorer branch pays per drive.
func BenchmarkSnapshotRestore(b *testing.B) {
	for _, c := range benchContents {
		b.Run(c.name, func(b *testing.B) {
			env := sim.NewEnv()
			defer env.Close()
			src, dst := New(env, WDCaviar()), New(env, WDCaviar())
			data := benchData(c.fill)
			for i := 0; i < 1024; i++ {
				src.MediaWrite(spreadLBA(i, src), data)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := dst.Restore(src.Snapshot()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
