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
// the media store's trim scan walks back: an all-zero sector (eight 64-byte
// blocks, and no slot), a 16-byte stamp as the benchmark's workloads write
// (eight blocks, then seven words), and a dense sector (one block, one word).
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
	{"dense", denseFill},
}

// denseFill fills a sector with no zero byte.
func denseFill(sec []byte) {
	for i := range sec {
		sec[i] = byte(i) | 1
	}
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
// per-sector sleeps, a new group of 16 sectors and, unless the sectors are
// zero, eight slots carved from a slab.
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

// mediaPages is how many 4 KB pages the media rungs cycle over: 16 MB.
const mediaPages = 4096

// pageSink keeps the compiler from dropping a page read.
var pageSink []byte

// Dense 4 KB pages written through MediaWrite to consecutive pages, the path
// a database load's evicted pages take to the media through an InstantDev.
// The drive is reformatted whenever the pages wrap, so nearly every write is
// to sectors never written.
func BenchmarkMediaWritePage(b *testing.B) {
	env := sim.NewEnv()
	defer env.Close()
	d := New(env, WDCaviar())
	data := benchData(denseFill)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%mediaPages == 0 {
			d.MediaZero()
		}
		d.MediaWrite(int64(i%mediaPages)*benchSectors, data)
	}
}

// Dense 4 KB pages read through MediaRead from a drive holding 16 MB of them,
// the path a database's page faults take through an InstantDev, and pages of
// the same drive never written, which read as zeroes.
func BenchmarkMediaReadPage(b *testing.B) {
	env := sim.NewEnv()
	defer env.Close()
	d := New(env, WDCaviar())
	data := benchData(denseFill)
	for i := 0; i < mediaPages; i++ {
		d.MediaWrite(int64(i)*benchSectors, data)
	}
	for _, tc := range []struct {
		name  string
		first int64
	}{{"written", 0}, {"never-written", mediaPages}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pageSink = d.MediaRead((tc.first+int64(i%mediaPages))*benchSectors, benchSectors)
			}
		})
	}
}
