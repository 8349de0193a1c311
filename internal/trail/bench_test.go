package trail

import (
	"encoding/binary"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
)

// The Trail driver's rungs of the per-layer benchmark ladder (ROADMAP): host
// cost of sealing one record image, and of one 4 KB synchronous write whose
// write-back drains before the next, so that no cost depends on a backlog —
// the shapes of the benchmark's trail.build_record and trail.write_drained
// probes — and of recovering a crashed backlog, trail_burst's recovery in
// small. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/trail

const benchSectors = 8 // 4 KB

// payloads are the 4 KB blocks the staging and recovery rungs carry, since
// an image costs what its sectors hold: stamped, each sector's LBA and the
// write's sequence number in its first 16 bytes as the benchmark's
// workloads write, and dense, every byte non-zero.
var payloads = []struct {
	name string
	fill func(buf []byte, lba int64, seq uint64)
}{{"stamped", stampBlock}, {"dense", func(buf []byte, lba int64, seq uint64) {
	for i := range buf {
		buf[i] = byte(i) | 1
	}
	stampBlock(buf, lba, seq)
}}}

func stampBlock(buf []byte, lba int64, seq uint64) {
	for s := range len(buf) / geom.SectorSize {
		binary.LittleEndian.PutUint64(buf[s*geom.SectorSize:], uint64(lba)+uint64(s))
		binary.LittleEndian.PutUint64(buf[s*geom.SectorSize+8:], seq)
	}
}

// An 8-block record built, decoded and extracted again: the image is the one
// allocation BuildRecord may make, the decoded header and its block list the
// other two.
func BenchmarkBuildRecord(b *testing.B) {
	data := make([]byte, benchSectors*geom.SectorSize)
	for i := range data {
		data[i] = byte(i)
	}
	h := &RecordHeader{Epoch: 1, PrevSect: -1, Blocks: make([]BlockRef, benchSectors)}
	for i := range h.Blocks {
		h.Blocks[i] = BlockRef{Dev: blockdev.DevID{Major: 8}, DataLBA: int64(i)}
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Seq, h.HeaderLBA = uint64(i), int64(i)
		img, err := BuildRecord(h, data)
		if err != nil {
			b.Fatal(err)
		}
		back, err := DecodeRecordHeader(img)
		if err != nil {
			b.Fatal(err)
		}
		if allocSink, err = ExtractData(back, img); err != nil {
			b.Fatal(err)
		}
	}
}

// paperRig is a Trail driver over the paper's drives, one log disk and one
// data disk.
func paperRig(tb testing.TB) (*sim.Env, *Driver) {
	env := sim.NewEnv()
	log := disk.New(env, disk.ST41601N())
	if err := Format(log); err != nil {
		tb.Fatal(err)
	}
	drv, err := NewDriver(env, log, []*disk.Disk{disk.New(env, disk.WDCaviar())}, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return env, drv
}

// spreadLBA scatters the i-th 4 KB block over dev deterministically.
func spreadLBA(i int, dev *DataDev) int64 {
	blocks := uint64(dev.Sectors()/benchSectors - 1)
	return int64(uint64(i+1)*0x9E3779B97F4A7C15%blocks) * benchSectors
}

// One sparse writer on the paper's drives: caller's buffer to staging chunk,
// chunk to record image, image to the log slab, chunk to the data slab. The
// request's bookkeeping and its chunk are recycled, so a share of a media
// slab is all a write allocates (TestRequestPathAllocations).
func BenchmarkWriteDrained4K(b *testing.B) {
	env, drv := paperRig(b)
	defer env.Close()
	dev := drv.Dev(0)
	buf := make([]byte, benchSectors*geom.SectorSize)
	env.Go("writer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := dev.Write(p, spreadLBA(i, dev), benchSectors, buf); err != nil {
				b.Error(err)
				return
			}
			p.Sleep(40 * time.Millisecond)
		}
	})
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// A staging hit on the paper's drives with a backlog of other staged 4 KB
// extents beside the one read, at an idle driver, a busy one, and
// trail_burst's ~13 000 entries at the cut: the read probes only the stripes
// around it in the stripe index (stagedOver), so the backlog should not
// show, and then expands the image.
func BenchmarkReadStaged(b *testing.B) {
	for _, pl := range payloads {
		for _, bl := range []struct {
			name    string
			backlog int
		}{{"0", 0}, {"1k", 1000}, {"13k", 13000}} {
			b.Run(pl.name+"/backlog="+bl.name, func(b *testing.B) {
				env, drv := paperRig(b)
				defer env.Close()
				dev := drv.Dev(0)
				block := make([]byte, benchSectors*geom.SectorSize)
				for i := 0; i <= bl.backlog; i++ {
					lba := spreadLBA(i, dev)
					pl.fill(block, lba, uint64(i+1))
					drv.staged.add(&bufEntry{data: pack(nil, block), lba: lba, count: benchSectors})
				}
				env.Go("reader", func(p *sim.Proc) {
					for i := 0; i < b.N; i++ {
						if _, err := dev.Read(p, spreadLBA(bl.backlog, dev), benchSectors); err != nil {
							b.Error(err)
							return
						}
					}
				})
				b.SetBytes(int64(len(block)))
				b.ReportAllocs()
				b.ResetTimer()
				env.Run()
				if got := drv.Stats().ReadsFromStaging; got != int64(b.N) {
					b.Fatalf("%d of %d reads served from staging", got, b.N)
				}
			})
		}
	}
}

// Recovery of ~1 000 pending records on the paper's drives: four writers cut
// off at their last acknowledgement, then locate, rebuild and write-back onto
// a LOOK-scheduled data disk. Each iteration reboots the same crashed media;
// the crashed log header is put back between iterations, untimed, and every
// iteration must find the same records. SetBytes is the data the driver had
// outstanding at the cut.
func BenchmarkRecoverBacklog(b *testing.B) {
	for _, pl := range payloads {
		b.Run(pl.name, func(b *testing.B) { benchmarkRecoverBacklog(b, pl.fill) })
	}
}

func benchmarkRecoverBacklog(b *testing.B, fill func(buf []byte, lba int64, seq uint64)) {
	const writers, perWriter = 4, 1000
	env := sim.NewEnv()
	log := disk.New(env, disk.ST41601N())
	if err := Format(log); err != nil {
		b.Fatal(err)
	}
	data := disk.New(env, disk.WDCaviar())
	drv, err := NewDriver(env, log, []*disk.Disk{data}, Config{})
	if err != nil {
		b.Fatal(err)
	}
	dev := drv.Dev(0)
	blocks := uint64(dev.Sectors()/benchSectors - 1)
	acks := 0
	for w := 0; w < writers; w++ {
		env.Go("writer", func(p *sim.Proc) {
			buf := make([]byte, benchSectors*geom.SectorSize)
			for i := 0; i < perWriter; i++ {
				seq := uint64(w*perWriter + i + 1)
				lba := int64(seq*0x9E3779B97F4A7C15%blocks) * benchSectors
				fill(buf, lba, seq)
				if err := dev.Write(p, lba, benchSectors, buf); err != nil {
					b.Error(err)
					return
				}
				acks++
			}
		})
	}
	for acks < writers*perWriter && !b.Failed() {
		env.RunUntil(env.Now().Add(time.Millisecond))
	}
	pending := drv.OutstandingRecords()
	env.Close()
	crashed, err := ReadHeader(log)
	if err != nil {
		b.Fatal(err)
	}

	b.SetBytes(int64(pending) * benchSectors * geom.SectorSize)
	b.ReportAllocs()
	b.ResetTimer()
	found := 0
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		log.Reattach(env)
		data.Reattach(env)
		id := blockdev.DevID{Major: 8}
		devs := map[blockdev.DevID]blockdev.Device{id: stddisk.New(env, data, id, sched.LOOK)}
		var rep *RecoverReport
		env.Go("recovery", func(p *sim.Proc) {
			rep, err = RecoverLogs(p, []*disk.Disk{log}, devs, RecoverOptions{})
		})
		env.Run()
		env.Close()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			found = rep.RecordsFound
		}
		if rep.Clean || rep.RecordsFound != found {
			b.Fatalf("iteration %d recovered %d records, the first %d", i, rep.RecordsFound, found)
		}
		b.StopTimer()
		hdr := *crashed
		if err := writeHeaderAll(log, &hdr); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
