package trail

// Who owns a block's bytes (DESIGN.md §internal/trail): the caller's buffer
// is packed once into a staged image, the image expanded once into the log
// disk's reused record buffer and once into a write-back flight's buffer.
// These tests scribble, supersede, reuse and fault at every hand-over and
// then read the platters.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// loggedRecord is one record image found on the log platter.
type loggedRecord struct {
	hdr  *RecordHeader
	raw  []byte // the header sector as it lies on the media
	data []byte // the restored payload; nil when the image is torn
}

// mediaRecords decodes every record header on the log media, in Seq order.
func mediaRecords(log *disk.Disk) []loggedRecord {
	var out []loggedRecord
	total := log.Geom().TotalSectors()
	for lba := int64(0); lba < total; lba++ {
		raw := log.MediaRead(lba, 1)
		h, err := DecodeRecordHeader(raw)
		if err != nil || h.HeaderLBA != lba || lba+1+int64(len(h.Blocks)) > total {
			continue
		}
		rec := loggedRecord{hdr: h, raw: raw}
		if data, err := ExtractData(h, log.MediaRead(lba, 1+len(h.Blocks))); err == nil {
			rec.data = data
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].hdr.Seq < out[j].hdr.Seq })
	return out
}

// pattern returns sectors of distinct bytes (every sector's first byte
// differs, so first-byte substitution is exercised too).
func pattern(seed byte, sectors int) []byte {
	buf := make([]byte, sectors*geom.SectorSize)
	for i := range buf {
		buf[i] = seed + byte(i/geom.SectorSize)*7 + byte(i%251)
	}
	return buf
}

// TestCallerMayReuseBufferAfterWrite: the caller's buffer is its own again
// the instant Write returns. The log media, a staging read and, after the
// drain, the data media all hold the acknowledged bytes, for a single-chunk
// write and for one split over two records.
func TestCallerMayReuseBufferAfterWrite(t *testing.T) {
	r := newRig(t, 1, Config{})
	defer r.env.Close()
	dev := r.drv.Dev(0)
	writes := []struct {
		lba     int64
		sectors int
	}{{320, 8}, {1024, MaxBatch + 8}}
	var want, staged [][]byte
	r.env.Go("client", func(p *sim.Proc) {
		for i, w := range writes {
			buf := pattern(byte(0x40*i+1), w.sectors)
			want = append(want, bytes.Clone(buf))
			if err := dev.Write(p, w.lba, w.sectors, buf); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
			for j := range buf {
				buf[j] = 0xEE
			}
			got, err := dev.Read(p, w.lba, w.sectors)
			if err != nil {
				t.Errorf("read %d: %v", i, err)
			}
			staged = append(staged, got)
		}
	})
	r.env.Run()
	var logged []byte
	for _, rec := range mediaRecords(r.log) {
		if rec.data == nil {
			t.Fatalf("record seq %d is torn on a fault-free rig", rec.hdr.Seq)
		}
		logged = append(logged, rec.data...)
	}
	if !bytes.Equal(logged, bytes.Join(want, nil)) {
		t.Error("log media do not hold the acknowledged bytes")
	}
	for i, w := range writes {
		if !bytes.Equal(staged[i], want[i]) {
			t.Errorf("write %d: staging read returned the caller's later scribbles", i)
		}
		if !bytes.Equal(r.data[0].MediaRead(w.lba, w.sectors), want[i]) {
			t.Errorf("write %d: data media do not hold the acknowledged bytes", i)
		}
	}
	if r.drv.StagedBytes() != 0 {
		t.Errorf("StagedBytes = %d after the drain", r.drv.StagedBytes())
	}
}

// zeroTails are the zero tails the staging tests' payloads give their
// sectors in turn: every way a sector's held length can fall against the
// image's 2-byte lengths and the media store's 8-byte words, 512 being an
// all-zero sector.
var zeroTails = []int{0, 1, 15, 16, 17, 100, 511, 512}

// tailed returns sectors of version v: sector i ends in the zero tail
// zeroTails[(i+shift)%8] and every byte before it is non-zero.
func tailed(v byte, sectors, shift int) []byte {
	buf := make([]byte, sectors*geom.SectorSize)
	for i := range sectors {
		sec := buf[i*geom.SectorSize : (i+1)*geom.SectorSize]
		for j := range geom.SectorSize - zeroTails[(i+shift)%len(zeroTails)] {
			sec[j] = (v + byte(j%7)) | 1
		}
	}
	return buf
}

// TestImageRoundTrip packs every sector count a record holds, at each shift
// of the zero tails and dense, into a stale free image of its class, to the
// length the format gives it (whole when packing saves nothing), and expands
// every sub-range back.
func TestImageRoundTrip(t *testing.T) {
	var free freeImages
	for k := range free.free {
		free.put(bytes.Repeat([]byte{0xEE}, 1<<k))
	}
	for count := 1; count <= MaxBatch; count++ {
		for shift := range len(zeroTails) + 1 {
			data := bytes.Repeat([]byte{0xA5}, count*geom.SectorSize)
			if shift < len(zeroTails) {
				data = tailed(byte(count), count, shift)
			}
			size := 0
			for i := range count {
				size += 2 + geom.SectorSize - zeroTails[(i+shift)%len(zeroTails)]
			}
			if shift == len(zeroTails) || size > len(data) {
				size = len(data)
			}
			k := bits.Len(uint(size - 1))
			img := pack(&free, data)
			if len(img) != size || cap(img) != 1<<k {
				t.Fatalf("%d sectors, shift %d: a %d-byte image of capacity %d, want %d of %d", count, shift, len(img), cap(img), size, 1<<k)
			}
			free.put(img)
			for from := range count {
				for to := from + 1; to <= count; to++ {
					out := bytes.Repeat([]byte{0xEE}, (to-from)*geom.SectorSize)
					unpack(out, img, count, from)
					if !bytes.Equal(out, data[from*geom.SectorSize:to*geom.SectorSize]) {
						t.Fatalf("%d sectors, shift %d: sectors %d-%d expand wrong", count, shift, from, to)
					}
				}
			}
		}
	}
}

// TestStageReplacesNeverMutates pins what the write-back path relies on: no
// flight reads a staged image, so stage adopts the newer version's image and
// puts the one it replaces, unwritten, on the free list at once.
func TestStageReplacesNeverMutates(t *testing.T) {
	r := newRig(t, 1, Config{})
	defer r.env.Close()
	ld := r.drv.logs[0]
	rec := &record{seq: 1, log: ld, trackIdx: ld.posIdx, blocks: 4}
	ld.outstanding.Push(rec)
	ld.busyCount[rec.trackIdx]++
	older, newer := pack(nil, tailed(0x11, 2, 0)), pack(nil, tailed(0x22, 2, 5))
	r.drv.stage(&pendingWrite{lba: 8, count: 2, data: older}, rec)
	e := r.drv.staged.find(0, 8, 2)
	r.drv.stage(&pendingWrite{lba: 8, count: 2, data: newer}, rec)
	if !bytes.Equal(older, pack(nil, tailed(0x11, 2, 0))) {
		t.Error("stage wrote through the image it replaced")
	}
	if &e.data[0] != &newer[0] {
		t.Error("stage copied the newer version instead of adopting its image")
	}
	var free [][]byte
	for _, class := range r.drv.free.images.free {
		free = append(free, class...)
	}
	if len(free) != 1 || &free[0][0] != &older[0] {
		t.Errorf("%d free images, want the replaced one alone", len(free))
	}
	if e.stamp != 2 || r.drv.staged.find(0, 8, 2) != e {
		t.Errorf("stamp = %d on entry %p, want 2 on the same entry", e.stamp, e)
	}
}

// TestSupersedeDuringWriteBackTransfer pauses the world with the first
// sector of a write-back on the platter, lets a newer version of the same
// extent be acknowledged while the rest of the flight is still transferring,
// and checks that the flight finishes with its own bytes, the platter ends
// with the newer version, and the counters read as they did when every flight
// carried a private copy.
func TestSupersedeDuringWriteBackTransfer(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	log := disk.New(env, testLogParams())
	if err := Format(log); err != nil {
		t.Fatal(err)
	}
	slow := testDataParams("data")
	slow.RPM = 600 // 1.67 ms a sector: the flight outlasts a log write
	data := disk.New(env, slow)
	drv, err := NewDriver(env, log, []*disk.Disk{data}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dev := drv.Dev(0)
	const lba, sectors = 480, 8
	v1, v2 := tailed(0x10, sectors, 0), tailed(0x90, sectors, 3)

	var order []string
	var atFlightEnd []byte
	env.SetProbeHook(func(ev sim.ProbeEvent) bool {
		switch {
		case ev.Kind == sim.ProbeMediaWrite && ev.Dev == "data":
			order = append(order, "sector")
			return len(order) == 2 // ack(v1), then this first sector
		case ev.Kind == sim.ProbeAck:
			order = append(order, "ack")
		case ev.Kind == sim.ProbeWBEnd:
			order = append(order, "wbend")
			if atFlightEnd == nil {
				atFlightEnd = data.MediaRead(lba, sectors)
			}
		}
		return false
	})
	write := func(name string, buf []byte) {
		env.Go(name, func(p *sim.Proc) {
			if err := dev.Write(p, lba, sectors, buf); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		})
	}
	write("v1", v1)
	env.Run()
	if !env.Paused() {
		t.Fatal("world did not pause at the flight's first sector")
	}
	write("v2", v2)
	env.Run()

	// ack(v1), some of the flight's sectors, ack(v2), the rest, the flight's end.
	events := strings.Join(order, " ")
	if v2Ack := strings.LastIndex(events, "ack"); v2Ack < strings.Index(events, "sector") ||
		v2Ack > strings.Index(events, "wbend") || !strings.HasPrefix(events[v2Ack:], "ack sector") {
		t.Fatalf("v2 was not acknowledged mid-transfer: events %v", order)
	}
	if !bytes.Equal(atFlightEnd, v1) {
		t.Error("the first flight did not finish with the bytes it took off with")
	}
	if !bytes.Equal(data.MediaRead(lba, sectors), v2) {
		t.Error("platter does not end with the newer version")
	}
	st := drv.Stats()
	if st.WriteBacks != 2 || st.SupersededWriteBacks != 0 || drv.StagedBytes() != 0 {
		t.Errorf("WriteBacks %d, SupersededWriteBacks %d, StagedBytes %d; want 2, 0, 0",
			st.WriteBacks, st.SupersededWriteBacks, drv.StagedBytes())
	}
}

// TestImageBufferReuseAcrossRecordSizes: a 16-block record and then a
// 1-block record go through the same log disk's image buffer. Both decode
// from the media to their own payloads, and the small record's header sector
// carries nothing of the big one past its encoded fields.
func TestImageBufferReuseAcrossRecordSizes(t *testing.T) {
	r := newRig(t, 1, Config{})
	defer r.env.Close()
	dev := r.drv.Dev(0)
	big, small := pattern(0x21, 16), pattern(0xC3, 1)
	r.env.Go("client", func(p *sim.Proc) {
		if err := dev.Write(p, 640, 16, big); err != nil {
			t.Errorf("big: %v", err)
		}
		if err := dev.Write(p, 64, 1, small); err != nil {
			t.Errorf("small: %v", err)
		}
	})
	r.env.Run()
	recs := mediaRecords(r.log)
	if len(recs) != 2 {
		t.Fatalf("%d records on the log media, want 2", len(recs))
	}
	for i, want := range [][]byte{big, small} {
		if !bytes.Equal(recs[i].data, want) {
			t.Errorf("record %d does not decode to its own payload", i)
		}
		// Each record is one write, so its blocks are one run.
		if tail := recs[i].raw[encodedSize(1, len(recs[i].hdr.Blocks)):]; !bytes.Equal(tail, make([]byte, len(tail))) {
			t.Errorf("record %d: header sector not zero past its encoded size", i)
		}
	}
	if recs[1].hdr.PrevSect != recs[0].hdr.HeaderLBA {
		t.Errorf("PrevSect %d, want %d", recs[1].hdr.PrevSect, recs[0].hdr.HeaderLBA)
	}
	// A sealed header is byte for byte what the allocating encoder produces.
	enc, err := recs[1].hdr.Encode()
	if err != nil || !bytes.Equal(enc, recs[1].raw) {
		t.Errorf("header on media differs from Encode() of its decoding (err %v)", err)
	}
}

// nthSectorFault fails the nth sector written after it is attached, once,
// with a media error: the command aborts mid-transfer with the earlier
// sectors on the platter.
type nthSectorFault struct{ n, seen int }

func (f *nthSectorFault) CommandFault(sim.Time, bool, int64, int) disk.CommandFault {
	return disk.CommandFault{}
}
func (f *nthSectorFault) SectorWritten(int64)  {}
func (f *nthSectorFault) Clone() disk.Injector { c := *f; return &c }
func (f *nthSectorFault) SectorFault(_ sim.Time, write bool, lba int64) error {
	if !write {
		return nil
	}
	f.seen++
	if f.seen != f.n {
		return nil
	}
	return fmt.Errorf("injected at lba %d: %w", lba, blockdev.ErrMediaError)
}

// TestRetriedLogWriteLandsValidImage tears the second record two sectors
// into its transfer. The retry builds its image in the same buffer: it must
// land whole, under a fresh sequence number, chained to the same predecessor
// as the torn attempt.
func TestRetriedLogWriteLandsValidImage(t *testing.T) {
	r := newRig(t, 1, Config{})
	defer r.env.Close()
	r.log.SetInjector(&nthSectorFault{n: 3 + 3}) // record 1 is three sectors
	dev := r.drv.Dev(0)
	first, second := pattern(0x05, 2), pattern(0x77, 4)
	r.env.Go("client", func(p *sim.Proc) {
		if err := dev.Write(p, 100, 2, first); err != nil {
			t.Errorf("first: %v", err)
		}
		if err := dev.Write(p, 200, 4, second); err != nil {
			t.Errorf("second: %v", err)
		}
	})
	r.env.Run()
	if st := r.drv.Stats(); st.LogMediaErrors != 1 || st.FailedWrites != 0 {
		t.Fatalf("LogMediaErrors %d, FailedWrites %d; want 1, 0", st.LogMediaErrors, st.FailedWrites)
	}
	recs := mediaRecords(r.log)
	if len(recs) != 3 {
		t.Fatalf("%d record headers on the log media, want 3 (whole, torn, retried)", len(recs))
	}
	whole, torn, retried := recs[0], recs[1], recs[2]
	if !bytes.Equal(whole.data, first) || torn.data != nil || !bytes.Equal(retried.data, second) {
		t.Errorf("payloads: whole ok=%v, torn decoded=%v, retried ok=%v",
			bytes.Equal(whole.data, first), torn.data != nil, bytes.Equal(retried.data, second))
	}
	if retried.hdr.Seq != torn.hdr.Seq+1 {
		t.Errorf("retried seq %d, torn seq %d: the retry reused a sequence number", retried.hdr.Seq, torn.hdr.Seq)
	}
	if torn.hdr.PrevSect != whole.hdr.HeaderLBA || retried.hdr.PrevSect != whole.hdr.HeaderLBA {
		t.Errorf("PrevSect torn %d retried %d, want both %d",
			torn.hdr.PrevSect, retried.hdr.PrevSect, whole.hdr.HeaderLBA)
	}
	if !bytes.Equal(r.data[0].MediaRead(200, 4), second) {
		t.Error("retried write never reached the data disk")
	}
}

// TestReadNewestOfOverlappingStagedExtents: two acknowledged writes whose
// extents overlap are both staged; a read must see the newer bytes wherever
// they overlap, whichever way the staging map iterates, and every sector whole
// whatever its zero tail. Reads start and end inside the extents. Fresh rigs,
// because the map's order is drawn per map.
func TestReadNewestOfOverlappingStagedExtents(t *testing.T) {
	type extent struct {
		lba  int64
		data []byte
	}
	wide, tail := extent{2000, tailed(0x11, 16, 0)}, extent{2008, tailed(0x22, 8, 3)}
	reads := []struct {
		lba     int64
		sectors int
	}{{2008, 4}, {2004, 8}, {2000, 16}, {2001, 3}, {2010, 5}, {2003, 12}, {2015, 1}}
	for _, order := range [][2]extent{{wide, tail}, {tail, wide}} {
		want := make([]byte, 16*geom.SectorSize) // sectors 2000-2015, newest last
		for _, x := range order {
			copy(want[(x.lba-2000)*geom.SectorSize:], x.data)
		}
		for run := 0; run < 40; run++ {
			r := newRig(t, 1, Config{})
			dev := r.drv.Dev(0)
			got := make([][]byte, len(reads))
			var err error
			r.env.Go("client", func(p *sim.Proc) {
				for _, x := range order {
					if err = dev.Write(p, x.lba, len(x.data)/geom.SectorSize, x.data); err != nil {
						return
					}
				}
				for i, rd := range reads {
					if got[i], err = dev.Read(p, rd.lba, rd.sectors); err != nil {
						return
					}
				}
			})
			r.env.Run()
			hits := r.drv.Stats().ReadsFromStaging
			r.env.Close()
			if err != nil {
				t.Fatalf("extent at %d first, run %d: %v", order[0].lba, run, err)
			}
			if hits != int64(len(reads)) {
				t.Fatalf("extent at %d first, run %d: %d reads served from staging, want %d", order[0].lba, run, hits, len(reads))
			}
			for i, rd := range reads {
				off := (rd.lba - 2000) * geom.SectorSize
				if !bytes.Equal(got[i], want[off:off+int64(rd.sectors)*geom.SectorSize]) {
					t.Fatalf("extent at %d first, run %d: Read(%d, %d) is not the newest bytes", order[0].lba, run, rd.lba, rd.sectors)
				}
			}
		}
	}
}

// allocSink keeps a result alive so escape analysis cannot keep it on the stack.
var allocSink []byte

// TestSealingAllocations pins what the exported encoders may allocate: the
// image (BuildRecord) or the sector (Encode) they return, and nothing else.
func TestSealingAllocations(t *testing.T) {
	h, data := sampleRecord(8)
	var err error
	if got := testing.AllocsPerRun(100, func() { allocSink, err = BuildRecord(h, data) }); got != 1 || err != nil {
		t.Errorf("BuildRecord allocates %v times a call (err %v), want 1", got, err)
	}
	if got := testing.AllocsPerRun(100, func() { allocSink, err = h.Encode() }); got != 1 || err != nil {
		t.Errorf("RecordHeader.Encode allocates %v times a call (err %v), want 1", got, err)
	}
}

// TestRecordHeaderMediaAllocations: a record header costs the log's media
// store its encoded bytes in the store's 16-byte steps, at most 80 for one
// 8-sector write (one run) and 448 for 32 one-sector writes to scattered
// blocks batched into one record (32 runs); each cost at least 374 while the
// first bytes sat behind a fixed 32-entry table. Every client sector is zero
// past a non-zero first byte, which the log copy displaces into the header,
// so the log holds no data bytes and the header's last byte is not zero.
func TestRecordHeaderMediaAllocations(t *testing.T) {
	for _, tc := range []struct {
		name                         string
		writes, sectors, runs, bound int
	}{
		{"one extent of 8", 1, 8, 1, 80},
		{"32 scattered blocks", MaxBatch, 1, MaxBatch, 448},
	} {
		r := newRig(t, 1, Config{})
		before := r.log.MediaBytes()
		for i := range tc.writes {
			buf := make([]byte, tc.sectors*geom.SectorSize)
			for s := range tc.sectors {
				buf[s*geom.SectorSize] = byte(i+s) | 1
			}
			r.env.Go("client", func(p *sim.Proc) {
				if err := r.drv.Dev(0).Write(p, 640+64*int64(i), tc.sectors, buf); err != nil {
					t.Errorf("%s: write %d: %v", tc.name, i, err)
				}
			})
		}
		r.env.Run()
		got := r.log.MediaBytes() - before
		recs := mediaRecords(r.log)
		r.env.Close()
		if len(recs) != 1 || len(recs[0].hdr.Blocks) != tc.writes*tc.sectors || int(recs[0].raw[rhOffRuns]) != tc.runs {
			t.Fatalf("%s: %d records on the log, want one of %d blocks in %d runs", tc.name, len(recs), tc.writes*tc.sectors, tc.runs)
		}
		if got > tc.bound {
			t.Errorf("%s: the header costs the log's media store %d bytes, want <= %d", tc.name, got, tc.bound)
		}
	}
}

// TestWriteRecordAllocatesNothingPerBlock drives writeRecord itself, one
// record a call on a log whose every sector already holds a full slot in the
// media store (a non-zero filler: an all-zero sector holds none), and
// compares a 1-block batch with a 16-block one: the count of allocations a
// record costs must not depend on the batch, and the bytes must stay far
// below one copy of the payload (the parent made three: data, image,
// write-back).
func TestWriteRecordAllocatesNothingPerBlock(t *testing.T) {
	measure := func(blocks int) (allocs float64, bytesPerRecord uint64) {
		r := newRig(t, 1, Config{})
		defer r.env.Close()
		filler := bytes.Repeat([]byte{0xa5}, geom.SectorSize)
		for lba := int64(0); lba < r.log.Geom().TotalSectors(); lba++ {
			if _, err := DecodeDiskHeader(r.log.MediaRead(lba, 1)); err != nil {
				r.log.MediaWrite(lba, filler)
			}
		}
		payload := pattern(0x31, blocks)
		r.data[0].MediaWrite(800, payload)
		ld := r.drv.logs[0]
		const runs = 20
		r.env.Go("writer", func(p *sim.Proc) {
			ld.state = writing // the real writer is parked on an empty queue
			one := func() {
				for !ld.head.valid {
					ld.refRead(p, 0)
				}
				target, _, ok := r.drv.chooseTarget(p.Now(), ld, 1+blocks)
				if !ok {
					r.drv.advanceTrack(p, ld, true)
					target, _, _ = r.drv.chooseTarget(p.Now(), ld, 1+blocks)
				}
				pw := &pendingWrite{lba: 800, count: blocks, data: payload, queued: p.Now()}
				pw.done.Init(r.env)
				r.drv.writeRecord(p, ld, target, []*pendingWrite{pw})
				p.Sleep(40 * time.Millisecond) // the write-back lands; staging empties
			}
			one()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs = testing.AllocsPerRun(runs, one)
			runtime.ReadMemStats(&after)
			bytesPerRecord = (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
			ld.state = idle
		})
		r.env.Run()
		if err := r.drv.CheckInvariants(); err != nil {
			t.Errorf("%d blocks: %v", blocks, err)
		}
		if !bytes.Equal(r.data[0].MediaRead(800, blocks), payload) {
			t.Errorf("%d blocks: payload did not reach the data disk", blocks)
		}
		return allocs, bytesPerRecord
	}
	a1, b1 := measure(1)
	a16, b16 := measure(16)
	t.Logf("per record: 1 block %v allocs %d B, 16 blocks %v allocs %d B", a1, b1, a16, b16)
	if a16 != a1 {
		t.Errorf("a 16-block record costs %v allocations, a 1-block record %v: something is allocated per block", a16, a1)
	}
	if half := uint64(16 * geom.SectorSize / 2); b16 > b1+half {
		t.Errorf("a 16-block record allocates %d B, a 1-block record %d B: a slice grows with the batch", b16, b1)
	}
}

// heldBy returns the live heap bytes drop frees.
func heldBy(drop func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	drop()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(before.HeapAlloc) - int64(after.HeapAlloc)
}

// dropStaging lets go of every staged entry: the stripe index, the
// write-back queues, whose heads the write-back processes still reach, and
// every link between entries, since an in-flight write-back's entry pins its
// slab chunk and its neighbours there would still reach the rest through
// their bucket chains and queue links.
func dropStaging(d *Driver) {
	for _, e := range d.staged.buckets {
		for e != nil {
			next := e.chain
			e.chain, e.next = nil, nil
			e = next
		}
	}
	d.staged = stripeIndex{}
	for i := range d.wbQueues {
		d.wbQueues[i].head, d.wbQueues[i].tail = nil, nil
	}
}

// TestStagedSectorHeapAllocations stages 1 500 4 KB writes behind a data disk
// that turns once a minute, so no write-back lands, and weighs the heap
// staging holds (the stripe index, its entries and their images) by dropping
// it (dropStaging):
// a stamped sector (an LBA and a sequence number in its first 16 bytes, as
// the benchmark writes) may cost 64 B, a dense one 540 (its 512 bytes and a
// share of the bookkeeping). The stamped log is then recovered up
// to the records replay would write, which may cost 96 B a pending sector.
func TestStagedSectorHeapAllocations(t *testing.T) {
	for _, tc := range []struct {
		name              string
		dense             bool
		staged, recovered float64
	}{{"stamped", false, 64, 96}, {"dense", true, 540, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			log := disk.New(env, disk.ST41601N())
			if err := Format(log); err != nil {
				t.Fatal(err)
			}
			stalled := disk.WDCaviar()
			stalled.RPM = 1
			drv, err := NewDriver(env, log, []*disk.Disk{disk.New(env, stalled)}, Config{})
			if err != nil {
				t.Fatal(err)
			}
			dev := drv.Dev(0)
			const writes = 1500
			acked := 0
			env.Go("writer", func(p *sim.Proc) {
				buf := make([]byte, benchSectors*geom.SectorSize)
				for i := range writes {
					if tc.dense {
						for j := range buf {
							buf[j] = byte(i+j) | 1
						}
					}
					for s := range benchSectors {
						binary.LittleEndian.PutUint64(buf[s*geom.SectorSize:], uint64(spreadLBA(i, dev))+uint64(s))
						binary.LittleEndian.PutUint64(buf[s*geom.SectorSize+8:], uint64(i+1))
					}
					if err := dev.Write(p, spreadLBA(i, dev), benchSectors, buf); err != nil {
						t.Error(err)
						return
					}
					acked++
				}
			})
			for acked < writes && !t.Failed() {
				env.RunUntil(env.Now().Add(10 * time.Millisecond))
			}
			sectors := float64(drv.StagedBytes() / geom.SectorSize)
			if sectors < writes*benchSectors*0.9 {
				t.Fatalf("%v sectors staged of %d written: the data disk did not stall", sectors, writes*benchSectors)
			}
			perSector := float64(heldBy(func() { dropStaging(drv) })) / sectors
			t.Logf("%s: %.1f heap bytes a staged sector", tc.name, perSector)
			if perSector > tc.staged {
				t.Errorf("a staged %s sector holds %.1f heap bytes, want <= %v", tc.name, perSector, tc.staged)
			}
			env.Close()
			if tc.recovered == 0 {
				return
			}
			env = sim.NewEnv()
			defer env.Close()
			log.Reattach(env)
			var recs []*loadedRecord
			env.Go("recover", func(p *sim.Proc) {
				hdr, err := ReadHeader(log)
				if err != nil {
					t.Error(err)
					return
				}
				win, rep := &trackWindow{}, &RecoverReport{}
				youngest, err := locateYoungest(p, log, hdr.Epoch, false, win, rep)
				if err == nil {
					recs, _, err = rebuildChain(p, log, hdr.Epoch, youngest, false, win, rep)
				}
				if err != nil {
					t.Error(err)
				}
			})
			env.Run()
			pending := 0
			for _, rec := range recs {
				pending += len(rec.hdr.Blocks)
			}
			if pending < writes*benchSectors*0.9 {
				t.Fatalf("%d sectors pending of %d written", pending, writes*benchSectors)
			}
			perSector = float64(heldBy(func() { recs = nil })) / float64(pending)
			t.Logf("%s: %.1f heap bytes a recovered pending sector", tc.name, perSector)
			if perSector > tc.recovered {
				t.Errorf("a recovered %s sector holds %.1f heap bytes, want <= %v", tc.name, perSector, tc.recovered)
			}
		})
	}
}

// TestStagedExtentAllocations stages fresh extents behind a stalled data
// disk, so each write keeps its staging entry, its log record and its image
// until the end: carved from the driver's slabs, n of them cost at most n/8
// allocations, where each was an object of its own before (three a write),
// and at most 1 280 B an extent, everything the write path allocates
// included (1 194 measured; 1 373 while a map held the staged extents and a
// slice of keys queued their write-backs).
func TestStagedExtentAllocations(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	log := disk.New(env, disk.ST41601N())
	if err := Format(log); err != nil {
		t.Fatal(err)
	}
	stalled := disk.WDCaviar()
	stalled.RPM = 1
	drv, err := NewDriver(env, log, []*disk.Disk{disk.New(env, stalled)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dev := drv.Dev(0)
	const warm, n = 256, 1024
	var allocs, bytes float64
	written, done := 0, false
	env.Go("writer", func(p *sim.Proc) {
		defer func() { done = true }()
		buf := make([]byte, benchSectors*geom.SectorSize)
		write := func() {
			lba := spreadLBA(written, dev)
			stampBlock(buf, lba, uint64(written+1))
			if err := dev.Write(p, lba, benchSectors, buf); err != nil {
				t.Error(err)
			}
			written++
		}
		// The warm-up grows the queues and the stripe index part way;
		// AllocsPerRun's own warm-up run stages n more before it measures.
		for range warm {
			write()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(1, func() {
			for range n {
				write()
			}
		})
		runtime.ReadMemStats(&after)
		bytes = float64(after.TotalAlloc-before.TotalAlloc) / (2 * n)
	})
	for !done && !t.Failed() {
		env.RunUntil(env.Now().Add(10 * time.Millisecond))
	}
	if staged := drv.staged.n; staged < warm+n {
		t.Fatalf("%d extents staged of %d written: the data disk did not stall", staged, written)
	}
	t.Logf("%v allocations, %.0f B an extent", allocs, bytes)
	if allocs > n/8 {
		t.Errorf("staging %d fresh extents allocates %v times, want at most %d", n, allocs, n/8)
	}
	if bytes > 1280 {
		t.Errorf("staging a fresh extent allocates %.0f B, want at most 1280", bytes)
	}
}
