package disk

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// zonedParams returns a three-zone drive for boundary-crossing tests.
func zonedParams() Params {
	return Params{
		Name: "zoned",
		RPM:  6000,
		Geom: geom.Geometry{
			Cylinders: 90,
			Heads:     2,
			Zones: []geom.Zone{
				{StartCyl: 0, EndCyl: 29, SPT: 80},
				{StartCyl: 30, EndCyl: 59, SPT: 60},
				{StartCyl: 60, EndCyl: 89, SPT: 40},
			},
			TrackSkew: 5,
			CylSkew:   9,
		},
		SeekT2T:         time.Millisecond,
		SeekAvg:         5 * time.Millisecond,
		SeekMax:         10 * time.Millisecond,
		HeadSwitch:      500 * time.Microsecond,
		ReadOverhead:    200 * time.Microsecond,
		WriteOverhead:   400 * time.Microsecond,
		WriteSettle:     100 * time.Microsecond,
		WriteTurnaround: time.Millisecond,
	}
}

func TestZoneCrossingTransfer(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := New(env, zonedParams())
	g := d.Geom()
	// A write spanning the zone-0/zone-1 boundary (SPT changes 80 -> 60).
	boundary := g.TrackStartLBA(30, 0)
	start := boundary - 10
	data := bytes.Repeat([]byte{0x9C}, 25*geom.SectorSize)
	var got []byte
	env.Go("t", func(p *sim.Proc) {
		d.Access(p, &Request{Write: true, LBA: start, Count: 25, Data: data})
		r := Request{LBA: start, Count: 25}
		d.Access(p, &r)
		got = r.Data
	})
	env.Run()
	if !bytes.Equal(got, data) {
		t.Error("zone-crossing write corrupted data")
	}
}

func TestZoneSectorTimesDiffer(t *testing.T) {
	p := zonedParams()
	if inner := p.RotPeriod() / time.Duration(p.Geom.SPTAt(89)); p.SectorTime() >= inner {
		t.Errorf("outer zone sector time %v not faster than inner %v", p.SectorTime(), inner)
	}
}

// TestAccessLatencyBounded is the global service-time property: any single
// command completes within turnaround + overhead + max seek + switch +
// settle + one full rotation + transfer (+ per-extent positioning).
func TestAccessLatencyBounded(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	params := zonedParams()
	d := New(env, params)
	total := d.Geom().TotalSectors()
	rng := sim.NewRand(17)
	rot := params.RotPeriod()

	type op struct {
		lba   int64
		count int
		write bool
	}
	var pending []op
	f := func(rawLBA uint32, rawCount uint8, write bool) bool {
		count := int(rawCount)%32 + 1
		lba := int64(rawLBA) % (total - int64(count))
		pending = append(pending, op{lba: lba, count: count, write: write})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: nil}); err != nil {
		t.Fatal(err)
	}
	_ = rng
	env.Go("runner", func(p *sim.Proc) {
		for _, o := range pending {
			req := &Request{Write: o.write, LBA: o.lba, Count: o.count}
			if o.write {
				req.Data = make([]byte, o.count*geom.SectorSize)
			}
			res := d.Access(p, req)
			// Extents: each may add a head switch + settle + rotation.
			extents := time.Duration(o.count/40 + 2)
			bound := params.WriteTurnaround + params.WriteOverhead + params.SeekMax +
				extents*(params.HeadSwitch+params.WriteSettle+rot) +
				time.Duration(o.count)*rot/40 + time.Millisecond
			if res.Latency() > bound {
				t.Fatalf("op %+v latency %v exceeds bound %v", o, res.Latency(), bound)
			}
		}
	})
	env.Run()
}

// TestWriteReadEquivalenceProperty: whatever is written is read back
// identically, across random extents.
func TestWriteReadEquivalenceProperty(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := New(env, zonedParams())
	total := d.Geom().TotalSectors()
	rng := sim.NewRand(23)
	env.Go("t", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			count := rng.IntRange(1, 20)
			lba := rng.Int64n(total - int64(count))
			data := make([]byte, count*geom.SectorSize)
			for j := range data {
				data[j] = byte(rng.Intn(256))
			}
			d.Access(p, &Request{Write: true, LBA: lba, Count: count, Data: data})
			r := Request{LBA: lba, Count: count}
			d.Access(p, &r)
			if !bytes.Equal(r.Data, data) {
				t.Fatalf("iteration %d: mismatch at lba %d count %d", i, lba, count)
			}
		}
	})
	env.Run()
}

func TestDriftChangesRotPeriod(t *testing.T) {
	p := zonedParams()
	p.DriftPPM = 500
	env := sim.NewEnv()
	defer env.Close()
	d := New(env, p)
	want := p.RotPeriod() + p.RotPeriod()*500/1_000_000
	if d.rotPeriod != want {
		t.Errorf("drifted rotation %v, want %v", d.rotPeriod, want)
	}
	// Nominal params report the undrifted period (driver-facing).
	if p.RotPeriod() == d.rotPeriod {
		t.Error("nominal period unexpectedly equals drifted period")
	}
}
