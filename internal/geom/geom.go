// Package geom models the physical geometry of a disk drive: cylinders,
// heads (surfaces), zoned sectors-per-track, and track/cylinder skew.
//
// The Trail driver needs "a detailed knowledge of the log disk's physical
// geometry" (paper §3.1): it converts logical block addresses to
// (cylinder, head, sector) triples, knows how many sectors each track holds,
// and computes the angular position of any sector so it can predict where
// the head is. This package is that knowledge, shared by the disk model
// (which uses it as ground truth) and the Trail driver (which uses it for
// prediction).
package geom

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// SectorSize is the fixed sector payload size in bytes, as on every drive
// the paper uses.
const SectorSize = 512

// Held returns sec's length up to its last non-zero byte (len(sec) a multiple
// of 8). It first skips zero 64-byte blocks: the last word, then seven ORed.
func Held(sec []byte) int {
	le, n := binary.LittleEndian, len(sec)
	for ; n >= 64 && le.Uint64(sec[n-8:n]) == 0; n -= 64 { // a dense sector: one test
		b := (*[64]byte)(sec[n-64 : n])
		if le.Uint64(b[:])|le.Uint64(b[8:])|le.Uint64(b[16:])|le.Uint64(b[24:])|
			le.Uint64(b[32:])|le.Uint64(b[40:])|le.Uint64(b[48:]) != 0 {
			break
		}
	}
	for ; n > 0; n -= 8 {
		if w := le.Uint64(sec[n-8 : n]); w != 0 {
			return n - bits.LeadingZeros64(w)/8
		}
	}
	return 0
}

// Zone is a contiguous range of cylinders that share a sectors-per-track
// count. Modern drives record more sectors on outer (lower-numbered)
// cylinders.
type Zone struct {
	// StartCyl and EndCyl bound the zone, inclusive.
	StartCyl, EndCyl int
	// SPT is the number of sectors per track within the zone.
	SPT int
}

// Geometry describes a drive's physical layout. All fields must be
// positive and zones must tile [0, Cylinders) in order; Validate checks this.
type Geometry struct {
	// Cylinders is the number of cylinder positions of the arm.
	Cylinders int
	// Heads is the number of recording surfaces (tracks per cylinder).
	Heads int
	// Zones partition the cylinders by sectors-per-track.
	Zones []Zone
	// TrackSkew is the sector offset applied at each head switch within a
	// cylinder so that sequential transfers continue without losing a
	// revolution.
	TrackSkew int
	// CylSkew is the additional sector offset applied at each cylinder
	// boundary, covering the track-to-track seek.
	CylSkew int
}

// Validate reports whether the geometry is self-consistent.
func (g *Geometry) Validate() error {
	if g.Cylinders <= 0 || g.Heads <= 0 {
		return fmt.Errorf("geom: non-positive cylinders (%d) or heads (%d)", g.Cylinders, g.Heads)
	}
	if len(g.Zones) == 0 {
		return fmt.Errorf("geom: no zones")
	}
	next := 0
	for i, z := range g.Zones {
		if z.StartCyl != next {
			return fmt.Errorf("geom: zone %d starts at cyl %d, want %d", i, z.StartCyl, next)
		}
		if z.EndCyl < z.StartCyl {
			return fmt.Errorf("geom: zone %d ends (%d) before it starts (%d)", i, z.EndCyl, z.StartCyl)
		}
		if z.SPT <= 0 {
			return fmt.Errorf("geom: zone %d has SPT %d", i, z.SPT)
		}
		next = z.EndCyl + 1
	}
	if next != g.Cylinders {
		return fmt.Errorf("geom: zones cover %d cylinders, want %d", next, g.Cylinders)
	}
	if g.TrackSkew < 0 || g.CylSkew < 0 {
		return fmt.Errorf("geom: negative skew")
	}
	return nil
}

// Uniform returns a single-zone geometry, convenient for tests.
func Uniform(cylinders, heads, spt int) Geometry {
	return Geometry{
		Cylinders: cylinders,
		Heads:     heads,
		Zones:     []Zone{{StartCyl: 0, EndCyl: cylinders - 1, SPT: spt}},
	}
}

// CHS is a physical sector address: cylinder, head (surface), sector index
// on the track.
type CHS struct {
	Cyl, Head, Sector int
}

func (a CHS) String() string { return fmt.Sprintf("(c%d h%d s%d)", a.Cyl, a.Head, a.Sector) }

// zoneOf returns the zone containing cyl.
func (g *Geometry) zoneOf(cyl int) *Zone {
	// Zones are few (single digits on real drives); linear scan is fine and
	// avoids keeping a parallel index structure consistent.
	for i := range g.Zones {
		if cyl >= g.Zones[i].StartCyl && cyl <= g.Zones[i].EndCyl {
			return &g.Zones[i]
		}
	}
	panic(fmt.Sprintf("geom: cylinder %d outside geometry", cyl))
}

// SPTAt returns the sectors-per-track at the given cylinder.
func (g *Geometry) SPTAt(cyl int) int { return g.zoneOf(cyl).SPT }

// TotalTracks returns the number of tracks on the drive.
func (g *Geometry) TotalTracks() int { return g.Cylinders * g.Heads }

// TotalSectors returns the drive capacity in sectors.
func (g *Geometry) TotalSectors() int64 {
	var n int64
	for _, z := range g.Zones {
		n += int64(z.EndCyl-z.StartCyl+1) * int64(g.Heads) * int64(z.SPT)
	}
	return n
}

// Capacity returns the drive capacity in bytes.
func (g *Geometry) Capacity() int64 { return g.TotalSectors() * SectorSize }

// cylStartLBA returns the LBA of sector 0, head 0 of the given cylinder.
func (g *Geometry) cylStartLBA(cyl int) int64 {
	var lba int64
	for _, z := range g.Zones {
		if cyl <= z.StartCyl {
			break
		}
		end := z.EndCyl
		if cyl-1 < end {
			end = cyl - 1
		}
		lba += int64(end-z.StartCyl+1) * int64(g.Heads) * int64(z.SPT)
	}
	return lba
}

// TrackIndex identifies a track by a dense index in [0, TotalTracks), laid
// out cylinder-major then head. Trail's circular track allocator works in
// this index space.
func (g *Geometry) TrackIndex(cyl, head int) int { return cyl*g.Heads + head }

// TrackOf returns the (cylinder, head) of a dense track index.
func (g *Geometry) TrackOf(track int) (cyl, head int) {
	return track / g.Heads, track % g.Heads
}

// TrackStartLBA returns the LBA of sector 0 of the given track.
func (g *Geometry) TrackStartLBA(cyl, head int) int64 {
	return g.cylStartLBA(cyl) + int64(head)*int64(g.SPTAt(cyl))
}

// ToLBA converts a physical address to its logical block address.
func (g *Geometry) ToLBA(a CHS) int64 {
	spt := g.SPTAt(a.Cyl)
	if a.Sector < 0 || a.Sector >= spt || a.Head < 0 || a.Head >= g.Heads {
		panic(fmt.Sprintf("geom: invalid address %v (spt %d, heads %d)", a, spt, g.Heads))
	}
	return g.TrackStartLBA(a.Cyl, a.Head) + int64(a.Sector)
}

// ToCHS converts a logical block address to its physical address.
func (g *Geometry) ToCHS(lba int64) CHS {
	if lba < 0 || lba >= g.TotalSectors() {
		panic(fmt.Sprintf("geom: LBA %d outside drive (capacity %d sectors)", lba, g.TotalSectors()))
	}
	rem := lba
	for _, z := range g.Zones {
		zoneSectors := int64(z.EndCyl-z.StartCyl+1) * int64(g.Heads) * int64(z.SPT)
		if rem >= zoneSectors {
			rem -= zoneSectors
			continue
		}
		perCyl := int64(g.Heads) * int64(z.SPT)
		cyl := z.StartCyl + int(rem/perCyl)
		rem %= perCyl
		head := int(rem / int64(z.SPT))
		sector := int(rem % int64(z.SPT))
		return CHS{Cyl: cyl, Head: head, Sector: sector}
	}
	panic("geom: unreachable")
}

// skewSectors returns the cumulative skew (in sectors) applied to the given
// track: sector 0 of the track is physically located skew sectors after the
// angular origin.
func (g *Geometry) skewSectors(cyl, head int) int {
	return cyl*g.CylSkew + (cyl*(g.Heads-1)+head)*g.TrackSkew
}

// SectorAngle returns the angular position, as a fraction of a revolution in
// [0, 1), of the *start* of the given sector. The disk model compares this
// with the rotational phase to compute rotational latency; the Trail
// predictor uses the same function (geometry is public drive knowledge).
func (g *Geometry) SectorAngle(a CHS) float64 {
	spt := g.SPTAt(a.Cyl)
	slot := (a.Sector + g.skewSectors(a.Cyl, a.Head)) % spt
	return float64(slot) / float64(spt)
}

// NextTrack returns the track index following the given one, wrapping at the
// end of the drive.
func (g *Geometry) NextTrack(track int) int { return (track + 1) % g.TotalTracks() }

// ClosestSectorOnTrack returns the sector index on track (cyl, head) whose
// start is angularly closest *after* the given angle (a fraction of a
// revolution), plus margin sectors. Trail uses this to pick the landing
// sector when repositioning the head to the next track (paper §3.1: "the
// sector on the next track that is physically the closest to the head's
// current position").
func (g *Geometry) ClosestSectorOnTrack(cyl, head int, angle float64, margin int) int {
	spt := g.SPTAt(cyl)
	skew := g.skewSectors(cyl, head) % spt
	// Sector s starts at angle ((s + skew) mod spt)/spt. Invert: the first
	// sector starting at or after `angle` is ceil(angle*spt) - skew.
	slot := int(angle*float64(spt)) + 1 // strictly after the current angle
	s := ((slot-skew)%spt + spt) % spt
	return (s + margin) % spt
}
