package trail

import (
	"time"

	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// Landing margins, in sectors, added to a predicted head position to cover
// prediction rounding: safetySectors when a record lands on the current
// track (or an idle refresh reads it), repositionMargin when the head moves to
// the next one. The positioning cost itself is accounted for by predicting
// the head angle at the media-ready time, so only rounding slack is needed.
const (
	safetySectors    = 1
	repositionMargin = 2
)

// headModel is the driver's model of one log disk's head, the paper's §3.1
// scheme. The driver cannot query the drive for its head position; instead
// it remembers (T0, S0) — the completion time and last sector of the last
// clean command — and extrapolates with the drive's rotation period, adding
// what it knows of the drive's command overheads and arm costs:
//
//	S1 = ((T1-T0) mod RotateTime)/RotateTime * SPT + S0 + delta (mod SPT)
//
// The angular form used here is equivalent and handles per-zone SPT and
// track skew uniformly: the head's angle at T1 is angle(T0) plus the elapsed
// fraction of a revolution. The timing is the drive's datasheet, copied once
// when the driver starts; the model never asks the drive again.
type headModel struct {
	rotPeriod                                  time.Duration
	writeOverhead, writeSettle, turnaround     time.Duration
	readOverhead, headSwitch, seekT2T, seekAvg time.Duration

	// The reference point, set by each clean command: at t0 the head had just
	// passed the end of sector s0, at angle0 (fraction of a revolution).
	// lastEnd is the last command's end, clean or not.
	valid   bool
	t0      sim.Time
	angle0  float64
	s0      int
	lastEnd sim.Time
}

// newHeadModel copies the timing a log disk's head model predicts with from
// the drive's parameters; it has no reference point yet.
func newHeadModel(pp disk.Params) headModel {
	return headModel{rotPeriod: pp.RotPeriod(),
		writeOverhead: pp.WriteOverhead, writeSettle: pp.WriteSettle, turnaround: pp.WriteTurnaround,
		readOverhead: pp.ReadOverhead, headSwitch: pp.HeadSwitch, seekT2T: pp.SeekT2T, seekAvg: pp.SeekAvg}
}

// completed records a command that ended cleanly at end on sector a: the
// head has just passed the end of a, the new reference point.
func (m *headModel) completed(end sim.Time, g *geom.Geometry, a geom.CHS) {
	spt := g.SPTAt(a.Cyl)
	angle := g.SectorAngle(a) + 1.0/float64(spt)
	if angle >= 1 {
		angle--
	}
	m.valid, m.t0, m.angle0, m.s0, m.lastEnd = true, end, angle, a.Sector, end
}

// faulted records a command that failed at end. The head position is unknown
// until a clean command re-establishes the reference: one taken from a
// failed command would poison every later landing prediction.
func (m *headModel) faulted(end sim.Time) {
	m.valid, m.lastEnd = false, end
}

// mediaStart predicts when a write command issued at now reaches the media:
// after the drive's write turnaround from the last command, if there was
// one, plus its write overhead and settle (paper §3.1: prediction requires
// "detailed knowledge of ... the disk controller and disk command processing
// overhead").
func (m *headModel) mediaStart(now sim.Time) sim.Time {
	start := now
	if m.lastEnd > 0 {
		if t := m.lastEnd.Add(m.turnaround); t > start {
			start = t
		}
	}
	return start.Add(m.writeOverhead + m.writeSettle)
}

// score returns the rotational wait of a write of sectors sectors on a
// track of spt sectors that the model predicted would reach the media at
// start and that ended cleanly at end: the command's time on the media less
// its transfer. Slack is that wait in whole sector times, the sectors the
// head still had to pass before the landing sector came under it.
func (m *headModel) score(start, end sim.Time, spt, sectors int) (wait time.Duration, slack int) {
	wait = end.Sub(start) - time.Duration(sectors)*(m.rotPeriod/time.Duration(spt))
	return wait, int(int64(wait) * int64(spt) / int64(m.rotPeriod))
}

// moveCost returns the arm cost of moving from cylinder from to cylinder to:
// a head switch within a cylinder, or a seek across cylinders. The driver
// knows the geometry, so it can predict this exactly (paper §3.1: "knowing
// the number of sectors in the ith track, Trail can calculate the target
// block address ... on track i+1").
func (m *headModel) moveCost(from, to int) time.Duration {
	switch dist := to - from; {
	case dist == 0:
		return m.headSwitch
	case dist == 1 || dist == -1:
		return m.seekT2T
	}
	// Rare (wrap to the start of the disk); approximate with the average.
	return m.seekAvg
}

// recordSector predicts where on track (cyl, head) a record written at now
// should land: the first sector whose start the head can still catch when
// the write reaches the media, plus safetySectors. With fixedDelta > 0 it
// applies the paper's integer formula instead, with no command-overhead
// modelling (the FixedDelta ablation).
func (m *headModel) recordSector(now sim.Time, g *geom.Geometry, cyl, head, fixedDelta int) int {
	if fixedDelta > 0 {
		return m.predictSector(now, g.SPTAt(cyl), fixedDelta)
	}
	return g.ClosestSectorOnTrack(cyl, head, m.angleAt(m.mediaStart(now)), safetySectors)
}

// readSector predicts where on track (cyl, head) a one-sector read issued at
// now, after an arm move costing move, should land: the first sector whose
// start the head can still catch, plus margin sectors. Without a reference
// it is sector 0.
func (m *headModel) readSector(now sim.Time, move time.Duration, g *geom.Geometry, cyl, head, margin int) int {
	if !m.valid {
		return 0
	}
	return g.ClosestSectorOnTrack(cyl, head, m.angleAt(now.Add(m.readOverhead+move)), margin)
}

// turned returns the fraction of a revolution since the last full turn after
// the reference time, at time t (>= the reference time).
func (m *headModel) turned(t sim.Time) float64 {
	return float64(t.Sub(m.t0)%m.rotPeriod) / float64(m.rotPeriod)
}

// angleAt extrapolates the head angle at time t (>= the reference time).
func (m *headModel) angleAt(t sim.Time) float64 {
	if !m.valid {
		panic("trail: angleAt without reference point")
	}
	a := m.angle0 + m.turned(t)
	if a >= 1 {
		a--
	}
	return a
}

// predictSector applies the paper's integer prediction formula directly: on
// a track with the given SPT it returns S1 = elapsedSectors + S0 + delta
// (mod SPT) at time t. recordSector uses it under Config.FixedDelta.
func (m *headModel) predictSector(t sim.Time, spt, delta int) int {
	return (int(m.turned(t)*float64(spt)) + m.s0 + delta) % spt
}
