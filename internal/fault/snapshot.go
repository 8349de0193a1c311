package fault

import (
	"fmt"

	"tracklog/internal/snapshot"
)

const planSnapKind = "fault.Plan"

// walk is the plan's snapshot format: the device size it was sampled for,
// the (defaulted) config, the sampled latent errors with their repair status,
// the not-yet-fired timeout ordinals, the growing-defect origin, the command
// counter, and the trigger stats.
func (p *Plan) walk(c *snapshot.Codec) {
	sectors := p.sectors
	snapshot.I64(c, &sectors)
	if sectors != p.sectors {
		c.Fail(fmt.Errorf("%w: snapshot for a %d-sector device, plan covers %d",
			snapshot.ErrMismatch, sectors, p.sectors))
	}

	c.Int(&p.cfg.LatentReadErrors)
	c.Int(&p.cfg.LatentWriteErrors)
	snapshot.I64(c, &p.cfg.LatentOnsetWindow)
	c.Int(&p.cfg.Timeouts)
	c.Int(&p.cfg.TimeoutWindow)
	snapshot.I64(c, &p.cfg.TimeoutDelay)
	c.Int(&p.cfg.GrowingRegion)
	snapshot.I64(c, &p.cfg.GrowthInterval)
	snapshot.I64(c, &p.cfg.FailAt)
	snapshot.I64(c, &p.cfg.MaxLBA)

	snapshot.SortedMap(c, &p.latents, func(c *snapshot.Codec, lba int64, l **latent) {
		if c.Decoding() {
			*l = &latent{lba: lba}
			if lba >= p.sectors {
				c.Fail(fmt.Errorf("%w: latent error at sector %d of %d", snapshot.ErrCorrupt, lba, p.sectors))
			}
		}
		snapshot.I64(c, &(*l).onset)
		c.Bool(&(*l).write)
		c.Bool(&(*l).repaired)
	})
	// Timeouts are sampled from command ordinals 1..TimeoutWindow.
	snapshot.SortedMap(c, &p.timeouts, func(c *snapshot.Codec, ord int64, pending *bool) {
		*pending = true
		if ord < 1 || ord > int64(p.cfg.TimeoutWindow) {
			c.Fail(fmt.Errorf("%w: timeout at command %d of a %d-command window",
				snapshot.ErrCorrupt, ord, p.cfg.TimeoutWindow))
		}
	})

	snapshot.I64(c, &p.growLBA)
	snapshot.I64(c, &p.cmds)

	snapshot.I64(c, &p.stats.Commands)
	snapshot.I64(c, &p.stats.MediaErrors)
	snapshot.I64(c, &p.stats.GrowthErrors)
	snapshot.I64(c, &p.stats.Timeouts)
	snapshot.I64(c, &p.stats.DeviceRejects)
	snapshot.I64(c, &p.stats.Repaired)
}

// Snapshot encodes the plan's full scenario state (see walk). Maps are
// rendered in sorted key order, so two plans in the same state snapshot
// identically.
func (p *Plan) Snapshot() []byte { return snapshot.Encode(planSnapKind, 1, p.walk) }

// Restore adopts a state produced by Snapshot on a plan for a device of the
// same size. The walk decodes into a copy of the plan with maps of its own,
// so the restored plan shares nothing with the snapshot's source.
func (p *Plan) Restore(data []byte) error {
	s := *p
	if err := snapshot.Decode(data, planSnapKind, 1, s.walk); err != nil {
		return err
	}
	*p = s
	return nil
}
