package experiments

import (
	"fmt"
	"strings"
	"time"

	"tracklog/internal/fslite"
	"tracklog/internal/rig"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
)

// FSMetaRow is one storage system's O_SYNC file-append cost.
type FSMetaRow struct {
	System     string
	MeanAppend time.Duration
	DataWrites int64
	MetaWrites int64
}

// FSMetaResult reproduces the paper's §2 generality argument: an O_SYNC
// append pays synchronous data AND metadata writes (inode, bitmap, indirect
// block); metadata journaling helps only the latter, while Trail
// transparently accelerates every block.
type FSMetaResult struct {
	Rows []FSMetaRow
}

// FSMetadata measures synchronous file appends through the EXT2-like file
// system on the standard subsystem and on Trail.
func FSMetadata(appends int, seed uint64) (*FSMetaResult, error) {
	res := &FSMetaResult{}
	for _, useTrail := range []bool{false, true} {
		name, cfg := "standard", rig.Config{Baseline: sched.LOOK}
		if useTrail {
			name, cfg = "trail", rig.Config{}
		}
		sys, err := rig.New(cfg)
		if err != nil {
			return nil, err
		}
		env, dev := sys.Env, sys.Dev(0)
		var row FSMetaRow
		row.System = name
		var ferr error
		env.Go("bench", func(p *sim.Proc) {
			fs, err := fslite.Mkfs(p, dev)
			if err != nil {
				ferr = err
				return
			}
			f, err := fs.Create(p, "applog")
			if err != nil {
				ferr = err
				return
			}
			f.Sync = true
			before := fs.Stats()
			start := p.Now()
			for i := 0; i < appends; i++ {
				if err := f.Append(p, make([]byte, fslite.BlockSize)); err != nil {
					ferr = err
					return
				}
			}
			row.MeanAppend = p.Now().Sub(start) / time.Duration(appends)
			after := fs.Stats()
			row.DataWrites = after.DataWrites - before.DataWrites
			row.MetaWrites = after.MetaWrites - before.MetaWrites
		})
		env.Run()
		env.Close()
		if ferr != nil {
			return nil, fmt.Errorf("fsmeta %s: %w", name, ferr)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the comparison.
func (r *FSMetaResult) String() string {
	var b strings.Builder
	b.WriteString("Section 2: O_SYNC file appends (data + metadata sync writes)\n")
	fmt.Fprintf(&b, "%-10s %14s %12s %12s\n", "system", "mean append", "data writes", "meta writes")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %11s ms %12d %12d\n", row.System, fmtMS(row.MeanAppend), row.DataWrites, row.MetaWrites)
	}
	b.WriteString("(Trail accelerates metadata and data writes alike; metadata journaling\n would help only the metadata share, and a raw-device database not at all)\n")
	return b.String()
}
