package experiments

import (
	"fmt"
	"strings"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/fslite"
	"tracklog/internal/rig"
	"tracklog/internal/sim"
	"tracklog/internal/telemetry"
	"tracklog/internal/wal"
)

// DirectLogRow is one configuration of the §6 direct-logging comparison.
type DirectLogRow struct {
	Path       string
	MeanCommit time.Duration
	Flushes    int64
}

// DirectLogResult compares database logging directly on a raw Trail device
// against logging through a file in the file system — the paper's §6
// ongoing work ("applying track-based logging directly to database logging
// rather than indirectly through the file system").
type DirectLogResult struct {
	Rows []DirectLogRow
}

// DirectLogging commits `commits` transactions' worth of log records (~2 KB
// each) through both paths on identical Trail hardware.
func DirectLogging(commits int, seed uint64) (*DirectLogResult, error) {
	res := &DirectLogResult{}
	for _, direct := range []bool{true, false} {
		sys, err := rig.New(rig.Config{})
		if err != nil {
			return nil, err
		}
		env := sys.Env

		name := "raw trail device (direct)"
		lat := telemetry.NewSummary()
		var flushes int64
		var ferr error
		env.Go("bench", func(p *sim.Proc) {
			dev := sys.Dev(0)
			if !direct {
				name = "file system file (indirect)"
				fs, err := fslite.Mkfs(p, dev)
				if err != nil {
					ferr = err
					return
				}
				f, err := fs.Create(p, "dblog")
				if err != nil {
					ferr = err
					return
				}
				dev, err = fslite.NewFileDevice(f, blockdev.DevID{Major: 7}, 2048)
				if err != nil {
					ferr = err
					return
				}
			}
			l, err := wal.New(env, wal.Config{Dev: dev, Sectors: dev.Sectors(), Mode: wal.SyncEveryCommit})
			if err != nil {
				ferr = err
				return
			}
			rec := make([]byte, 2048)
			for i := 0; i < commits; i++ {
				start := p.Now()
				lsn, err := l.Append(p, rec)
				if err != nil {
					ferr = err
					return
				}
				if err := l.Commit(p, lsn); err != nil {
					ferr = err
					return
				}
				lat.Add(p.Now().Sub(start))
				p.Sleep(3 * time.Millisecond)
			}
			flushes = l.Stats().Flushes
		})
		env.Run()
		env.Close()
		if ferr != nil {
			return nil, fmt.Errorf("directlog (%s): %w", name, ferr)
		}
		res.Rows = append(res.Rows, DirectLogRow{Path: name, MeanCommit: lat.Mean(), Flushes: flushes})
	}
	return res, nil
}

// String renders the comparison.
func (r *DirectLogResult) String() string {
	var b strings.Builder
	b.WriteString("Extension (section 6): database logging direct vs through the file system\n")
	fmt.Fprintf(&b, "%-28s %14s %9s\n", "path", "mean commit", "flushes")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-28s %11s ms %9d\n", row.Path, fmtMS(row.MeanCommit), row.Flushes)
	}
	b.WriteString("(the file system detour adds inode/bitmap metadata writes per commit)\n")
	return b.String()
}
