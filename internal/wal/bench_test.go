package wal

import (
	"testing"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/sim"
)

// The write-ahead log's rung of the per-layer benchmark ladder (ROADMAP):
// host cost of appending one 120-byte record and forcing it, on a device
// that takes no virtual time — framing, padding and the media store, the
// shape of the benchmark's wal.append_commit probe. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/wal

func BenchmarkAppendCommit(b *testing.B) {
	env := sim.NewEnv()
	defer env.Close()
	dev := disk.NewInstantDev(disk.New(env, disk.WDCaviar()), blockdev.DevID{Major: 3})
	l, err := New(env, Config{Dev: dev, Sectors: dev.Sectors(), Mode: SyncEveryCommit})
	if err != nil {
		b.Fatal(err)
	}
	rec := make([]byte, 120)
	env.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			lsn, err := l.Append(p, rec)
			if err == nil {
				err = l.Commit(p, lsn)
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}
