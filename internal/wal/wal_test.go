package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
)

func newRig(t *testing.T, cfgMut func(*Config)) (*sim.Env, *Log, *disk.Disk) {
	t.Helper()
	env := sim.NewEnv()
	d := disk.New(env, disk.Params{
		Name:            "logdisk",
		RPM:             6000,
		Geom:            geom.Uniform(200, 2, 60),
		SeekT2T:         time.Millisecond,
		SeekAvg:         5 * time.Millisecond,
		SeekMax:         10 * time.Millisecond,
		HeadSwitch:      500 * time.Microsecond,
		ReadOverhead:    300 * time.Microsecond,
		WriteOverhead:   600 * time.Microsecond,
		WriteSettle:     100 * time.Microsecond,
		WriteTurnaround: time.Millisecond,
	})
	dev := stddisk.New(env, d, blockdev.DevID{Major: 3}, sched.LOOK)
	cfg := Config{Dev: dev, Sectors: 10000, Mode: SyncEveryCommit, BufferBytes: 50 * 1024}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	l, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env, l, d
}

func run(env *sim.Env, fn func(p *sim.Proc)) {
	env.Go("test", fn)
	env.Run()
}

func TestSyncCommitFlushesEveryTime(t *testing.T) {
	env, l, _ := newRig(t, nil)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			lsn, err := l.Append(p, make([]byte, 200))
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(p, lsn); err != nil {
				t.Fatal(err)
			}
			if l.DurableLSN() < lsn {
				t.Fatal("commit returned before durability")
			}
		}
	})
	if got := l.Stats().Flushes; got != 5 {
		t.Errorf("flushes = %d, want 5", got)
	}
	if l.Stats().IOTime == 0 {
		t.Error("no log I/O time recorded")
	}
}

func TestGroupCommitBatchesFlushes(t *testing.T) {
	env, l, _ := newRig(t, func(c *Config) {
		c.Mode = GroupCommit
		c.BufferBytes = 4096
	})
	defer env.Close()
	run(env, func(p *sim.Proc) {
		// 30 records x 400 bytes = 12 KB: roughly 3 forced flushes at a
		// 4 KB threshold; commits themselves do not flush.
		for i := 0; i < 30; i++ {
			lsn, err := l.Append(p, make([]byte, 400))
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(p, lsn); err != nil {
				t.Fatal(err)
			}
		}
	})
	got := l.Stats().Flushes
	if got < 2 || got > 4 {
		t.Errorf("flushes = %d, want ~3", got)
	}
	if l.BufferedBytes() == 0 {
		t.Error("expected a residual unflushed tail")
	}
}

func TestGroupCommitCountScalesInversely(t *testing.T) {
	// Table 3's shape: flush count inversely proportional to buffer size.
	flushesAt := func(bufKB int) int64 {
		env, l, _ := newRig(t, func(c *Config) {
			c.Mode = GroupCommit
			c.BufferBytes = bufKB * 1024
		})
		defer env.Close()
		run(env, func(p *sim.Proc) {
			for i := 0; i < 200; i++ {
				if _, err := l.Append(p, make([]byte, 450)); err != nil {
					t.Fatal(err)
				}
			}
		})
		return l.Stats().Flushes
	}
	small, large := flushesAt(4), flushesAt(32)
	if small <= large*4 {
		t.Errorf("flushes: 4KB=%d, 32KB=%d; want ~8x ratio", small, large)
	}
}

func TestMetadataWritesDoubleIO(t *testing.T) {
	ioTime := func(meta bool) (time.Duration, int64) {
		env, l, d := newRig(t, func(c *Config) { c.MetadataWrites = meta })
		defer env.Close()
		run(env, func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				lsn, _ := l.Append(p, make([]byte, 300))
				if err := l.Commit(p, lsn); err != nil {
					t.Fatal(err)
				}
			}
		})
		return l.Stats().IOTime, d.Stats().Writes
	}
	plainTime, plainWrites := ioTime(false)
	metaTime, metaWrites := ioTime(true)
	if metaWrites != 2*plainWrites {
		t.Errorf("writes: meta=%d plain=%d, want 2x", metaWrites, plainWrites)
	}
	if metaTime <= plainTime {
		t.Errorf("metadata mode I/O %v <= plain %v", metaTime, plainTime)
	}
}

func TestWaitDurable(t *testing.T) {
	env, l, _ := newRig(t, func(c *Config) {
		c.Mode = GroupCommit
		c.BufferBytes = 1 << 20
	})
	defer env.Close()
	var waited bool
	run(env, func(p *sim.Proc) {
		lsn, _ := l.Append(p, make([]byte, 100))
		env.Go("waiter", func(w *sim.Proc) {
			l.WaitDurable(w, lsn)
			waited = true
		})
		p.Sleep(time.Millisecond)
		if waited {
			t.Error("WaitDurable returned before flush")
		}
		if err := l.Flush(p); err != nil {
			t.Fatal(err)
		}
	})
	if !waited {
		t.Error("WaitDurable never returned")
	}
}

func TestLogFull(t *testing.T) {
	env, l, _ := newRig(t, func(c *Config) { c.Sectors = 3 })
	defer env.Close()
	run(env, func(p *sim.Proc) {
		lsn, err := l.Append(p, make([]byte, 600))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(p, lsn); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(p, make([]byte, 600)); err == nil {
			if err = l.Flush(p); !errors.Is(err, ErrLogFull) {
				t.Errorf("overfull log: %v", err)
			}
		}
	})
}

func TestFlushEmptyBufferNoop(t *testing.T) {
	env, l, d := newRig(t, nil)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		if err := l.Flush(p); err != nil {
			t.Fatal(err)
		}
	})
	if d.Stats().Writes != 0 {
		t.Error("empty flush wrote to disk")
	}
}

func TestConcurrentCommitsCoalesce(t *testing.T) {
	env, l, _ := newRig(t, nil)
	defer env.Close()
	// Several processes committing at the same instant should coalesce
	// into fewer physical flushes than commits.
	for i := 0; i < 4; i++ {
		env.Go("committer", func(p *sim.Proc) {
			lsn, _ := l.Append(p, make([]byte, 100))
			if err := l.Commit(p, lsn); err != nil {
				t.Errorf("commit: %v", err)
			}
			if l.DurableLSN() < lsn {
				t.Error("commit returned before durable")
			}
		})
	}
	env.Run()
	if got := l.Stats().Flushes; got >= 4 {
		t.Errorf("flushes = %d for 4 simultaneous commits, want coalescing", got)
	}
}

func TestReadRecordsRoundTrip(t *testing.T) {
	env, l, d := newRig(t, nil)
	defer env.Close()
	var want [][]byte
	run(env, func(p *sim.Proc) {
		for i := 0; i < 7; i++ {
			rec := bytes.Repeat([]byte{byte(i + 1)}, 100+i*37)
			want = append(want, rec)
			lsn, err := l.Append(p, rec)
			if err != nil {
				t.Fatal(err)
			}
			// Alternate per-record and batched flushes.
			if i%2 == 0 {
				if err := l.Commit(p, lsn); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := l.Flush(p); err != nil {
			t.Fatal(err)
		}
	})
	env.Go("read", func(p *sim.Proc) {
		dev := stddisk.New(env, d, blockdev.DevID{Major: 3}, sched.LOOK)
		got, err := ReadRecords(p, dev, 10000)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("read %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("record %d differs", i)
			}
		}
	})
	env.Run()
}

func TestReadRecordsEmptyLog(t *testing.T) {
	env, _, d := newRig(t, nil)
	defer env.Close()
	env.Go("read", func(p *sim.Proc) {
		dev := stddisk.New(env, d, blockdev.DevID{Major: 3}, sched.LOOK)
		got, err := ReadRecords(p, dev, 10000)
		if err != nil || len(got) != 0 {
			t.Errorf("empty log: %d records, %v", len(got), err)
		}
	})
	env.Run()
}

func TestReadRecordsIgnoresTornTail(t *testing.T) {
	env, l, d := newRig(t, nil)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		lsn, _ := l.Append(p, bytes.Repeat([]byte{0xAA}, 200))
		if err := l.Commit(p, lsn); err != nil {
			t.Fatal(err)
		}
	})
	// Corrupt a fake partial segment after the valid one: a magic header
	// claiming more bytes than the region holds.
	hdr := make([]byte, geom.SectorSize)
	binary.LittleEndian.PutUint32(hdr, segMagic)
	binary.LittleEndian.PutUint32(hdr[4:], 1<<30)
	d.MediaWrite(2, hdr)
	env.Go("read", func(p *sim.Proc) {
		dev := stddisk.New(env, d, blockdev.DevID{Major: 3}, sched.LOOK)
		got, err := ReadRecords(p, dev, 10000)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Errorf("got %d records, want 1 (torn tail ignored)", len(got))
		}
	})
	env.Run()
}
