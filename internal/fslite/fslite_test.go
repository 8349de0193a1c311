package fslite

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
	"tracklog/internal/trail"
)

// newDev returns a fresh, unformatted standard device.
func newDev() (*sim.Env, blockdev.Device) {
	env := sim.NewEnv()
	d := disk.New(env, disk.Params{
		Name:            "fs",
		RPM:             7200,
		Geom:            geom.Uniform(500, 4, 120),
		SeekT2T:         time.Millisecond,
		SeekAvg:         6 * time.Millisecond,
		SeekMax:         12 * time.Millisecond,
		HeadSwitch:      500 * time.Microsecond,
		ReadOverhead:    300 * time.Microsecond,
		WriteOverhead:   600 * time.Microsecond,
		WriteSettle:     100 * time.Microsecond,
		WriteTurnaround: time.Millisecond,
	})
	return env, stddisk.New(env, d, blockdev.DevID{Major: 3}, sched.LOOK)
}

// mkfs formats dev.
func mkfs(t *testing.T, env *sim.Env, dev blockdev.Device) *FS {
	t.Helper()
	var fs *FS
	run(env, func(p *sim.Proc) {
		var err error
		fs, err = Mkfs(p, dev)
		if err != nil {
			t.Fatal(err)
		}
	})
	return fs
}

// newFS formats a file system on a fresh standard device.
func newFS(t *testing.T) (*sim.Env, *FS) {
	t.Helper()
	env, dev := newDev()
	return env, mkfs(t, env, dev)
}

func run(env *sim.Env, fn func(p *sim.Proc)) {
	env.Go("t", fn)
	env.Run()
}

func TestCreateWriteReadBack(t *testing.T) {
	env, fs := newFS(t)
	defer env.Close()
	want := bytes.Repeat([]byte{0xAD}, 3*BlockSize+100)
	run(env, func(p *sim.Proc) {
		f, err := fs.Create(p, "data.bin")
		if err != nil {
			t.Fatal(err)
		}
		if err := f.WriteAt(p, 0, want); err != nil {
			t.Fatal(err)
		}
		got, err := f.ReadAt(p, 0, int64(len(want))+500)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Error("read-back mismatch")
		}
		size, _ := f.Size(p)
		if size != int64(len(want)) {
			t.Errorf("size = %d", size)
		}
	})
}

func TestMountFindsExistingFiles(t *testing.T) {
	env, dev := newDev()
	defer env.Close()
	fs := mkfs(t, env, dev)
	run(env, func(p *sim.Proc) {
		f, err := fs.Create(p, "persist")
		if err != nil {
			t.Fatal(err)
		}
		if err := f.WriteAt(p, 0, []byte("hello")); err != nil {
			t.Fatal(err)
		}
		// Remount from the device: a cold FS instance must see the file.
		fs2, err := Mount(p, dev)
		if err != nil {
			t.Fatal(err)
		}
		f2, err := fs2.Open(p, "persist")
		if err != nil {
			t.Fatal(err)
		}
		got, err := f2.ReadAt(p, 0, 5)
		if err != nil || string(got) != "hello" {
			t.Errorf("after remount: %q %v", got, err)
		}
	})
}

func TestMountRejectsBlank(t *testing.T) {
	env, blank := newDev()
	defer env.Close()
	run(env, func(p *sim.Proc) {
		if _, err := Mount(p, blank); !errors.Is(err, ErrNotFormatted) {
			t.Errorf("mount of blank: %v", err)
		}
	})
}

func TestDirectoryOperations(t *testing.T) {
	env, fs := newFS(t)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		inos := map[int64]string{}
		for i := 0; i < 10; i++ {
			name := fmt.Sprintf("f%02d", i)
			if _, err := fs.Create(p, name); err != nil {
				t.Fatal(err)
			}
			ino, err := fs.Lookup(p, name)
			if err != nil {
				t.Fatalf("lookup %s: %v", name, err)
			}
			if prev, dup := inos[ino]; dup {
				t.Fatalf("%s and %s share inode %d", prev, name, ino)
			}
			inos[ino] = name
		}
		if _, err := fs.Create(p, "f03"); !errors.Is(err, ErrExists) {
			t.Errorf("duplicate create: %v", err)
		}
		if _, err := fs.Open(p, "f10"); !errors.Is(err, ErrNotFound) {
			t.Errorf("open missing: %v", err)
		}
	})
}

func TestIndirectBlocks(t *testing.T) {
	env, fs := newFS(t)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		f, _ := fs.Create(p, "deep")
		// Write a block beyond the direct range.
		off := int64((directs + 5) * BlockSize)
		want := bytes.Repeat([]byte{0x3F}, BlockSize)
		if err := f.WriteAt(p, off, want); err != nil {
			t.Fatal(err)
		}
		got, err := f.ReadAt(p, off, BlockSize)
		if err != nil || !bytes.Equal(got, want) {
			t.Error("indirect block round trip failed")
		}
		// The hole before it reads as zeroes.
		hole, err := f.ReadAt(p, BlockSize, BlockSize)
		if err != nil || !bytes.Equal(hole, make([]byte, BlockSize)) {
			t.Error("hole not zero")
		}
	})
}

func TestTooBigRejected(t *testing.T) {
	env, fs := newFS(t)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		f, _ := fs.Create(p, "huge")
		if err := f.WriteAt(p, MaxFileSize-10, make([]byte, 20)); !errors.Is(err, ErrTooBig) {
			t.Errorf("oversize write: %v", err)
		}
	})
}

func TestBadNames(t *testing.T) {
	env, fs := newFS(t)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		if _, err := fs.Create(p, ""); !errors.Is(err, ErrBadName) {
			t.Errorf("empty name: %v", err)
		}
		long := bytes.Repeat([]byte{'x'}, MaxNameLen+1)
		if _, err := fs.Create(p, string(long)); !errors.Is(err, ErrBadName) {
			t.Errorf("long name: %v", err)
		}
	})
}

func TestSyncWritesCountMetadata(t *testing.T) {
	env, fs := newFS(t)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		f, err := fs.Create(p, "log")
		if err != nil {
			t.Fatal(err)
		}
		before := fs.Stats()
		// Appending grows the file: each O_SYNC append pays data + inode
		// (+ bitmap on block allocation).
		for i := 0; i < 4; i++ {
			if err := f.Append(p, make([]byte, BlockSize)); err != nil {
				t.Fatal(err)
			}
		}
		after := fs.Stats()
		if after.DataWrites-before.DataWrites != 4 {
			t.Errorf("data writes = %d", after.DataWrites-before.DataWrites)
		}
		if after.MetaWrites-before.MetaWrites < 8 {
			t.Errorf("meta writes = %d, want >= 8 (inode + bitmap per append)",
				after.MetaWrites-before.MetaWrites)
		}
	})
}

// readCounter counts the reads that reach a device.
type readCounter struct {
	blockdev.Device
	reads int
}

func (d *readCounter) Read(p *sim.Proc, lba int64, count int) ([]byte, error) {
	d.reads++
	return d.Device.Read(p, lba, count)
}

// TestCachedBlocksAreNotReadAgain holds every O_SYNC operation to writes: a
// block the cache holds, be it the inode, bitmap, indirect, directory or a
// data block, is edited in place and written, never read first.
func TestCachedBlocksAreNotReadAgain(t *testing.T) {
	env, raw := newDev()
	defer env.Close()
	dev := &readCounter{Device: raw}
	fs := mkfs(t, env, dev)
	run(env, func(p *sim.Proc) {
		f, err := fs.Create(p, "log")
		if err != nil {
			t.Fatal(err)
		}
		dev.reads = 0
		before := fs.Stats()
		// 20 appends cross from the 12 direct blocks into the indirect one.
		for i := 0; i < 20; i++ {
			if err := f.Append(p, make([]byte, BlockSize)); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.WriteAt(p, 5*BlockSize+100, []byte("partial")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := fs.Lookup(p, "log"); err != nil {
				t.Fatal(err)
			}
		}
		if dev.reads != 0 {
			t.Errorf("device reads = %d, want 0", dev.reads)
		}
		// One data write per block written. Metadata: inode and bitmap per
		// direct append; inode, bitmap and indirect per indirect append, the
		// bitmap once although the first of them allocates twice; the inode
		// alone for the partial write.
		after := fs.Stats()
		if got := after.DataWrites - before.DataWrites; got != 21 {
			t.Errorf("data writes = %d, want 21", got)
		}
		if got := after.MetaWrites - before.MetaWrites; got != 12*2+8*3+1 {
			t.Errorf("meta writes = %d, want %d", got, 12*2+8*3+1)
		}
	})
}

// TestSyncAppendFasterOnTrail is the paper's generality argument: an O_SYNC
// append pays data + metadata synchronous writes, and Trail accelerates all
// of them transparently.
func TestSyncAppendFasterOnTrail(t *testing.T) {
	appendCost := func(useTrail bool) time.Duration {
		env := sim.NewEnv()
		defer env.Close()
		var dev blockdev.Device
		if useTrail {
			lg := disk.New(env, disk.ST41601N())
			if err := trail.Format(lg); err != nil {
				t.Fatal(err)
			}
			dd := disk.New(env, disk.WDCaviar())
			drv, err := trail.NewDriver(env, lg, []*disk.Disk{dd}, trail.Config{})
			if err != nil {
				t.Fatal(err)
			}
			dev = drv.Dev(0)
		} else {
			dd := disk.New(env, disk.WDCaviar())
			dev = stddisk.New(env, dd, blockdev.DevID{Major: 3}, sched.LOOK)
		}
		var total time.Duration
		env.Go("bench", func(p *sim.Proc) {
			fs, err := Mkfs(p, dev)
			if err != nil {
				t.Fatal(err)
			}
			f, err := fs.Create(p, "applog")
			if err != nil {
				t.Fatal(err)
			}
			start := p.Now()
			for i := 0; i < 10; i++ {
				if err := f.Append(p, make([]byte, BlockSize)); err != nil {
					t.Fatal(err)
				}
			}
			total = p.Now().Sub(start)
		})
		env.Run()
		return total
	}
	std := appendCost(false)
	tr := appendCost(true)
	if tr*2 > std {
		t.Errorf("O_SYNC appends: trail %v vs standard %v, want >= 2x win", tr, std)
	}
}

func TestFileDeviceRoundTrip(t *testing.T) {
	env, fs := newFS(t)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		f, err := fs.Create(p, "blockfile")
		if err != nil {
			t.Fatal(err)
		}
		dev := NewFileDevice(f, blockdev.DevID{Major: 7})
		want := bytes.Repeat([]byte{0x4E}, 3*geom.SectorSize)
		if err := dev.Write(p, 10, 3, want); err != nil {
			t.Fatal(err)
		}
		got, err := dev.Read(p, 10, 3)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("round trip: %v", err)
		}
		// Holes read as zeroes.
		hole, err := dev.Read(p, 100, 1)
		if err != nil || !bytes.Equal(hole, make([]byte, geom.SectorSize)) {
			t.Errorf("hole: %v", err)
		}
		// Range checks.
		if err := dev.Write(p, FileDeviceSectors, 1, make([]byte, geom.SectorSize)); err == nil {
			t.Error("write past device end accepted")
		}
	})
}
