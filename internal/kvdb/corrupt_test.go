package kvdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/bufcache"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// twoLevels fills tr until its root is an internal node and returns the IDs
// of the root and of its leftmost leaf.
func twoLevels(p *sim.Proc, s *Store, tr *Tree) (root, leaf int64, err error) {
	for i := 0; i < 400; i++ {
		if err := tr.Put(p, key(i), val(i), 60); err != nil {
			return 0, 0, err
		}
	}
	nd, err := s.pin(p, tr.root())
	if err != nil {
		return 0, 0, err
	}
	defer s.unpin(nd)
	if nd.leaf {
		return 0, 0, errors.New("root is still a leaf")
	}
	return tr.root(), nd.link(), nil
}

// TestCheckNamesTheCorruption damages one field of a healthy two-level tree
// at a time, in the cached page, and expects Check to name that damage as an
// ErrCorrupt, then to pass again once the byte is restored.
func TestCheckNamesTheCorruption(t *testing.T) {
	const firstCell = nodeHeader
	cases := []struct {
		name   string
		leaf   bool // damage the leftmost leaf, else the root
		off    int  // byte to change
		to     byte
		expect string
	}{
		{"type byte", true, 0, 9, "node type 9"},
		{"cell count", true, 2, 0x40, "keys out of order"}, // zeroes past the cells read as empty keys
		{"leaf key length", true, firstCell + 1, 0x20, "runs past the page"},
		{"leaf value length", true, firstCell + 3, 0x20, "runs past the page"},
		{"leaf logical below value", true, firstCell + 4, 1, "runs past the page"},
		{"leaf logical size", true, firstCell + 5, 0x20, "overfull"},
		{"leaf key above separator", true, firstCell + leafEntryOverhead, 'z', "not below separator"},
		{"leaf key order", true, firstCell + leafEntryOverhead + 11, '9', "keys out of order"},
		{"internal key length", false, firstCell + 1, 0x20, "runs past the page"},
		{"internal cell count", false, 2, 0x02, "keys out of order"},
		{"internal separator", false, firstCell + 2, 'a', "below separator"},
		{"child pointer", false, 3 + 6, 0x7f, "pointer outside the store"},
		{"child cycle", false, 3, 0, "pointer outside the store"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, s := instantStore(t, 64)
			defer env.Close()
			runErr(t, env, func(p *sim.Proc) error {
				tr, err := s.CreateTree(p)
				if err != nil {
					return err
				}
				root, leaf, err := twoLevels(p, s, tr)
				if err != nil {
					return err
				}
				if err := tr.Check(p); err != nil {
					return err
				}
				id := root
				if tc.leaf {
					id = leaf
				}
				pg, err := s.Cache().Get(p, id)
				if err != nil {
					return err
				}
				defer s.Cache().Release(pg)
				was := pg.Data[tc.off]
				pg.Data[tc.off] = tc.to
				err = tr.Check(p)
				if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.expect) {
					t.Errorf("Check = %v, want an ErrCorrupt holding %q", err, tc.expect)
				}
				pg.Data[tc.off] = was
				return tr.Check(p)
			})
		})
	}
}

// lastCellDamaged returns a copy of a node's page whose last cell claims a
// key that runs past the page.
func lastCellDamaged(page []byte) []byte {
	d := bytes.Clone(page)
	off := nodeHeader
	for i := 1; i < int(binary.LittleEndian.Uint16(d[1:])); i++ {
		_, _, _, off, _ = cell(d, d[0] == leafType, off)
	}
	binary.LittleEndian.PutUint16(d[off:], 0xffff)
	return d
}

// getThroughMalformedLastCell damages the last cell of the root or of the
// leftmost leaf of a two-level store on its device, reopens the store, and
// expects a Get of its first key, whose cell lies far before the damage, to
// return an ErrCorrupt naming the cell that runs past the page.
func getThroughMalformedLastCell(t *testing.T, leaf bool) {
	env, s := instantStore(t, 64)
	defer env.Close()
	runErr(t, env, func(p *sim.Proc) error {
		tr, err := s.CreateTree(p)
		if err != nil {
			return err
		}
		id, leftmost, err := twoLevels(p, s, tr)
		if err == nil {
			err = s.Cache().FlushAll(p)
		}
		if leaf {
			id = leftmost
		}
		if err != nil {
			return err
		}
		page, err := s.Device().Read(p, id*bufcache.PageSectors, bufcache.PageSectors)
		if err == nil {
			err = s.Device().Write(p, id*bufcache.PageSectors, bufcache.PageSectors, lastCellDamaged(page))
		}
		if err != nil {
			return err
		}
		reopened, err := Open(p, s.Device(), 64)
		if err != nil {
			return err
		}
		if tr, err = reopened.Tree(0); err != nil {
			return err
		}
		if _, err := tr.Get(p, key(0)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "runs past the page") {
			t.Errorf("Get = %v, want an ErrCorrupt naming the cell that runs past the page", err)
		}
		return nil
	})
}

// TestGetThroughMalformedLastCell: the root's offset table is built by
// walking every cell, so the Get fails although its descent stops at the
// first separator.
func TestGetThroughMalformedLastCell(t *testing.T) { getThroughMalformedLastCell(t, false) }

// TestGetThroughMalformedLastLeafCell: a leaf is sought over an offset table
// built by the same walk, so the Get fails although the key's cell is whole.
func TestGetThroughMalformedLastLeafCell(t *testing.T) { getThroughMalformedLastCell(t, true) }

func TestOpenRejectsCorruptMeta(t *testing.T) {
	for name, damage := range map[string]func(meta []byte){
		"negative page count": func(m []byte) { m[7] = 0x80 },
		"pages past the device": func(m []byte) {
			binary.LittleEndian.PutUint64(m, 1<<40)
		},
		"too many trees":       func(m []byte) { m[8] = maxTrees + 1 },
		"root past allocation": func(m []byte) { m[10] = 200 },
		"root on the meta page": func(m []byte) {
			binary.LittleEndian.PutUint64(m[10:], 0)
		},
	} {
		t.Run(name, func(t *testing.T) {
			env, s := instantStore(t, 16)
			defer env.Close()
			runErr(t, env, func(p *sim.Proc) error {
				if _, err := s.CreateTree(p); err != nil {
					return err
				}
				if err := s.Cache().FlushAll(p); err != nil {
					return err
				}
				meta, err := s.Device().Read(p, 0, bufcache.PageSectors)
				if err != nil {
					return err
				}
				damage(meta)
				if err := s.Device().Write(p, 0, bufcache.PageSectors, meta); err != nil {
					return err
				}
				if _, err := Open(p, s.Device(), 16); !errors.Is(err, ErrCorrupt) {
					t.Errorf("Open = %v, want ErrCorrupt", err)
				}
				return nil
			})
		})
	}
}

// fuzzPages is the size of the device FuzzPageOps works on: small, so that
// no page count a hostile meta page claims makes a bounded walk long.
const fuzzPages = 256

func fuzzDevice(env *sim.Env) blockdev.Device {
	d := disk.New(env, disk.Params{
		Name: "fuzz", RPM: 7200, Geom: geom.Uniform(fuzzPages/4, 2, 16),
		SeekT2T: time.Millisecond, SeekAvg: time.Millisecond, SeekMax: time.Millisecond,
	})
	return disk.NewInstantDev(d, blockdev.DevID{Major: 3})
}

// FuzzPageOps installs an arbitrary image over one page of a healthy
// two-level store and runs every operation: each returns a value or one of
// the package's sentinels (or the device's, when a hostile allocator runs
// off its end), and none panics or walks for longer than the store has
// pages.
func FuzzPageOps(f *testing.F) {
	env := sim.NewEnv()
	dev := fuzzDevice(env)
	var healthy []byte
	var root, leaf int64
	run(env, func(p *sim.Proc) {
		s, err := Open(p, dev, 64)
		if err != nil {
			panic(err)
		}
		tr, err := s.CreateTree(p)
		if err != nil {
			panic(err)
		}
		if root, leaf, err = twoLevels(p, s, tr); err != nil {
			panic(err)
		}
		if err := s.Cache().FlushAll(p); err != nil {
			panic(err)
		}
		if healthy, err = dev.Read(p, 0, int(s.nextPage)*bufcache.PageSectors); err != nil {
			panic(err)
		}
	})
	env.Close()
	pages := len(healthy) / bufcache.PageSize

	// Seeds: the meta page, the root and the leftmost leaf, as they are and
	// with one byte of the header or the first cell changed, and the root and
	// the leaf with their last cells malformed.
	for _, at := range []int64{0, root, leaf} {
		page := healthy[at*bufcache.PageSize:][:bufcache.PageSize]
		f.Add(uint8(at), page)
		for _, off := range []int{0, 1, 3, 8, 10, nodeHeader, nodeHeader + 2, nodeHeader + 4} {
			damaged := append([]byte(nil), page...)
			damaged[off] ^= 0x41
			f.Add(uint8(at), damaged)
		}
	}
	for _, at := range []int64{root, leaf} {
		f.Add(uint8(at), lastCellDamaged(healthy[at*bufcache.PageSize:][:bufcache.PageSize]))
	}

	f.Fuzz(func(t *testing.T, at uint8, image []byte) {
		store := append([]byte(nil), healthy...)
		page := store[int(at)%pages*bufcache.PageSize:][:bufcache.PageSize]
		clear(page[copy(page, image):])

		env := sim.NewEnv()
		defer env.Close()
		dev := fuzzDevice(env)
		sentinel := func(op string, err error) {
			for _, ok := range []error{nil, ErrCorrupt, ErrNotFound, blockdev.ErrOutOfRange} {
				if errors.Is(err, ok) {
					return
				}
			}
			t.Errorf("%s: %v is none of the sentinels", op, err)
		}
		run(env, func(p *sim.Proc) {
			if err := dev.Write(p, 0, len(store)/geom.SectorSize, store); err != nil {
				panic(err)
			}
			s, err := Open(p, dev, 8)
			if sentinel("Open", err); err != nil {
				return
			}
			for i := 0; i < s.NumTrees() && i < 3; i++ {
				tr, err := s.Tree(i)
				if err != nil {
					panic(err)
				}
				sentinel("Check", tr.Check(p))
				_, err = tr.Get(p, key(200))
				sentinel("Get", err)
				visited := 0
				sentinel("Scan", tr.Scan(p, key(100), func(k, v []byte) bool {
					visited++
					return visited < 2000
				}))
				for j := 0; j < 40; j++ {
					sentinel("Put", tr.Put(p, key(j*11), val(j), 300))
				}
				sentinel("Delete", tr.Delete(p, key(200)))
				_, err = tr.Get(p, key(11))
				sentinel("Get after Put", err)
			}
			sentinel("FlushAll", s.Cache().FlushAll(p))
		})
	})
}
