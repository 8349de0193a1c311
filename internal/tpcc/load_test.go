package tpcc

import (
	"fmt"
	"testing"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/sim"
)

// loadDigests loads and flushes cfg's database on n fresh drives through
// instant devices and returns each drive's media digest.
func loadDigests(t *testing.T, cfg Config, n int) []string {
	t.Helper()
	env := sim.NewEnv()
	defer env.Close()
	var drives []*disk.Disk
	var devs []blockdev.Device
	for i := range n {
		drives = append(drives, disk.New(env, disk.WDCaviar()))
		devs = append(devs, disk.NewInstantDev(drives[i], blockdev.DevID{Major: 3, Minor: uint8(i)}))
	}
	var err error
	env.Go("load", func(p *sim.Proc) {
		var db *DB
		if db, err = Load(p, cfg, devs); err == nil {
			err = db.FlushAll(p)
		}
	})
	env.Run()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range drives {
		out = append(out, fmt.Sprintf("%016x", d.Digest()))
	}
	return out
}

// TestLoadMedia pins the media a load leaves on each data drive, recorded
// when one world loaded every store in turn: the stores' puts, and so their
// pages, page IDs and bytes, do not depend on where or when each store is
// loaded. loadCfg is the tpcc_trail workload's database, which is also
// Tables 2 and 3's at every sizing but -paper's, at seed 1; the others
// reach a second warehouse, one store holding every table, and a third
// store holding none.
func TestLoadMedia(t *testing.T) {
	twoWarehouses := smallCfg()
	twoWarehouses.Warehouses, twoWarehouses.CachePages, twoWarehouses.Seed = 2, 16, 7
	for _, c := range []struct {
		name   string
		cfg    Config
		drives int
		want   []string
	}{
		{"tpcc_trail", loadCfg, 2, []string{"125aa71662b45095", "98e7850c2dab65ab"}},
		{"two-warehouses", twoWarehouses, 2, []string{"3e444434bfc4b6dd", "4ba7d6032baed229"}},
		{"one-store", smallCfg(), 1, []string{"34cc162041455619"}},
		{"three-stores", smallCfg(), 3, []string{"40c26f58b7fc0512", "ec0e5cedf3594ba9", "b31988d14376d544"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := loadDigests(t, c.cfg, c.drives)
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Errorf("media digests %q, want %q", got, c.want)
			}
		})
	}
}
