package trail

import (
	"fmt"
	"testing"

	"tracklog/internal/blockdev"
	"tracklog/internal/crashexplore"
	"tracklog/internal/disk"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
)

// TestCrashConsistencyProperty is the reproduction's core integrity check:
// cut power at many different instants during a concurrent write workload
// and verify, after recovery, that every ACKNOWLEDGED write survives. The
// workload shape, power cut, and audit are crashexplore.RunSingle's; this
// file supplies the Trail stack from inside the package (the other stacks'
// trials are internal/crashexplore/stacks TestCrashConsistency).
func TestCrashConsistencyProperty(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial-%02d", trial), func(t *testing.T) {
			runCrashTrial(t, uint64(trial))
		})
	}
}

func runCrashTrial(t *testing.T, seed uint64) {
	const (
		slots       = 8
		sectorsPer  = 4
		slotSpacing = 64
	)
	var log, data *disk.Disk
	res, err := crashexplore.RunSingle(crashexplore.Stack{
		Slots: slots,
		Build: func(env *sim.Env) (crashexplore.WriteFunc, error) {
			log = disk.New(env, testLogParams())
			if err := Format(log); err != nil {
				return nil, err
			}
			data = disk.New(env, testDataParams("d"))
			drv, err := NewDriver(env, log, []*disk.Disk{data}, Config{})
			if err != nil {
				return nil, err
			}
			dev := drv.Dev(0)
			return func(p *sim.Proc, slot, version int) error {
				buf := crashexplore.Payload(slot, version, sectorsPer)
				return dev.Write(p, int64(slot*slotSpacing), sectorsPer, buf)
			}, nil
		},
		Recover: func(env2 *sim.Env) (crashexplore.ReadFunc, error) {
			log.Reattach(env2)
			data.Reattach(env2)
			id := blockdev.DevID{Major: 8, Minor: 0}
			devs := map[blockdev.DevID]blockdev.Device{id: stddisk.New(env2, data, id, sched.FIFO)}
			var rerr error
			env2.Go("recover", func(p *sim.Proc) {
				_, rerr = Recover(p, log, devs, RecoverOptions{})
			})
			env2.Run()
			if rerr != nil {
				return nil, rerr
			}
			// Audit the raw media: recovery must have restored every logged
			// sector to the data disk itself, not just made it readable.
			return func(p *sim.Proc, slot int) (int, bool) {
				got := data.MediaRead(int64(slot*slotSpacing), sectorsPer)
				return crashexplore.ParseVersion(got, slot, sectorsPer)
			}, nil
		},
		Post: func(env2 *sim.Env) error {
			// The recovered system restarts and accepts writes.
			drv2, err := NewDriver(env2, log, []*disk.Disk{data}, Config{})
			if err != nil {
				return err
			}
			var werr error
			env2.Go("post", func(p *sim.Proc) {
				werr = drv2.Dev(0).Write(p, 4096, 1, fill(1, 1))
			})
			env2.Run()
			return werr
		},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Audits {
		if a.Failed() {
			t.Errorf("seed %d slot %d: acked v%d, recovered v%d (torn=%v)", seed, a.Slot, a.Acked, a.Found, a.Torn)
		}
	}
}
