package cluster

// The ack ledger keeps, per slot, the sequence numbers of the acknowledged
// writes; VerifyAcked regenerates their payloads. These tests hold it to what
// the retained-payload ledger promised: a block nobody acknowledged is lost,
// any acknowledged one is fine, and the ledger's cost is linear.

import (
	"runtime"
	"testing"

	"tracklog/internal/blockdev"
	"tracklog/internal/sim"
)

// overwriteBothCopies replaces the slot's block on the primary's and the
// replica's data platters.
func overwriteBothCopies(c *Cluster, tenant, block int, data []byte) {
	pl := c.Placement(tenant)
	for _, idx := range [2]int{pl.Primary, pl.Replica} {
		c.shards[idx].data.MediaWrite(c.slotLBA(tenant, block, idx), data)
	}
}

func verify(env *sim.Env, c *Cluster) (checked, lost int64) {
	env.Go("verify", func(p *sim.Proc) { checked, lost = c.VerifyAcked(p) })
	env.Run()
	return checked, lost
}

func TestVerifyAckedMatchesAnyAcknowledgedPayloadAndNoOther(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	c, err := New(env, Config{Shards: 2, Tenants: 4})
	if err != nil {
		t.Fatal(err)
	}
	const thrice = 2 // the tenant whose slot is written three times
	env.Go("client", func(p *sim.Proc) {
		for tn := 0; tn < 4; tn++ {
			writes := 1
			if tn == thrice {
				writes = 3
			}
			for n := 0; n < writes; n++ {
				if err := c.Write(p, tn, 0, blockdev.ClassNormal); err != nil {
					t.Errorf("write tenant %d: %v", tn, err)
				}
			}
		}
	})
	env.Run() // write-back drains: reads below come off the platters
	if got := c.slots[thrice][0].cands; len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("ledger of the slot written three times = %v, want [0 1 2]", got)
	}
	if checked, lost := verify(env, c); checked != 4 || lost != 0 {
		t.Fatalf("untouched cluster: checked %d lost %d, want 4 and 0", checked, lost)
	}
	for seq := int64(0); seq < 3; seq++ {
		overwriteBothCopies(c, thrice, 0, payloadFor(make([]byte, c.cfg.WriteSize), thrice, 0, seq))
		if _, lost := verify(env, c); lost != 0 {
			t.Errorf("slot holds its acknowledged write %d of 3: lost %d, want 0", seq, lost)
		}
	}
	overwriteBothCopies(c, thrice, 0, payloadFor(make([]byte, c.cfg.WriteSize), thrice, 0, 3))
	if checked, lost := verify(env, c); checked != 4 || lost != 1 {
		t.Errorf("slot holds a payload nobody acknowledged: checked %d lost %d, want 4 and 1", checked, lost)
	}
}

// TestLedgerCostIsLinearInWrites hammers one slot. Four times the writes
// must allocate about four times the bytes; the prepend-a-copy ledger
// allocated 7.5 times as much, and kept every payload alive besides.
func TestLedgerCostIsLinearInWrites(t *testing.T) {
	hammer := func(writes int) uint64 {
		env := sim.NewEnv()
		defer env.Close()
		c, err := New(env, Config{Shards: 2, Tenants: 2})
		if err != nil {
			t.Fatal(err)
		}
		env.Go("client", func(p *sim.Proc) {
			for i := 0; i < writes; i++ {
				if err := c.Write(p, 0, 0, blockdev.ClassNormal); err != nil {
					t.Errorf("write %d: %v", i, err)
					return
				}
			}
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		env.Run()
		runtime.ReadMemStats(&after)
		if n := len(c.slots[0][0].cands); n != writes {
			t.Errorf("ledger holds %d sequence numbers after %d acknowledged writes", n, writes)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := hammer(500), hammer(2000)
	t.Logf("500 writes allocate %d B, 2000 writes %d B (x%.2f)", small, large, float64(large)/float64(small))
	if large > 5*small {
		t.Errorf("2000 writes allocate %d B, 500 writes %d B: more than linear", large, small)
	}
}
