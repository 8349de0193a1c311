package cluster

// The ack ledger keeps, per slot, the sequence numbers of the acknowledged
// writes no later write superseded; VerifyAcked regenerates their payloads.
// These tests hold it to workload.Ledger's rule: a block nobody acknowledged
// is lost, and so is a superseded one; each of the writes that raced is
// fine; and a slot holds no more candidates than writes in flight to it.

import (
	"fmt"
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

// The slot written three times in a row keeps only its last write: each was
// issued after the one before was acknowledged, so seq 0 and 1 are
// superseded and reading them back is a loss.
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
	if got := c.slots[thrice][0].cands; len(got) != 1 || got[0].seq != 2 {
		t.Fatalf("ledger of the slot written three times = %v, want seq 2 alone", got)
	}
	if checked, lost := verify(env, c); checked != 4 || lost != 0 {
		t.Fatalf("untouched cluster: checked %d lost %d, want 4 and 0", checked, lost)
	}
	for seq, want := range []int64{1, 1, 0, 1} {
		overwriteBothCopies(c, thrice, 0, payloadFor(make([]byte, blockSize), thrice, 0, int64(seq)))
		if checked, lost := verify(env, c); checked != 4 || lost != want {
			t.Errorf("slot holds write %d (acknowledged writes 0-2, 2 the last): checked %d lost %d, want 4 and %d",
				seq, checked, lost, want)
		}
	}
}

// TestHammeredSlotHoldsFewCandidates hammers one slot from four writers at
// once: every ack drops the candidates its write superseded, so the slot
// never holds more than the four writes in flight. The writes do race: some
// ack finds another writer's candidate still standing.
func TestHammeredSlotHoldsFewCandidates(t *testing.T) {
	const writers, writes = 4, 500
	env := sim.NewEnv()
	defer env.Close()
	c, err := New(env, Config{Shards: 2, Tenants: 2})
	if err != nil {
		t.Fatal(err)
	}
	most := 0
	for w := 0; w < writers; w++ {
		env.Go(fmt.Sprintf("client%d", w), func(p *sim.Proc) {
			for i := 0; i < writes; i++ {
				if err := c.Write(p, 0, 0, blockdev.ClassNormal); err != nil {
					t.Errorf("writer %d write %d: %v", w, i, err)
					return
				}
				most = max(most, len(c.slots[0][0].cands))
			}
		})
	}
	env.Run()
	if most < 2 || most > writers {
		t.Errorf("the slot held at most %d candidates, want 2 to %d", most, writers)
	}
	if _, lost := verify(env, c); lost != 0 {
		t.Errorf("hammered slot: lost %d, want 0", lost)
	}
}
