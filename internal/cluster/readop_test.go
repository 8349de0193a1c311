package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/fault"
	"tracklog/internal/sim"
	"tracklog/internal/workload"
)

// A read op is shared by the read's caller, its attempts and its hedge
// timer, and goes back to the free list only when the last of them lets go.
// Each case issues reads back to back, so ops are reused while the previous
// reads' losing attempts and hedge timers still hold theirs. For every read
// the winning shard, whether a hedge won, and the latency are pinned as
// recorded when every read built its own race; after Run every op must be
// on the free list exactly once.
func TestReadOpLifetime(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		// tenants picks the tenants read, in turn, given the cluster.
		tenants func(c *Cluster) []int
		reads   int
		crowd   int // readers crowding the same tenants
		want    string
	}{
		{
			// Two more readers crowd shard 0's queue, so hedges fire and
			// often win, leaving the slow primary in flight when the next
			// read starts.
			name:    "slow primary",
			cfg:     Config{Shards: 4, Tenants: 16},
			tenants: func(c *Cluster) []int { return primaryOn(c, 0) },
			reads:   12,
			crowd:   2,
			want: `
t5/b0 s0 33.862433ms
t9/b0 s0 11.322751ms
t11/b0 s1 hedge 33.544973ms
t15/b0 s0 11.746032ms
t5/b1 s3 hedge 32.592592ms
t9/b1 s2 hedge 33.756614ms
t11/b1 s1 hedge 33.121692ms
t15/b1 s2 hedge 34.603175ms
t5/b0 s3 hedge 31.746031ms
t9/b0 s2 hedge 33.756614ms
t11/b0 s1 hedge 33.121692ms
t15/b0 s2 hedge 34.603175ms
`,
		},
		{
			// Shard 1 dies at 40 ms: the next read's primary attempt fails
			// after it was launched, with its hedge timer out, and the
			// replica takes over; once the shard is dead, reads fail over
			// at once.
			name: "failover",
			cfg: Config{Shards: 4, Tenants: 16,
				Scenario: fault.ShardScenario{Events: []fault.ShardEvent{{Shard: 1, At: 40 * time.Millisecond}}}},
			tenants: func(c *Cluster) []int { return primaryOn(c, 1) },
			reads:   12,
			want: `
t14/b0 s1 1.164021ms
t14/b1 s1 11.216931ms
t14/b0 s1 11.005291ms
t14/b1 s1 11.216931ms
t14/b0 s1 11.005291ms
t14/b1 s2 12.063491ms
t14/b0 s2 11.005291ms
t14/b1 s2 11.216931ms
t14/b0 s2 11.005291ms
t14/b1 s2 11.216931ms
t14/b0 s2 11.005291ms
t14/b1 s2 11.216931ms
`,
		},
		{
			name:    "tenant mix",
			cfg:     Config{Shards: 4, Tenants: 16},
			tenants: func(c *Cluster) []int { return []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15} },
			reads:   32,
			want: `
t0/b0 s2 11.216931ms
t1/b0 s0 11.322751ms
t2/b0 s1 10.899471ms
t3/b0 s1 11.322751ms
t4/b0 s3 11.322751ms
t5/b0 s0 11.111111ms
t6/b0 s3 11.534391ms
t7/b0 s1 10.899471ms
t8/b0 s3 11.534392ms
t9/b0 s0 10.68783ms
t10/b0 s2 634.921µs
t11/b0 s0 10.899471ms
t12/b0 s2 11.534391ms
t13/b0 s2 11.322751ms
t14/b0 s1 10.476191ms
t15/b0 s0 11.534391ms
t0/b1 s2 9.73545ms
t1/b1 s0 11.322751ms
t2/b1 s1 10.899471ms
t3/b1 s1 11.322751ms
t4/b1 s3 11.322751ms
t5/b1 s0 11.111111ms
t6/b1 s3 11.534391ms
t7/b1 s1 10.899471ms
t8/b1 s3 11.534392ms
t9/b1 s0 10.68783ms
t10/b1 s2 634.921µs
t11/b1 s0 10.899471ms
t12/b1 s2 11.534391ms
t13/b1 s2 11.322751ms
t14/b1 s1 10.476191ms
t15/b1 s0 11.534391ms
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			defer env.Close()
			c, err := New(env, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			tenants := tc.tenants(c)
			stop := false
			crowd(c, tenants, tc.crowd, &stop)
			var got strings.Builder
			env.Go("client", func(p *sim.Proc) {
				for i := 0; i < tc.reads; i++ {
					tn, b := tenants[i%len(tenants)], i/len(tenants)%workload.BlocksPerTenant
					before, start := c.Stats(), p.Now()
					_, err := c.Read(p, tn, b, blockdev.ClassNormal, nil)
					st := c.Stats()
					pl, won, hedge := c.Placement(tn), "-", ""
					switch {
					case err != nil:
					case st.Failovers > before.Failovers || st.HedgeWins > before.HedgeWins:
						won = fmt.Sprint(pl.Replica)
					default:
						won = fmt.Sprint(pl.Primary)
					}
					if st.HedgeWins > before.HedgeWins {
						hedge = " hedge"
					}
					fmt.Fprintf(&got, "t%d/b%d s%s%s %v\n", tn, b, won, hedge, p.Now().Sub(start))
				}
				stop = true
				// Outlive the last hedge timer, a daemon Run does not wait for.
				p.Sleep(hedgeAfter)
			})
			env.Run()

			if want := strings.TrimPrefix(tc.want, "\n"); got.String() != want {
				t.Errorf("reads (tenant/block, winning shard, latency):\n%s\nwant:\n%s", got.String(), want)
			}
			seen := map[*readOp]bool{}
			for _, op := range c.freeReads {
				if seen[op] {
					t.Errorf("op %p is on the free list twice", op)
				}
				seen[op] = true
				if op.holders != 0 {
					t.Errorf("free op %p has %d holders", op, op.holders)
				}
			}
			if len(seen) != c.readOps {
				t.Errorf("%d of %d read ops are on the free list", len(seen), c.readOps)
			}
		})
	}
}

// crowd starts n readers that read tenants' blocks in turn until *stop, so
// that a read of one of those tenants waits in its primary's queue past
// hedgeAfter: the replica, asked by the hedge, can then win the race.
func crowd(c *Cluster, tenants []int, n int, stop *bool) {
	for k := 0; k < n; k++ {
		c.env.Go(fmt.Sprintf("crowd%d", k), func(p *sim.Proc) {
			for i := k; !*stop; i++ {
				c.Read(p, tenants[i%len(tenants)], i/len(tenants)%workload.BlocksPerTenant, blockdev.ClassNormal, nil)
			}
			p.Sleep(hedgeAfter) // outlive the last hedge timer
		})
	}
}

// primaryOn returns the tenants whose primary copy is on shard idx at a
// different LBA from their replica: copies at the same LBA sit at the same
// angle on shards built together, and a hedge could never win.
func primaryOn(c *Cluster, idx int) []int {
	var out []int
	for tn := range c.place {
		if pl := c.place[tn]; pl.Primary == idx && pl.PrimaryLBA != pl.ReplicaLBA {
			out = append(out, tn)
		}
	}
	return out
}

// A read's attempts fill their op's buffers, and a losing attempt may land
// after Read has returned and the op has served other reads. Each case reads
// tenants whose primary is shard 0 back to back, half into a caller's buffer
// and half with none, while hedges win against a primary four more readers
// crowd, and in the second case while the primary's shard dies under its
// attempts. The ops are
// made up front with attempt bodies that count the attempts filling each
// buffer and poison it first. No two attempts may fill one buffer at once, no
// op on the free list may have a buffer being filled, an attempt that cannot
// fail (no shard dies) must fill the buffer it was given, and after the run
// every returned block must still hold an acknowledged payload of its slot.
func TestReadBufferOwnership(t *testing.T) {
	const killAt = sim.Time(120 * time.Millisecond)
	cases := []struct {
		name   string
		events []fault.ShardEvent
	}{
		{"slow primary", nil},
		{"killed primary", []fault.ShardEvent{{Shard: 0, At: time.Duration(killAt)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			defer env.Close()
			c, err := New(env, Config{Shards: 4, Tenants: 16, Scenario: fault.ShardScenario{Events: tc.events}})
			if err != nil {
				t.Fatal(err)
			}
			filling := map[*byte]int{}
			killedMidAttempt, unfilled := false, 0
			poison := bytes.Repeat([]byte{0xEE}, blockSize)
			track := func(buf []byte, body func(*sim.Proc)) func(*sim.Proc) {
				return func(p *sim.Proc) {
					if filling[&buf[0]]++; filling[&buf[0]] > 1 {
						t.Errorf("two attempts fill buffer %p at once", &buf[0])
					}
					copy(buf, poison)
					start := p.Now()
					body(p)
					filling[&buf[0]]--
					killedMidAttempt = killedMidAttempt || start < killAt && p.Now() >= killAt
					if bytes.Equal(buf, poison) {
						unfilled++
					}
				}
			}
			const ops = 32
			made := make([]*readOp, ops)
			for i := range made {
				op := c.newReadOp()
				op.primary, op.replica = track(op.priBuf, op.primary), track(op.repBuf, op.replica)
				made[i] = op
			}
			c.freeReads = append(c.freeReads, made...)

			tenants := primaryOn(c, 0)
			type result struct {
				tenant, block int
				data          []byte
			}
			var got []result
			stop := false
			env.Go("client", func(p *sim.Proc) {
				for _, tn := range tenants {
					for b := range workload.BlocksPerTenant {
						if err := c.Write(p, tn, b, blockdev.ClassNormal); err != nil {
							t.Error(err)
						}
					}
				}
				crowd(c, tenants, 4, &stop)
				for i := 0; i < 24; i++ {
					for _, op := range c.freeReads {
						if filling[&op.priBuf[0]]+filling[&op.repBuf[0]] > 0 {
							t.Errorf("read %d: free op %p has a buffer being filled", i, op)
						}
					}
					tn, b := tenants[i%len(tenants)], i/len(tenants)%workload.BlocksPerTenant
					var into []byte
					if i%2 == 0 {
						into = make([]byte, blockSize)
					}
					data, err := c.Read(p, tn, b, blockdev.ClassNormal, into)
					if err != nil {
						t.Errorf("read %d of t%d/b%d: %v", i, tn, b, err)
						continue
					}
					if into != nil && &data[0] != &into[0] {
						t.Errorf("read %d returned a new slice, not the caller's buffer", i)
					}
					got = append(got, result{tn, b, data})
				}
				stop = true
				// Outlive the last hedge timer, a daemon Run does not wait for.
				p.Sleep(hedgeAfter)
			})
			env.Run()

			scratch := make([]byte, blockSize)
			for i, r := range got {
				if !c.matchesAcked(r.data, scratch, r.tenant, r.block) {
					t.Errorf("read %d of t%d/b%d no longer holds an acknowledged payload", i, r.tenant, r.block)
				}
			}
			st := c.Stats()
			if st.HedgeWins == 0 {
				t.Error("no hedge won, so no losing primary landed after its read")
			}
			if killed := len(tc.events) > 0; killed && (st.ShardDeaths == 0 || !killedMidAttempt) {
				t.Errorf("%d shard deaths, with an attempt in flight at the kill: %v; want both", st.ShardDeaths, killedMidAttempt)
			} else if !killed && unfilled > 0 {
				t.Errorf("%d attempts left the buffer they were given unfilled", unfilled)
			}
			if c.readOps != ops || len(c.freeReads) != ops {
				t.Errorf("%d read ops made and %d free, want the %d made up front", c.readOps, len(c.freeReads), ops)
			}
		})
	}
}
