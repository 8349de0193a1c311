package experiments

import "testing"

func TestOverloadQoSBoundsTail(t *testing.T) {
	res, err := Overload(200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	off, on := res.Rows[0], res.Rows[1]
	if off.QoS || !on.QoS {
		t.Fatalf("row order: %+v / %+v", off, on)
	}
	// At 2x saturation the policy must shed explicitly...
	if on.Shed == 0 {
		t.Error("QoS shed nothing at 2x saturation")
	}
	// ...bound the queue the unprotected driver lets grow...
	if on.MaxLogQueue >= off.MaxLogQueue {
		t.Errorf("queue high-water: qos=%d vs off=%d", on.MaxLogQueue, off.MaxLogQueue)
	}
	// ...and keep the tail of accepted work below the unprotected tail.
	if on.P99 >= off.P99 {
		t.Errorf("p99: qos=%v vs off=%v", on.P99, off.P99)
	}
	// Nothing acknowledged was lost either way.
	if off.Acked+off.Shed+off.Expired != 200 || on.Acked+on.Shed+on.Expired != 200 {
		t.Errorf("request accounting: off=%+v on=%+v", off, on)
	}
}
