package txn

import (
	"bytes"
	"errors"
	"testing"

	"tracklog/internal/kvdb"
	"tracklog/internal/sim"
	"tracklog/internal/wal"
)

func TestDecodeRedoRoundTrip(t *testing.T) {
	rec := appendRedo(nil, 7, false, []byte("the-key"), []byte("the-value"), 120)
	tag, del, key, value, logical, err := decodeRedo(rec)
	if err != nil {
		t.Fatal(err)
	}
	if tag != 7 || del || string(key) != "the-key" || string(value) != "the-value" {
		t.Errorf("decoded (%d,%v,%q,%q)", tag, del, key, value)
	}
	if logical != 120 {
		t.Errorf("logical = %d, want 120", logical)
	}
	// Deletes round-trip too.
	rec = appendRedo(nil, 3, true, []byte("k"), nil, 0)
	_, del, _, _, _, err = decodeRedo(rec)
	if err != nil || !del {
		t.Errorf("delete flag lost: %v %v", del, err)
	}
}

func TestDecodeRedoRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		// klen larger than record.
		{1, 0, 0, 255, 0, 2, 0, 0},
		// A flag that is neither put (0) nor delete (1).
		{1, 0, 2, 0, 0, 0, 0, 0},
	}
	for i, c := range cases {
		if _, _, _, _, _, err := decodeRedo(c); !errors.Is(err, ErrBadRedo) {
			t.Errorf("case %d accepted: %v", i, err)
		}
	}
}

func TestRecoverDBReplaysInOrder(t *testing.T) {
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	// Three versions of one key plus a delete of another: final state is
	// the last version and the deletion.
	records := [][]byte{
		appendRedo(nil, 1, false, []byte("a"), []byte("v1"), 50),
		appendRedo(nil, 1, false, []byte("b"), []byte("keep"), 50),
		appendRedo(nil, 1, false, []byte("a"), []byte("v2"), 50),
		appendRedo(nil, 1, false, []byte("c"), []byte("gone"), 50),
		appendRedo(nil, 1, true, []byte("c"), nil, 0),
		appendRedo(nil, 1, false, []byte("a"), []byte("v3"), 50),
	}
	r.env.Go("recover", func(p *sim.Proc) {
		applied, err := RecoverDB(p, records, func(tag uint16) *kvdb.Tree {
			if tag != 1 {
				return nil
			}
			return r.tree
		})
		if err != nil {
			t.Fatal(err)
		}
		if applied != len(records) {
			t.Errorf("applied = %d", applied)
		}
		got, err := r.tree.Get(p, []byte("a"))
		if err != nil || string(got) != "v3" {
			t.Errorf("a = %q %v, want v3", got, err)
		}
		if _, err := r.tree.Get(p, []byte("c")); !errors.Is(err, kvdb.ErrNotFound) {
			t.Errorf("c not deleted: %v", err)
		}
		if got, _ := r.tree.Get(p, []byte("b")); string(got) != "keep" {
			t.Errorf("b = %q", got)
		}
	})
	r.env.Run()
}

func TestRecoverDBUnknownTag(t *testing.T) {
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	records := [][]byte{appendRedo(nil, 9, false, []byte("x"), []byte("y"), 0)}
	r.env.Go("recover", func(p *sim.Proc) {
		if _, err := RecoverDB(p, records, func(uint16) *kvdb.Tree { return nil }); err == nil {
			t.Error("unknown tag accepted")
		}
	})
	r.env.Run()
}

// FuzzRedoRecovery: a record appendRedo builds decodes back to what built it,
// and replaying any log, that record first and then the fuzz input cut into
// records by one-byte length prefixes, applies it or refuses it with
// ErrBadRedo or kvdb.ErrTooLarge. Nothing panics.
func FuzzRedoRecovery(f *testing.F) {
	var valid []byte
	for _, rec := range [][]byte{
		appendRedo(nil, 1, false, []byte("a"), []byte("v1"), 50),
		appendRedo(nil, 1, true, []byte("a"), nil, 0),
		appendRedo(nil, 2, false, []byte("key"), nil, 0),
	} {
		valid = append(append(valid, byte(len(rec))), rec...)
	}
	f.Add(uint16(1), false, []byte("k"), []byte("row"), uint16(100), valid)
	f.Add(uint16(7), true, []byte("k"), []byte(nil), uint16(0), []byte{8, 1, 0, 2, 1, 0, 0, 0, 0})
	f.Add(uint16(3), false, []byte(""), []byte("v"), uint16(60000), []byte{3, 1, 2, 3})
	f.Add(uint16(0), false, []byte("k"), []byte("v"), uint16(0), []byte{9, 1, 0, 0, 255, 0, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, tag uint16, del bool, key, value []byte, logical uint16, log []byte) {
		if len(key) > 0xffff || len(value) > 0xffff {
			t.Skip("appendRedo's lengths are 16 bits")
		}
		rec := appendRedo(nil, tag, del, key, value, int(logical))
		gtag, gdel, gkey, gvalue, glogical, err := decodeRedo(rec)
		if err != nil || gtag != tag || gdel != del || !bytes.Equal(gkey, key) || !bytes.Equal(gvalue, value) || glogical != max(len(value), int(logical)) {
			t.Fatalf("decoded (%d, %v, %q, %q, %d, %v), built from (%d, %v, %q, %q, %d)",
				gtag, gdel, gkey, gvalue, glogical, err, tag, del, key, value, logical)
		}
		records := [][]byte{rec}
		for len(log) > 0 {
			n := min(int(log[0]), len(log)-1)
			records, log = append(records, log[1:1+n]), log[1+n:]
		}
		r := instantRig(t, 0)
		r.env.Go("recover", func(p *sim.Proc) {
			_, err = RecoverDB(p, records, func(uint16) *kvdb.Tree { return r.tree })
		})
		r.env.Run()
		if err != nil && !errors.Is(err, ErrBadRedo) && !errors.Is(err, kvdb.ErrTooLarge) {
			t.Fatalf("recovery: %v", err)
		}
	})
}
