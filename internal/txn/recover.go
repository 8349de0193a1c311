package txn

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tracklog/internal/kvdb"
	"tracklog/internal/sim"
)

// ErrBadRedo reports a malformed redo record.
var ErrBadRedo = errors.New("txn: malformed redo record")

// decodeRedo parses a record produced by appendRedo. The trailing padding
// (to the row's logical width) determines the logical size to re-apply.
func decodeRedo(rec []byte) (tag uint16, del bool, key, value []byte, logical int, err error) {
	if len(rec) < 8 {
		return 0, false, nil, nil, 0, fmt.Errorf("%w: %d bytes", ErrBadRedo, len(rec))
	}
	if rec[2] > 1 {
		return 0, false, nil, nil, 0, fmt.Errorf("%w: flag %d", ErrBadRedo, rec[2])
	}
	le := binary.LittleEndian
	tag = le.Uint16(rec)
	del = rec[2] == 1
	klen := int(le.Uint16(rec[3:]))
	vlen := int(le.Uint16(rec[5:]))
	if 8+klen+vlen > len(rec) {
		return 0, false, nil, nil, 0, fmt.Errorf("%w: lengths exceed record", ErrBadRedo)
	}
	key = rec[8 : 8+klen]
	value = rec[8+klen : 8+klen+vlen]
	logical = len(rec) - 8 - klen
	return tag, del, key, value, logical, nil
}

// RecoverDB replays redo records (from wal.ReadRecords) onto the trees, in
// log order. Because every tree mutation is logged before it is applied
// (write-ahead rule) and replay covers the full log, the trees converge to
// the state as of the last durable record regardless of which page writes
// survived the crash. resolve maps a record's tree tag to its tree.
//
// It returns the number of operations applied.
func RecoverDB(p *sim.Proc, records [][]byte, resolve func(tag uint16) *kvdb.Tree) (int, error) {
	applied := 0
	for i, rec := range records {
		tag, del, key, value, logical, err := decodeRedo(rec)
		if err != nil {
			return applied, fmt.Errorf("record %d: %w", i, err)
		}
		tree := resolve(tag)
		if tree == nil {
			return applied, fmt.Errorf("record %d: no tree for tag %d", i, tag)
		}
		if del {
			if err := tree.Delete(p, key); err != nil && !errors.Is(err, kvdb.ErrNotFound) {
				return applied, fmt.Errorf("record %d: delete: %w", i, err)
			}
		} else {
			if err := tree.Put(p, key, value, logical); err != nil {
				return applied, fmt.Errorf("record %d: put: %w", i, err)
			}
		}
		applied++
	}
	return applied, nil
}
