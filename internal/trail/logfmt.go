// Package trail implements track-based disk logging and the Trail
// low-write-latency disk subsystem from "Track-Based Disk Logging"
// (Chiueh & Huang, DSN 2002).
//
// Trail pairs one log disk with one or more data disks. Every synchronous
// write is first appended to the log disk at the sector the disk head is
// predicted to be passing — eliminating seek and rotational latency — and is
// propagated to its final data-disk location asynchronously from a staging
// buffer in host memory. A crash is survivable because the log is
// self-describing: recovery locates the youngest write record by binary
// search over tracks, walks record back-pointers, and replays pending
// blocks onto the data disks.
package trail

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"tracklog/internal/blockdev"
	"tracklog/internal/geom"
)

// Log format constants. The on-disk encoding is little-endian; the record
// header's layout is given with its offsets, below RecordHeader.
const (
	// MaxBatch is the maximum number of data sectors in one write record,
	// matching the paper's MAX_TRAIL_BATCH (Table 1 sweeps batch sizes up
	// to 32).
	MaxBatch = 32

	// recordFirstByte marks the first byte of every write-record header
	// sector; dataFirstByte replaces the first byte of every logged data
	// sector (the original byte is preserved in the header). This is the
	// paper's scheme for making headers recognizable during a raw scan
	// without bit stuffing.
	recordFirstByte = 0xFF
	dataFirstByte   = 0x00

	// diskHeaderFirstByte marks the global log-disk header sector.
	diskHeaderFirstByte = 0xFE

	signatureLen = 8
)

var (
	// recordSignature identifies write-record headers.
	recordSignature = [signatureLen]byte{'T', 'R', 'A', 'I', 'L', 'R', 'E', 'C'}
	// diskSignature identifies a formatted Trail log disk.
	diskSignature = [signatureLen]byte{'T', 'R', 'A', 'I', 'L', 'H', 'D', 'R'}
)

// Errors surfaced by format parsing and recovery.
var (
	// ErrNotTrailDisk means the log disk header is missing or corrupt at
	// every replica; the disk was never formatted (or is damaged beyond
	// recognition).
	ErrNotTrailDisk = errors.New("trail: not a formatted trail log disk")
	// ErrNotRecord means the sector parsed is not a valid record header.
	ErrNotRecord = errors.New("trail: not a write record header")
	// ErrTornRecord means a record header is valid but its data sectors do
	// not match the header checksum — a write torn by a crash.
	ErrTornRecord = errors.New("trail: torn write record")
)

// DiskHeader is the paper's log_disk_header: global state stored at a
// well-known location (and replicated) on the log disk, alongside the
// drive's physical geometry so recovery needs no external knowledge.
type DiskHeader struct {
	// Epoch increments every time the Trail driver initializes on this
	// disk. Records carry the epoch of the run that wrote them.
	Epoch uint32
	// CleanShutdown is the paper's crash variable: false while the driver
	// is running, set true on orderly shutdown. False at boot time means
	// the previous run crashed and recovery must run.
	CleanShutdown bool
	// Geom is the log disk's physical geometry, written by the formatter.
	Geom geom.Geometry
}

// maxZones bounds the geometry encoding so the header fits one sector.
const maxZones = 16

// EncodeDiskHeader serializes h into a single sector.
func EncodeDiskHeader(h *DiskHeader) ([]byte, error) {
	if len(h.Geom.Zones) > maxZones {
		return nil, fmt.Errorf("trail: geometry has %d zones, max %d", len(h.Geom.Zones), maxZones)
	}
	buf := make([]byte, geom.SectorSize)
	buf[0] = diskHeaderFirstByte
	copy(buf[1:], diskSignature[:])
	le := binary.LittleEndian
	le.PutUint32(buf[9:], h.Epoch)
	if h.CleanShutdown {
		buf[13] = 1
	}
	// buf[14:18] is the CRC, filled last.
	off := 18
	le.PutUint32(buf[off:], uint32(h.Geom.Cylinders))
	le.PutUint32(buf[off+4:], uint32(h.Geom.Heads))
	le.PutUint32(buf[off+8:], uint32(h.Geom.TrackSkew))
	le.PutUint32(buf[off+12:], uint32(h.Geom.CylSkew))
	le.PutUint32(buf[off+16:], uint32(len(h.Geom.Zones)))
	off += 20
	for _, z := range h.Geom.Zones {
		le.PutUint32(buf[off:], uint32(z.StartCyl))
		le.PutUint32(buf[off+4:], uint32(z.EndCyl))
		le.PutUint32(buf[off+8:], uint32(z.SPT))
		off += 12
	}
	le.PutUint32(buf[14:], sectorCRC(buf, 14))
	return buf, nil
}

// sectorCRC computes the checksum of a header sector with its 4-byte CRC
// field, at offset at, treated as zero.
func sectorCRC(sector []byte, at int) uint32 {
	crc := crc32.Update(0, crc32.IEEETable, sector[:at])
	crc = crc32.Update(crc, crc32.IEEETable, zeroCRC[:])
	return crc32.Update(crc, crc32.IEEETable, sector[at+4:])
}

// zeroCRC is a CRC field as sectorCRC reads it; a local array would escape
// to the heap through crc32.Update.
var zeroCRC [4]byte

// DecodeDiskHeader parses a disk header sector.
func DecodeDiskHeader(sector []byte) (*DiskHeader, error) {
	if len(sector) < geom.SectorSize {
		return nil, fmt.Errorf("%w: short sector", ErrNotTrailDisk)
	}
	if sector[0] != diskHeaderFirstByte || string(sector[1:9]) != string(diskSignature[:]) {
		return nil, ErrNotTrailDisk
	}
	le := binary.LittleEndian
	if le.Uint32(sector[14:]) != sectorCRC(sector, 14) {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrNotTrailDisk)
	}
	h := &DiskHeader{
		Epoch:         le.Uint32(sector[9:]),
		CleanShutdown: sector[13] == 1,
	}
	off := 18
	h.Geom.Cylinders = int(le.Uint32(sector[off:]))
	h.Geom.Heads = int(le.Uint32(sector[off+4:]))
	h.Geom.TrackSkew = int(le.Uint32(sector[off+8:]))
	h.Geom.CylSkew = int(le.Uint32(sector[off+12:]))
	n := int(le.Uint32(sector[off+16:]))
	off += 20
	if n > maxZones {
		return nil, fmt.Errorf("%w: %d zones", ErrNotTrailDisk, n)
	}
	for i := 0; i < n; i++ {
		h.Geom.Zones = append(h.Geom.Zones, geom.Zone{
			StartCyl: int(le.Uint32(sector[off:])),
			EndCyl:   int(le.Uint32(sector[off+4:])),
			SPT:      int(le.Uint32(sector[off+8:])),
		})
		off += 12
	}
	if err := h.Geom.Validate(); err != nil {
		return nil, fmt.Errorf("%w: embedded geometry: %v", ErrNotTrailDisk, err)
	}
	return h, nil
}

// BlockRef describes one logged data sector: where it belongs on which data
// disk, and the original first byte displaced by the marker scheme.
type BlockRef struct {
	Dev           blockdev.DevID
	DataLBA       int64
	FirstDataByte byte
}

// RecordHeader is the paper's record_header: the first sector of every
// write record, followed immediately by len(Blocks) data sectors.
type RecordHeader struct {
	// Epoch and Seq order records globally; Seq increments per record
	// within an epoch.
	Epoch uint32
	Seq   uint64
	// HeaderLBA is this header's own log-disk address (self-identifying,
	// so a parsed record knows where it lives).
	HeaderLBA int64
	// PrevSect is the log LBA of the previous record's header, or -1 for
	// the first record of an epoch. Recovery walks this chain backwards.
	PrevSect int64
	// LogHead is the log LBA of the header of the oldest record not yet
	// committed to the data disks when this record was written. It bounds
	// the backward walk during recovery.
	LogHead int64
	// DataCRC covers the record's data sectors as stored on disk (with
	// first bytes already substituted), so recovery can reject records
	// torn by a mid-transfer crash.
	DataCRC uint32
	// Blocks lists the data sectors in this record, in log order. Data
	// sector i of the record lives at HeaderLBA+1+i.
	Blocks []BlockRef
}

// Record header layout: fixed fields, then the block list as extent runs in
// log order, then one displaced first byte per block, then zeroes to the end
// of the sector. A run is a maximal stretch of consecutive data LBAs on one
// device; the header CRC covers the whole sector with its own field zeroed.
const (
	rhOffEpoch    = 9
	rhOffSeq      = 13
	rhOffSelf     = 21
	rhOffPrev     = 29
	rhOffLogHead  = 37
	rhOffBatch    = 45
	rhOffCRC      = 49 // DataCRC
	rhOffHdrCRC   = 53
	rhOffRuns     = 57 // run count, one byte
	rhOffRunTable = 58
	rhRunSize     = 11 // dataLBA(8) + major(1) + minor(1) + length(1)
	// rhMaxSize is the encoded size of the largest header: MaxBatch blocks
	// in as many one-block runs.
	rhMaxSize = rhOffRunTable + MaxBatch*rhRunSize + MaxBatch
)

// compile-time check that the header fits in one sector
var _ [geom.SectorSize - rhMaxSize]byte

// encodedSize is how many bytes a header of the given runs and blocks
// encodes into; the rest of its sector is zero.
func encodedSize(runs, blocks int) int { return rhOffRunTable + runs*rhRunSize + blocks }

// follows reports whether a block of dev at lba extends a run ending at b.
func follows(b BlockRef, dev blockdev.DevID, lba int64) bool {
	return dev == b.Dev && b.DataLBA < math.MaxInt64 && lba == b.DataLBA+1
}

// runLen returns the length of the run starting at blocks[0].
func runLen(blocks []BlockRef) int {
	n := 1
	for n < len(blocks) && follows(blocks[n-1], blocks[n].Dev, blocks[n].DataLBA) {
		n++
	}
	return n
}

// Encode serializes the header into a single sector.
func (h *RecordHeader) Encode() ([]byte, error) {
	buf := make([]byte, geom.SectorSize)
	if err := h.encodeInto(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// encodeInto serializes the header over sector, which the caller may be
// reusing: every byte is rewritten, the tail past the encoded size with
// zeroes.
func (h *RecordHeader) encodeInto(sector []byte) error {
	if len(h.Blocks) == 0 || len(h.Blocks) > MaxBatch {
		return fmt.Errorf("trail: record with %d blocks (max %d)", len(h.Blocks), MaxBatch)
	}
	buf := sector[:geom.SectorSize]
	clear(buf)
	buf[0] = recordFirstByte
	copy(buf[1:], recordSignature[:])
	le := binary.LittleEndian
	le.PutUint32(buf[rhOffEpoch:], h.Epoch)
	le.PutUint64(buf[rhOffSeq:], h.Seq)
	le.PutUint64(buf[rhOffSelf:], uint64(h.HeaderLBA))
	le.PutUint64(buf[rhOffPrev:], uint64(h.PrevSect))
	le.PutUint64(buf[rhOffLogHead:], uint64(h.LogHead))
	le.PutUint32(buf[rhOffBatch:], uint32(len(h.Blocks)))
	le.PutUint32(buf[rhOffCRC:], h.DataCRC)
	off, runs := rhOffRunTable, 0
	for i := 0; i < len(h.Blocks); runs++ {
		b, n := h.Blocks[i], runLen(h.Blocks[i:])
		le.PutUint64(buf[off:], uint64(b.DataLBA))
		buf[off+8], buf[off+9], buf[off+10] = b.Dev.Major, b.Dev.Minor, byte(n)
		off += rhRunSize
		i += n
	}
	buf[rhOffRuns] = byte(runs)
	for i, b := range h.Blocks {
		buf[off+i] = b.FirstDataByte
	}
	le.PutUint32(buf[rhOffHdrCRC:], sectorCRC(buf, rhOffHdrCRC))
	return nil
}

// DecodeRecordHeader parses a record header sector. It returns ErrNotRecord
// for sectors that are not record headers (data payload, stale garbage,
// zeroes) and for headers whose CRC fails or whose encoding is not the one
// encodeInto writes: runs that are empty, not maximal, overflow the LBA
// space or do not add up to the batch, or bytes past the encoded size.
func DecodeRecordHeader(sector []byte) (*RecordHeader, error) {
	if len(sector) < geom.SectorSize {
		return nil, fmt.Errorf("%w: short sector", ErrNotRecord)
	}
	sector = sector[:geom.SectorSize]
	if sector[0] != recordFirstByte || string(sector[1:9]) != string(recordSignature[:]) {
		return nil, ErrNotRecord
	}
	le := binary.LittleEndian
	if le.Uint32(sector[rhOffHdrCRC:]) != sectorCRC(sector, rhOffHdrCRC) {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrNotRecord)
	}
	n := int(le.Uint32(sector[rhOffBatch:]))
	if n == 0 || n > MaxBatch {
		return nil, fmt.Errorf("%w: batch size %d", ErrNotRecord, n)
	}
	runs := int(sector[rhOffRuns])
	if runs == 0 || runs > n {
		return nil, fmt.Errorf("%w: %d runs for %d blocks", ErrNotRecord, runs, n)
	}
	end := encodedSize(runs, n)
	for _, c := range sector[end:] {
		if c != 0 {
			return nil, fmt.Errorf("%w: bytes past the encoded header", ErrNotRecord)
		}
	}
	h := &RecordHeader{
		Epoch:     le.Uint32(sector[rhOffEpoch:]),
		Seq:       le.Uint64(sector[rhOffSeq:]),
		HeaderLBA: int64(le.Uint64(sector[rhOffSelf:])),
		PrevSect:  int64(le.Uint64(sector[rhOffPrev:])),
		LogHead:   int64(le.Uint64(sector[rhOffLogHead:])),
		DataCRC:   le.Uint32(sector[rhOffCRC:]),
		Blocks:    make([]BlockRef, n),
	}
	first := sector[end-n : end]
	i := 0
	for r := range runs {
		run := sector[rhOffRunTable+r*rhRunSize:]
		lba, dev, length := int64(le.Uint64(run)), blockdev.DevID{Major: run[8], Minor: run[9]}, int(run[10])
		if length == 0 || length > n-i {
			return nil, fmt.Errorf("%w: run %d of %d blocks at block %d of %d", ErrNotRecord, r, length, i, n)
		}
		if lba > math.MaxInt64-int64(length-1) {
			return nil, fmt.Errorf("%w: run %d overflows the LBA space", ErrNotRecord, r)
		}
		if i > 0 && follows(h.Blocks[i-1], dev, lba) {
			return nil, fmt.Errorf("%w: run %d continues run %d", ErrNotRecord, r, r-1)
		}
		for k := range length {
			h.Blocks[i] = BlockRef{Dev: dev, DataLBA: lba + int64(k), FirstDataByte: first[i]}
			i++
		}
	}
	if i != n {
		return nil, fmt.Errorf("%w: runs cover %d of %d blocks", ErrNotRecord, i, n)
	}
	return h, nil
}

// BuildRecord assembles the on-disk image of a write record: the encoded
// header sector followed by the data sectors with their first bytes
// substituted. data must hold len(blocks) sectors matching blocks order;
// the header's DataCRC and Blocks[].FirstDataByte are filled in here.
func BuildRecord(h *RecordHeader, data []byte) ([]byte, error) {
	n := len(h.Blocks)
	if len(data) != n*geom.SectorSize {
		return nil, fmt.Errorf("trail: record data %d bytes for %d blocks", len(data), n)
	}
	img := make([]byte, (n+1)*geom.SectorSize)
	copy(img[geom.SectorSize:], data)
	if err := sealRecord(h, img); err != nil {
		return nil, err
	}
	return img, nil
}

// sealRecord turns img — a header sector of any content, then len(h.Blocks)
// sectors of client data — into the record's on-disk image in place: first
// bytes substituted and saved in h, DataCRC computed, header encoded.
func sealRecord(h *RecordHeader, img []byte) error {
	payload := img[geom.SectorSize:]
	for i := range h.Blocks {
		h.Blocks[i].FirstDataByte = payload[i*geom.SectorSize]
		payload[i*geom.SectorSize] = dataFirstByte
	}
	h.DataCRC = crc32.ChecksumIEEE(payload)
	return h.encodeInto(img)
}

// ExtractData reverses BuildRecord for a record image read back from the log
// disk: it verifies the data checksum and restores the displaced first
// bytes. The returned slice aliases payload storage in img.
func ExtractData(h *RecordHeader, img []byte) ([]byte, error) {
	n := len(h.Blocks)
	if len(img) < (n+1)*geom.SectorSize {
		return nil, fmt.Errorf("%w: image holds %d bytes for %d blocks", ErrTornRecord, len(img), n)
	}
	payload := img[geom.SectorSize : (n+1)*geom.SectorSize]
	if err := checkPayload(h, payload); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		payload[i*geom.SectorSize] = h.Blocks[i].FirstDataByte
	}
	return payload, nil
}

// checkPayload verifies a record's data sectors in place: checksum, markers.
func checkPayload(h *RecordHeader, payload []byte) error {
	if crc32.ChecksumIEEE(payload) != h.DataCRC {
		return ErrTornRecord
	}
	for i := range h.Blocks {
		if payload[i*geom.SectorSize] != dataFirstByte {
			return fmt.Errorf("%w: block %d marker byte %#x", ErrTornRecord, i, payload[i*geom.SectorSize])
		}
	}
	return nil
}

// HeaderTracks returns the reserved track indices holding the disk header
// and its replicas, in preference order: the first, middle and last tracks
// ("replicated at several other places on the disk to improve the
// robustness", §3.2).
func HeaderTracks(g *geom.Geometry) [3]int {
	n := g.TotalTracks()
	return [3]int{0, n / 2, n - 1}
}

// HeaderLBAs returns the log LBAs of the header sector copies.
func HeaderLBAs(g *geom.Geometry) [3]int64 {
	tracks := HeaderTracks(g)
	var out [3]int64
	for i, tr := range tracks {
		cyl, head := g.TrackOf(tr)
		out[i] = g.TrackStartLBA(cyl, head)
	}
	return out
}

// UsableTrack returns the track at index i of the allocator's circular
// order: every track but the header tracks, ascending. It and
// NumUsableTracks are arithmetic, so no table the size of the disk is built.
func UsableTrack(g *geom.Geometry, i int) int {
	h := HeaderTracks(g)
	for k, r := range h { // ascending; on a small disk they coincide
		if (k == 0 || r != h[k-1]) && i >= r {
			i++
		}
	}
	return i
}

// NumUsableTracks returns how many tracks the allocator cycles through:
// mapping index n, past the last track, steps over every header track once.
func NumUsableTracks(g *geom.Geometry) int {
	n := g.TotalTracks()
	return n - (UsableTrack(g, n) - n)
}
