// Package fslite implements a small EXT2-like file system on a block
// device: a superblock, an inode table, a block allocation bitmap, a flat
// root directory, and direct+indirect block addressing.
//
// It exists to ground the paper's file-system-level claims: the system
// under test runs "EXT2" over either disk subsystem, and O_SYNC file writes
// on EXT2 pay extra synchronous metadata writes (inode, bitmap, indirect
// blocks) that metadata-journaling systems eliminate only for metadata.
// Trail accelerates those writes transparently along with the data — the
// §2 argument that Trail "is more general as it transparently applies the
// logging technique to all data blocks".
//
// The layout is deliberately simple (no groups, no journaling) but the
// write paths issue the same kinds of synchronous I/O an early-2000s EXT2
// would under O_SYNC.
package fslite

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tracklog/internal/blockdev"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// Layout constants.
const (
	// BlockSectors is the file system block size in sectors (4 KiB blocks).
	BlockSectors = 8
	// BlockSize is the block size in bytes.
	BlockSize = BlockSectors * geom.SectorSize

	// MaxNameLen bounds directory entry names.
	MaxNameLen = 59

	// directs is the number of direct block pointers per inode; one
	// single-indirect block extends files to ~4 MB.
	directs = 12
	// indirectSlots is the number of block pointers in an indirect block.
	indirectSlots = BlockSize / 8

	// MaxFileSize is the largest representable file.
	MaxFileSize = (directs + indirectSlots) * BlockSize

	inodeSize      = 128
	inodesPerBlock = BlockSize / inodeSize

	magic = 0x7EA11F5 // "TRAILFS"
)

// Errors.
var (
	// ErrNotFormatted means no valid superblock was found.
	ErrNotFormatted = errors.New("fslite: device not formatted")
	// ErrNotFound means the file does not exist.
	ErrNotFound = errors.New("fslite: file not found")
	// ErrExists means the file already exists.
	ErrExists = errors.New("fslite: file exists")
	// ErrNoSpace means the device or a table is full.
	ErrNoSpace = errors.New("fslite: no space")
	// ErrTooBig means a write extends past MaxFileSize.
	ErrTooBig = errors.New("fslite: file too large")
	// ErrBadName rejects invalid file names.
	ErrBadName = errors.New("fslite: bad file name")
)

// superblock is block 0.
type superblock struct {
	magic        uint64
	blocks       int64 // total file system blocks
	inodeBlocks  int64 // inode table size in blocks
	bitmapBlocks int64
	// Layout: [0]=super, [1..bitmapBlocks]=bitmap,
	// [..+inodeBlocks]=inodes, rest=data.
}

func (sb *superblock) bitmapStart() int64 { return 1 }
func (sb *superblock) inodeStart() int64  { return 1 + sb.bitmapBlocks }
func (sb *superblock) dataStart() int64   { return sb.inodeStart() + sb.inodeBlocks }
func (sb *superblock) inodeCount() int64  { return sb.inodeBlocks * inodesPerBlock }

// inode is an on-disk file descriptor. Inode 0 is the root directory.
type inode struct {
	used     bool
	size     int64
	mtime    int64 // virtual ns
	direct   [directs]int64
	indirect int64
}

// FS is a mounted file system. Not safe for real concurrency; simulated
// processes interleave cooperatively.
type FS struct {
	dev blockdev.Device
	sb  superblock

	// Write-through metadata caches: every mutation is synchronously
	// written to the device (O_SYNC semantics), but reads are served from
	// memory once loaded, as the kernel's caches would.
	bitmap   []bool
	bitmapOK bool
	inodes   map[int64]*inode

	stats Stats
}

// Stats counts synchronous I/O by category, separating data from metadata —
// the quantity the paper's metadata-journaling comparison turns on.
type Stats struct {
	DataWrites, MetaWrites int64
	DataReads, MetaReads   int64
}

// Mkfs formats the device: clears the tables and writes the superblock and
// an empty root directory. Formatting is timed I/O (run it from a process).
func Mkfs(p *sim.Proc, dev blockdev.Device) (*FS, error) {
	blocks := dev.Sectors() / BlockSectors
	if blocks < 16 {
		return nil, fmt.Errorf("fslite: device too small (%d blocks)", blocks)
	}
	sb := superblock{
		magic:        magic,
		blocks:       blocks,
		inodeBlocks:  maxI64(1, blocks/256),
		bitmapBlocks: (blocks + BlockSize*8 - 1) / (BlockSize * 8),
	}
	fs := &FS{dev: dev, sb: sb, inodes: make(map[int64]*inode)}

	// Zero the metadata region.
	zero := make([]byte, BlockSize)
	for b := int64(0); b < sb.dataStart(); b++ {
		if err := fs.writeBlock(p, b, zero, true); err != nil {
			return nil, err
		}
	}
	// Superblock.
	buf := make([]byte, BlockSize)
	le := binary.LittleEndian
	le.PutUint64(buf[0:], magic)
	le.PutUint64(buf[8:], uint64(sb.blocks))
	le.PutUint64(buf[16:], uint64(sb.inodeBlocks))
	le.PutUint64(buf[24:], uint64(sb.bitmapBlocks))
	if err := fs.writeBlock(p, 0, buf, true); err != nil {
		return nil, err
	}
	// Root directory: inode 0, empty.
	fs.bitmap = make([]bool, sb.blocks)
	for b := int64(0); b < sb.dataStart(); b++ {
		fs.bitmap[b] = true
	}
	fs.bitmapOK = true
	root := &inode{used: true}
	fs.inodes[0] = root
	if err := fs.syncInode(p, 0); err != nil {
		return nil, err
	}
	if err := fs.syncBitmap(p); err != nil {
		return nil, err
	}
	return fs, nil
}

// Mount opens a formatted device.
func Mount(p *sim.Proc, dev blockdev.Device) (*FS, error) {
	fs := &FS{dev: dev, inodes: make(map[int64]*inode)}
	buf, err := fs.readBlockRaw(p, 0, true)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	if le.Uint64(buf) != magic {
		return nil, ErrNotFormatted
	}
	fs.sb = superblock{
		magic:        magic,
		blocks:       int64(le.Uint64(buf[8:])),
		inodeBlocks:  int64(le.Uint64(buf[16:])),
		bitmapBlocks: int64(le.Uint64(buf[24:])),
	}
	return fs, nil
}

// Stats returns a copy of the I/O counters.
func (fs *FS) Stats() Stats { return fs.stats }

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Block I/O helpers (meta flag routes the accounting).

func (fs *FS) writeBlock(p *sim.Proc, block int64, data []byte, meta bool) error {
	if meta {
		fs.stats.MetaWrites++
	} else {
		fs.stats.DataWrites++
	}
	return fs.dev.Write(p, block*BlockSectors, BlockSectors, data)
}

func (fs *FS) readBlockRaw(p *sim.Proc, block int64, meta bool) ([]byte, error) {
	if meta {
		fs.stats.MetaReads++
	} else {
		fs.stats.DataReads++
	}
	return fs.dev.Read(p, block*BlockSectors, BlockSectors)
}

// Bitmap management: loaded lazily, every change written through.

func (fs *FS) loadBitmap(p *sim.Proc) error {
	if fs.bitmapOK {
		return nil
	}
	fs.bitmap = make([]bool, fs.sb.blocks)
	for b := int64(0); b < fs.sb.bitmapBlocks; b++ {
		buf, err := fs.readBlockRaw(p, fs.sb.bitmapStart()+b, true)
		if err != nil {
			return err
		}
		for i := 0; i < BlockSize*8; i++ {
			idx := b*BlockSize*8 + int64(i)
			if idx >= fs.sb.blocks {
				break
			}
			fs.bitmap[idx] = buf[i/8]&(1<<(i%8)) != 0
		}
	}
	fs.bitmapOK = true
	return nil
}

// syncBitmapBlock writes through the bitmap block covering block index idx.
func (fs *FS) syncBitmapBlock(p *sim.Proc, idx int64) error {
	b := idx / (BlockSize * 8)
	buf := make([]byte, BlockSize)
	for i := 0; i < BlockSize*8; i++ {
		bit := b*BlockSize*8 + int64(i)
		if bit >= fs.sb.blocks {
			break
		}
		if fs.bitmap[bit] {
			buf[i/8] |= 1 << (i % 8)
		}
	}
	return fs.writeBlock(p, fs.sb.bitmapStart()+b, buf, true)
}

// syncBitmap writes through the whole bitmap.
func (fs *FS) syncBitmap(p *sim.Proc) error {
	for b := int64(0); b < fs.sb.bitmapBlocks; b++ {
		if err := fs.syncBitmapBlock(p, b*BlockSize*8); err != nil {
			return err
		}
	}
	return nil
}

// allocBlock reserves one data block and writes the bitmap through.
func (fs *FS) allocBlock(p *sim.Proc) (int64, error) {
	if err := fs.loadBitmap(p); err != nil {
		return 0, err
	}
	for b := fs.sb.dataStart(); b < fs.sb.blocks; b++ {
		if !fs.bitmap[b] {
			fs.bitmap[b] = true
			if err := fs.syncBitmapBlock(p, b); err != nil {
				return 0, err
			}
			return b, nil
		}
	}
	return 0, ErrNoSpace
}

// Inode management.

func (fs *FS) loadInode(p *sim.Proc, ino int64) (*inode, error) {
	if in, ok := fs.inodes[ino]; ok {
		return in, nil
	}
	if ino < 0 || ino >= fs.sb.inodeCount() {
		return nil, fmt.Errorf("fslite: inode %d out of range", ino)
	}
	blk := fs.sb.inodeStart() + ino/inodesPerBlock
	buf, err := fs.readBlockRaw(p, blk, true)
	if err != nil {
		return nil, err
	}
	off := int(ino%inodesPerBlock) * inodeSize
	le := binary.LittleEndian
	in := &inode{
		used:  buf[off] == 1,
		size:  int64(le.Uint64(buf[off+8:])),
		mtime: int64(le.Uint64(buf[off+16:])),
	}
	for i := 0; i < directs; i++ {
		in.direct[i] = int64(le.Uint64(buf[off+24+8*i:]))
	}
	in.indirect = int64(le.Uint64(buf[off+24+8*directs:]))
	fs.inodes[ino] = in
	return in, nil
}

// syncInode writes an inode through to its table block (read-modify-write
// of the containing block, as a real implementation would).
func (fs *FS) syncInode(p *sim.Proc, ino int64) error {
	in := fs.inodes[ino]
	blk := fs.sb.inodeStart() + ino/inodesPerBlock
	buf, err := fs.readBlockRaw(p, blk, true)
	if err != nil {
		return err
	}
	off := int(ino%inodesPerBlock) * inodeSize
	le := binary.LittleEndian
	if in.used {
		buf[off] = 1
	} else {
		buf[off] = 0
	}
	le.PutUint64(buf[off+8:], uint64(in.size))
	le.PutUint64(buf[off+16:], uint64(in.mtime))
	for i := 0; i < directs; i++ {
		le.PutUint64(buf[off+24+8*i:], uint64(in.direct[i]))
	}
	le.PutUint64(buf[off+24+8*directs:], uint64(in.indirect))
	return fs.writeBlock(p, blk, buf, true)
}

// allocInode finds a free inode slot.
func (fs *FS) allocInode(p *sim.Proc) (int64, error) {
	for ino := int64(1); ino < fs.sb.inodeCount(); ino++ {
		in, err := fs.loadInode(p, ino)
		if err != nil {
			return 0, err
		}
		if !in.used {
			in.used = true
			in.size = 0
			in.direct = [directs]int64{}
			in.indirect = 0
			return ino, nil
		}
	}
	return 0, ErrNoSpace
}
