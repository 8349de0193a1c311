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
// would under O_SYNC: every block goes through one buffer cache, and every
// operation that changes the file system writes each block it dirtied
// before it returns.
package fslite

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tracklog/internal/blockdev"
	"tracklog/internal/bufcache"
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
	// single-indirect block extends files to ~2 MB.
	directs = 12
	// indirectSlots is the number of block pointers in an indirect block.
	indirectSlots = BlockSize / 8

	// MaxFileSize is the largest representable file.
	MaxFileSize = (directs + indirectSlots) * BlockSize

	inodeSize      = 128
	inodesPerBlock = BlockSize / inodeSize
	bitsPerBlock   = BlockSize * 8

	// cachePages is the buffer cache's size in blocks: 1 MB, a FileDevice's size.
	cachePages = 256

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
// processes interleave cooperatively, but two operations that change one
// file, or two Creates, must not overlap: each edits its own copy of the
// inode and writes it back.
type FS struct {
	cache *bufcache.Cache
	sb    superblock
	// dataWrites counts the file data blocks written: each block a WriteAt
	// covers is dirtied once and written once, by its flush or an eviction.
	dataWrites int64
}

// Stats counts synchronous writes by category, separating data from
// metadata — the quantity the paper's metadata-journaling comparison turns
// on.
type Stats struct {
	DataWrites, MetaWrites int64
}

// Mkfs formats the device: zeroed tables, the superblock, the bitmap with
// the metadata region in use, and an empty root directory. Formatting is
// timed I/O (run it from a process).
func Mkfs(p *sim.Proc, dev blockdev.Device) (*FS, error) {
	blocks := dev.Sectors() / BlockSectors
	if blocks < 16 {
		return nil, fmt.Errorf("fslite: device too small (%d blocks)", blocks)
	}
	sb := superblock{
		magic:        magic,
		blocks:       blocks,
		inodeBlocks:  max(1, blocks/256),
		bitmapBlocks: (blocks + bitsPerBlock - 1) / bitsPerBlock,
	}
	fs := &FS{cache: bufcache.New(dev, cachePages), sb: sb}
	le := binary.LittleEndian
	for b := int64(0); b < sb.dataStart(); b++ {
		pg, err := fs.cache.GetZero(p, b)
		if err != nil {
			return nil, err
		}
		if b == 0 {
			le.PutUint64(pg.Data[0:], magic)
			le.PutUint64(pg.Data[8:], uint64(sb.blocks))
			le.PutUint64(pg.Data[16:], uint64(sb.inodeBlocks))
			le.PutUint64(pg.Data[24:], uint64(sb.bitmapBlocks))
		}
		if b >= sb.bitmapStart() && b < sb.inodeStart() {
			first := (b - sb.bitmapStart()) * bitsPerBlock
			for i := int64(0); i < min(sb.dataStart()-first, bitsPerBlock); i++ {
				pg.Data[i/8] |= 1 << (i % 8)
			}
		}
		fs.cache.MarkDirty(pg)
		fs.cache.Release(pg)
	}
	if err := fs.writeInode(p, 0, &inode{used: true}); err != nil {
		return nil, err
	}
	if err := fs.cache.FlushAll(p); err != nil {
		return nil, err
	}
	return fs, nil
}

// Mount opens a formatted device.
func Mount(p *sim.Proc, dev blockdev.Device) (*FS, error) {
	fs := &FS{cache: bufcache.New(dev, cachePages)}
	pg, err := fs.cache.Get(p, 0)
	if err != nil {
		return nil, err
	}
	defer fs.cache.Release(pg)
	le := binary.LittleEndian
	if le.Uint64(pg.Data) != magic {
		return nil, ErrNotFormatted
	}
	fs.sb = superblock{
		magic:        magic,
		blocks:       int64(le.Uint64(pg.Data[8:])),
		inodeBlocks:  int64(le.Uint64(pg.Data[16:])),
		bitmapBlocks: int64(le.Uint64(pg.Data[24:])),
	}
	return fs, nil
}

// Stats returns the write counters: every block the cache wrote that was
// not file data was metadata.
func (fs *FS) Stats() Stats {
	return Stats{DataWrites: fs.dataWrites, MetaWrites: fs.cache.Stats().DirtyWrites - fs.dataWrites}
}

// allocBlock reserves the first free data block in the bitmap and caches it
// zeroed and dirty, so a write to part of it reads nothing.
func (fs *FS) allocBlock(p *sim.Proc) (int64, error) {
	for b := fs.sb.dataStart(); b < fs.sb.blocks; {
		pg, err := fs.cache.Get(p, fs.sb.bitmapStart()+b/bitsPerBlock)
		if err != nil {
			return 0, err
		}
		for end := min(fs.sb.blocks, (b/bitsPerBlock+1)*bitsPerBlock); b < end; b++ {
			i := b % bitsPerBlock
			if pg.Data[i/8]&(1<<(i%8)) != 0 {
				continue
			}
			pg.Data[i/8] |= 1 << (i % 8)
			fs.cache.MarkDirty(pg)
			fs.cache.Release(pg)
			fresh, err := fs.cache.GetZero(p, b)
			if err != nil {
				return 0, err
			}
			fs.cache.MarkDirty(fresh)
			fs.cache.Release(fresh)
			return b, nil
		}
		fs.cache.Release(pg)
	}
	return 0, ErrNoSpace
}

// inodeSlot pins the inode table block holding ino and returns it with
// ino's bytes in it.
func (fs *FS) inodeSlot(p *sim.Proc, ino int64) (*bufcache.Page, []byte, error) {
	if ino < 0 || ino >= fs.sb.inodeCount() {
		return nil, nil, fmt.Errorf("fslite: inode %d out of range", ino)
	}
	pg, err := fs.cache.Get(p, fs.sb.inodeStart()+ino/inodesPerBlock)
	if err != nil {
		return nil, nil, err
	}
	off := int(ino%inodesPerBlock) * inodeSize
	return pg, pg.Data[off : off+inodeSize], nil
}

// readInode decodes ino from its inode table block.
func (fs *FS) readInode(p *sim.Proc, ino int64) (inode, error) {
	pg, b, err := fs.inodeSlot(p, ino)
	if err != nil {
		return inode{}, err
	}
	defer fs.cache.Release(pg)
	le := binary.LittleEndian
	in := inode{
		used:     b[0] == 1,
		size:     int64(le.Uint64(b[8:])),
		mtime:    int64(le.Uint64(b[16:])),
		indirect: int64(le.Uint64(b[24+8*directs:])),
	}
	for i := range in.direct {
		in.direct[i] = int64(le.Uint64(b[24+8*i:]))
	}
	return in, nil
}

// writeInode encodes in into ino's inode table block and marks it dirty.
func (fs *FS) writeInode(p *sim.Proc, ino int64, in *inode) error {
	pg, b, err := fs.inodeSlot(p, ino)
	if err != nil {
		return err
	}
	le := binary.LittleEndian
	b[0] = 0
	if in.used {
		b[0] = 1
	}
	le.PutUint64(b[8:], uint64(in.size))
	le.PutUint64(b[16:], uint64(in.mtime))
	for i, d := range in.direct {
		le.PutUint64(b[24+8*i:], uint64(d))
	}
	le.PutUint64(b[24+8*directs:], uint64(in.indirect))
	fs.cache.MarkDirty(pg)
	fs.cache.Release(pg)
	return nil
}

// allocInode claims a free inode slot.
func (fs *FS) allocInode(p *sim.Proc) (int64, error) {
	for ino := int64(1); ino < fs.sb.inodeCount(); ino++ {
		in, err := fs.readInode(p, ino)
		if err != nil {
			return 0, err
		}
		if !in.used {
			return ino, fs.writeInode(p, ino, &inode{used: true})
		}
	}
	return 0, ErrNoSpace
}
