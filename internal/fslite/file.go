package fslite

import (
	"encoding/binary"
	"fmt"

	"tracklog/internal/sim"
)

// Directory entries live in the root directory's data blocks: 64 bytes
// each — inode(4), nameLen(1), name(<=59).
const dirEntSize = 64

// dirEntry is an in-memory directory record.
type dirEntry struct {
	ino  int64
	name string
}

// loadDir reads the root directory.
func (fs *FS) loadDir(p *sim.Proc) ([]dirEntry, error) {
	root, err := fs.loadInode(p, 0)
	if err != nil {
		return nil, err
	}
	var out []dirEntry
	for off := int64(0); off < root.size; off += BlockSize {
		blk, err := fs.blockAt(p, root, off, false)
		if err != nil {
			return nil, err
		}
		if blk == 0 {
			continue
		}
		buf, err := fs.readBlockRaw(p, blk, true)
		if err != nil {
			return nil, err
		}
		n := int(min(BlockSize, root.size-off)) / dirEntSize
		for i := 0; i < n; i++ {
			e := buf[i*dirEntSize:]
			ino := int64(binary.LittleEndian.Uint32(e))
			nameLen := int(e[4])
			if ino == 0 || nameLen == 0 || nameLen > MaxNameLen {
				continue
			}
			out = append(out, dirEntry{ino: ino, name: string(e[5 : 5+nameLen])})
		}
	}
	return out, nil
}

// addDirEntry appends an entry to the root directory (synchronous metadata
// writes: directory block + root inode).
func (fs *FS) addDirEntry(p *sim.Proc, name string, ino int64) error {
	root, err := fs.loadInode(p, 0)
	if err != nil {
		return err
	}
	ent := make([]byte, dirEntSize)
	binary.LittleEndian.PutUint32(ent, uint32(ino))
	ent[4] = byte(len(name))
	copy(ent[5:], name)

	off := root.size
	blk, err := fs.blockAt(p, root, off, true)
	if err != nil {
		return err
	}
	buf, err := fs.readBlockRaw(p, blk, true)
	if err != nil {
		return err
	}
	copy(buf[off%BlockSize:], ent)
	if err := fs.writeBlock(p, blk, buf, true); err != nil {
		return err
	}
	root.size += dirEntSize
	root.mtime = int64(p.Now())
	return fs.syncInode(p, 0)
}

// blockAt maps a byte offset in a file to its data block, allocating the
// block (and the indirect block) when alloc is set. Allocation writes the
// bitmap and any new indirect block synchronously.
func (fs *FS) blockAt(p *sim.Proc, in *inode, off int64, alloc bool) (int64, error) {
	if off >= MaxFileSize {
		return 0, ErrTooBig
	}
	idx := off / BlockSize
	if idx < directs {
		if in.direct[idx] == 0 && alloc {
			b, err := fs.allocBlock(p)
			if err != nil {
				return 0, err
			}
			in.direct[idx] = b
		}
		return in.direct[idx], nil
	}
	// Indirect.
	slot := idx - directs
	if in.indirect == 0 {
		if !alloc {
			return 0, nil
		}
		b, err := fs.allocBlock(p)
		if err != nil {
			return 0, err
		}
		in.indirect = b
		if err := fs.writeBlock(p, b, make([]byte, BlockSize), true); err != nil {
			return 0, err
		}
	}
	buf, err := fs.readBlockRaw(p, in.indirect, true)
	if err != nil {
		return 0, err
	}
	le := binary.LittleEndian
	blk := int64(le.Uint64(buf[slot*8:]))
	if blk == 0 && alloc {
		b, err := fs.allocBlock(p)
		if err != nil {
			return 0, err
		}
		le.PutUint64(buf[slot*8:], uint64(b))
		if err := fs.writeBlock(p, in.indirect, buf, true); err != nil {
			return 0, err
		}
		blk = b
	}
	return blk, nil
}

// File is an open file handle.
type File struct {
	fs   *FS
	ino  int64
	name string
	// Sync selects O_SYNC semantics: every Write returns only after the
	// data block(s) AND the touched metadata are durable. Without it,
	// writes still go to the device but metadata syncs are batched into
	// Close (an approximation of delayed write-back).
	Sync bool
}

// validName checks a file name.
func validName(name string) error {
	if name == "" || len(name) > MaxNameLen {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return nil
}

// Create makes a new empty file.
func (fs *FS) Create(p *sim.Proc, name string) (*File, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	if _, err := fs.Lookup(p, name); err == nil {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	ino, err := fs.allocInode(p)
	if err != nil {
		return nil, err
	}
	if err := fs.syncInode(p, ino); err != nil {
		return nil, err
	}
	if err := fs.addDirEntry(p, name, ino); err != nil {
		return nil, err
	}
	return &File{fs: fs, ino: ino, name: name}, nil
}

// Lookup returns the inode number of name.
func (fs *FS) Lookup(p *sim.Proc, name string) (int64, error) {
	ents, err := fs.loadDir(p)
	if err != nil {
		return 0, err
	}
	for _, e := range ents {
		if e.name == name {
			return e.ino, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrNotFound, name)
}

// Open returns a handle to an existing file.
func (fs *FS) Open(p *sim.Proc, name string) (*File, error) {
	ino, err := fs.Lookup(p, name)
	if err != nil {
		return nil, err
	}
	return &File{fs: fs, ino: ino, name: name}, nil
}

// Size returns the file's length in bytes.
func (f *File) Size(p *sim.Proc) (int64, error) {
	in, err := f.fs.loadInode(p, f.ino)
	if err != nil {
		return 0, err
	}
	return in.size, nil
}

// WriteAt writes data at the byte offset (block-aligned writes avoid the
// read-modify-write of partial blocks). Under Sync, the data blocks and all
// touched metadata are durable on return — which on a standard subsystem
// means several random synchronous writes, and on Trail means several fast
// log appends.
func (f *File) WriteAt(p *sim.Proc, off int64, data []byte) error {
	if off < 0 || off+int64(len(data)) > MaxFileSize {
		return ErrTooBig
	}
	in, err := f.fs.loadInode(p, f.ino)
	if err != nil {
		return err
	}
	remaining := data
	pos := off
	for len(remaining) > 0 {
		blk, err := f.fs.blockAt(p, in, pos, true)
		if err != nil {
			return err
		}
		inBlock := int(BlockSize - pos%BlockSize)
		n := len(remaining)
		if n > inBlock {
			n = inBlock
		}
		var buf []byte
		if n == BlockSize {
			buf = remaining[:BlockSize]
		} else {
			// Partial block: read-modify-write.
			buf, err = f.fs.readBlockRaw(p, blk, false)
			if err != nil {
				return err
			}
			copy(buf[pos%BlockSize:], remaining[:n])
		}
		if err := f.fs.writeBlock(p, blk, buf, false); err != nil {
			return err
		}
		pos += int64(n)
		remaining = remaining[n:]
	}
	if pos > in.size {
		in.size = pos
	}
	in.mtime = int64(p.Now())
	if f.Sync {
		return f.fs.syncInode(p, f.ino)
	}
	return nil
}

// Append writes data at the end of the file.
func (f *File) Append(p *sim.Proc, data []byte) error {
	in, err := f.fs.loadInode(p, f.ino)
	if err != nil {
		return err
	}
	return f.WriteAt(p, in.size, data)
}

// ReadAt reads length bytes from the byte offset.
func (f *File) ReadAt(p *sim.Proc, off, length int64) ([]byte, error) {
	in, err := f.fs.loadInode(p, f.ino)
	if err != nil {
		return nil, err
	}
	if off >= in.size {
		return nil, nil
	}
	if off+length > in.size {
		length = in.size - off
	}
	out := make([]byte, 0, length)
	pos := off
	for int64(len(out)) < length {
		blk, err := f.fs.blockAt(p, in, pos, false)
		if err != nil {
			return nil, err
		}
		inBlock := BlockSize - pos%BlockSize
		n := min(inBlock, length-int64(len(out)))
		if blk == 0 {
			out = append(out, make([]byte, n)...) // hole
		} else {
			buf, err := f.fs.readBlockRaw(p, blk, false)
			if err != nil {
				return nil, err
			}
			out = append(out, buf[pos%BlockSize:pos%BlockSize+n]...)
		}
		pos += n
	}
	return out, nil
}

// Close flushes the file's metadata (for non-Sync handles).
func (f *File) Close(p *sim.Proc) error {
	return f.fs.syncInode(p, f.ino)
}
