package fslite

import (
	"encoding/binary"
	"fmt"

	"tracklog/internal/sim"
)

// Directory entries live in the root directory's data blocks: 64 bytes
// each — inode(4), nameLen(1), name(<=59).
const dirEntSize = 64

// addDirEntry appends an entry to the root directory, dirtying the
// directory block and the root inode.
func (fs *FS) addDirEntry(p *sim.Proc, name string, ino int64) error {
	root, err := fs.readInode(p, 0)
	if err != nil {
		return err
	}
	blk, err := fs.blockAt(p, &root, root.size, true)
	if err != nil {
		return err
	}
	pg, err := fs.cache.Get(p, blk)
	if err != nil {
		return err
	}
	ent := pg.Data[root.size%BlockSize:]
	binary.LittleEndian.PutUint32(ent, uint32(ino))
	ent[4] = byte(len(name))
	copy(ent[5:dirEntSize], name)
	fs.cache.MarkDirty(pg)
	fs.cache.Release(pg)
	root.size += dirEntSize
	root.mtime = int64(p.Now())
	return fs.writeInode(p, 0, &root)
}

// blockAt maps a byte offset in a file to its data block, allocating the
// block (and the indirect block) when alloc is set.
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
	if in.indirect == 0 {
		if !alloc {
			return 0, nil
		}
		b, err := fs.allocBlock(p)
		if err != nil {
			return 0, err
		}
		in.indirect = b
	}
	pg, err := fs.cache.Get(p, in.indirect)
	if err != nil {
		return 0, err
	}
	defer fs.cache.Release(pg)
	slot := pg.Data[(idx-directs)*8:]
	blk := int64(binary.LittleEndian.Uint64(slot))
	if blk == 0 && alloc {
		if blk, err = fs.allocBlock(p); err != nil {
			return 0, err
		}
		binary.LittleEndian.PutUint64(slot, uint64(blk))
		fs.cache.MarkDirty(pg)
	}
	return blk, nil
}

// File is an open file handle. Every write is O_SYNC: it returns only after
// the data block(s) AND the touched metadata are durable.
type File struct {
	fs  *FS
	ino int64
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
	if err := fs.addDirEntry(p, name, ino); err != nil {
		return nil, err
	}
	if err := fs.cache.FlushAll(p); err != nil {
		return nil, err
	}
	return &File{fs: fs, ino: ino}, nil
}

// Lookup returns the inode number of name.
func (fs *FS) Lookup(p *sim.Proc, name string) (int64, error) {
	root, err := fs.readInode(p, 0)
	if err != nil {
		return 0, err
	}
	for off := int64(0); off < root.size; off += BlockSize {
		blk, err := fs.blockAt(p, &root, off, false)
		if err != nil {
			return 0, err
		}
		if blk == 0 {
			continue
		}
		pg, err := fs.cache.Get(p, blk)
		if err != nil {
			return 0, err
		}
		n := int(min(BlockSize, root.size-off)) / dirEntSize
		for i := 0; i < n; i++ {
			e := pg.Data[i*dirEntSize:]
			ino := int64(binary.LittleEndian.Uint32(e))
			nameLen := int(e[4])
			if ino != 0 && nameLen > 0 && nameLen <= MaxNameLen && string(e[5:5+nameLen]) == name {
				fs.cache.Release(pg)
				return ino, nil
			}
		}
		fs.cache.Release(pg)
	}
	return 0, fmt.Errorf("%w: %q", ErrNotFound, name)
}

// Open returns a handle to an existing file.
func (fs *FS) Open(p *sim.Proc, name string) (*File, error) {
	ino, err := fs.Lookup(p, name)
	if err != nil {
		return nil, err
	}
	return &File{fs: fs, ino: ino}, nil
}

// Size returns the file's length in bytes.
func (f *File) Size(p *sim.Proc) (int64, error) {
	in, err := f.fs.readInode(p, f.ino)
	return in.size, err
}

// WriteAt writes data at the byte offset. On return the data blocks and all
// touched metadata are durable — which on a standard subsystem means several
// random synchronous writes, and on Trail means several fast log appends.
func (f *File) WriteAt(p *sim.Proc, off int64, data []byte) error {
	if off < 0 || off+int64(len(data)) > MaxFileSize {
		return ErrTooBig
	}
	fs := f.fs
	in, err := fs.readInode(p, f.ino)
	if err != nil {
		return err
	}
	for pos, rest := off, data; len(rest) > 0; {
		blk, err := fs.blockAt(p, &in, pos, true)
		if err != nil {
			return err
		}
		n := min(len(rest), int(BlockSize-pos%BlockSize))
		get := fs.cache.Get
		if n == BlockSize {
			get = fs.cache.GetZero
		}
		pg, err := get(p, blk)
		if err != nil {
			return err
		}
		copy(pg.Data[pos%BlockSize:], rest[:n])
		fs.cache.MarkDirty(pg)
		fs.cache.Release(pg)
		fs.dataWrites++
		pos += int64(n)
		rest = rest[n:]
	}
	in.size = max(in.size, off+int64(len(data)))
	in.mtime = int64(p.Now())
	if err := fs.writeInode(p, f.ino, &in); err != nil {
		return err
	}
	return fs.cache.FlushAll(p)
}

// Append writes data at the end of the file.
func (f *File) Append(p *sim.Proc, data []byte) error {
	size, err := f.Size(p)
	if err != nil {
		return err
	}
	return f.WriteAt(p, size, data)
}

// ReadAt reads length bytes from the byte offset.
func (f *File) ReadAt(p *sim.Proc, off, length int64) ([]byte, error) {
	in, err := f.fs.readInode(p, f.ino)
	if err != nil {
		return nil, err
	}
	if off >= in.size {
		return nil, nil
	}
	length = min(length, in.size-off)
	out := make([]byte, 0, length)
	for pos := off; int64(len(out)) < length; {
		blk, err := f.fs.blockAt(p, &in, pos, false)
		if err != nil {
			return nil, err
		}
		n := min(BlockSize-pos%BlockSize, length-int64(len(out)))
		if blk == 0 {
			out = append(out, make([]byte, n)...) // hole
		} else {
			pg, err := f.fs.cache.Get(p, blk)
			if err != nil {
				return nil, err
			}
			out = append(out, pg.Data[pos%BlockSize:pos%BlockSize+n]...)
			f.fs.cache.Release(pg)
		}
		pos += n
	}
	return out, nil
}
