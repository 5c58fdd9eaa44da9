package client

import (
	"errors"
	"fmt"
	"io"

	"github.com/sharoes/sharoes/internal/types"
)

// File is an open file handle. Reads come from a local snapshot fetched
// at open; writes accumulate locally and are encrypted and pushed to the
// SSP only when the handle is closed — exactly the paper's prototype
// behaviour ("we cache all writes locally and only encrypt the file
// before sending it to the SSP as the result of a file close", §IV-A1).
//
// A File implements io.Reader, io.Writer, io.Seeker, io.Closer and
// io.ReaderAt/io.WriterAt.
type File struct {
	s      *Session
	path   string
	buf    []byte
	off    int64
	dirty  bool
	write  bool
	closed bool
}

// Open flags.
const (
	// ORead opens for reading only.
	ORead = 1 << iota
	// OWrite opens for reading and writing.
	OWrite
	// OCreate creates the file (with the permission passed to OpenFile)
	// if it does not exist; only meaningful with OWrite.
	OCreate
	// OTrunc truncates the file at open; only meaningful with OWrite.
	OTrunc
)

// OpenFile opens path. perm applies only when OCreate creates the file.
func (s *Session) OpenFile(path string, flags int, perm types.Perm) (*File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.beginOp("open")()

	f := &File{s: s, path: path, write: flags&OWrite != 0}
	// A truncating open reads no content; one that may create writes the
	// parent directory.
	with := withContent
	if flags&OTrunc != 0 && f.write {
		with = withManifest
	}
	r, at, m, pre, err := s.resolveObject(path, with, flags&OCreate != 0 && f.write)
	switch {
	case err == nil:
		if m.Attr.Kind != types.KindFile {
			return nil, pathErr("open", path, types.ErrIsDir)
		}
		trip := s.triplet(m.Attr)
		if !trip.CanRead() {
			// Open-for-write of an unreadable file would still need the
			// current content for partial writes; like the paper's
			// prototype (and unlike POSIX O_WRONLY) we require read.
			return nil, pathErr("open", path, types.ErrPermission)
		}
		if f.write && (!trip.CanWrite() || m.Keys.DSK.IsZero()) {
			return nil, pathErr("open", path, types.ErrPermission)
		}
		if flags&OTrunc != 0 && f.write {
			f.buf = nil
			f.dirty = true
		} else {
			content, rerr := s.readContent(r, m, pre)
			if rerr != nil {
				return nil, pathErr("open", path, rerr)
			}
			f.buf = content
		}
	case errors.Is(err, types.ErrNotExist) && flags&OCreate != 0 && f.write:
		if _, cerr := s.createObject(path, at, pre, perm, types.KindFile, []byte{}); cerr != nil {
			return nil, pathErr("open", path, cerr)
		}
		f.buf = nil
		f.dirty = false
	default:
		return nil, pathErr("open", path, err)
	}
	return f, nil
}

// Read implements io.Reader.
func (f *File) Read(p []byte) (int, error) {
	if f.closed {
		return 0, types.ErrClosed
	}
	if f.off >= int64(len(f.buf)) {
		return 0, io.EOF
	}
	n := copy(p, f.buf[f.off:])
	f.off += int64(n)
	return n, nil
}

// ReadAt implements io.ReaderAt.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, types.ErrClosed
	}
	if off < 0 || off >= int64(len(f.buf)) {
		return 0, io.EOF
	}
	n := copy(p, f.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Write implements io.Writer, writing at the current offset and extending
// the file as needed. Nothing reaches the SSP until Close.
func (f *File) Write(p []byte) (int, error) {
	n, err := f.WriteAt(p, f.off)
	f.off += int64(n)
	return n, err
}

// WriteAt implements io.WriterAt.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, types.ErrClosed
	}
	if !f.write {
		return 0, types.ErrPermission
	}
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset", types.ErrInvalidPath)
	}
	if need := off + int64(len(p)); need > int64(len(f.buf)) {
		grown := make([]byte, need)
		copy(grown, f.buf)
		f.buf = grown
	}
	copy(f.buf[off:], p)
	f.dirty = true
	return len(p), nil
}

// Seek implements io.Seeker.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	if f.closed {
		return 0, types.ErrClosed
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.off
	case io.SeekEnd:
		base = int64(len(f.buf))
	default:
		return 0, fmt.Errorf("%w: bad whence", types.ErrInvalidPath)
	}
	pos := base + offset
	if pos < 0 {
		return 0, fmt.Errorf("%w: negative position", types.ErrInvalidPath)
	}
	f.off = pos
	return pos, nil
}

// Truncate cuts or extends the buffered content.
func (f *File) Truncate(size int64) error {
	if f.closed {
		return types.ErrClosed
	}
	if !f.write {
		return types.ErrPermission
	}
	if size < 0 {
		return fmt.Errorf("%w: negative size", types.ErrInvalidPath)
	}
	if size <= int64(len(f.buf)) {
		f.buf = f.buf[:size]
	} else {
		grown := make([]byte, size)
		copy(grown, f.buf)
		f.buf = grown
	}
	f.dirty = true
	return nil
}

// Size returns the current (buffered) size.
func (f *File) Size() int64 { return int64(len(f.buf)) }

// Close flushes buffered writes — this is where the paper's prototype
// encrypts the file and sends it to the SSP.
func (f *File) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	if !f.dirty {
		return nil
	}
	return f.s.WriteFile(f.path, f.buf, 0)
}
