// Package server leaks pooled wire buffers on specific paths. Expected
// findings, one per function, each reported at the acquisition:
//
//  1. EmptyFrame leaks the frame on the zero-length reject return
//  2. AcquireLost leaks the scratch buffer on the early return
//  3. BranchMiss releases in one branch and leaks on fall-through
//  4. FillLost passes buf.Bytes() to a read, then leaks on its failure
//  5. DecodeMiss reuses err for a decode of buf.Bytes(), then releases
//     only on success
package server

import (
	"io"

	"github.com/sharoes/sharoes/internal/analysis/testdata/src/bufreleasebad/internal/wire"
)

// EmptyFrame releases the frame on the happy path but not when the
// length check rejects it — the classic arena leak on a validation
// early-return.
func EmptyFrame(r io.Reader) error {
	buf, n, err := wire.ReadFrameBuf(r) // want resleak: leaked on reject return
	if err != nil {
		return err
	}
	if n == 0 {
		return io.ErrUnexpectedEOF
	}
	buf.Release()
	return nil
}

// AcquireLost grabs a scratch buffer and forgets it when the size check
// trips.
func AcquireLost(n int) error {
	buf := wire.AcquireBuf(n) // want resleak: leaked on early return
	if n > 1<<20 {
		return io.ErrShortBuffer
	}
	buf.Release()
	return nil
}

// BranchMiss releases only on the flush branch.
func BranchMiss(r io.Reader, flush bool) error {
	buf, _, err := wire.ReadFrameBuf(r) // want resleak: leaked on fall-through
	if err != nil {
		return err
	}
	if flush {
		buf.Release()
		return nil
	}
	return nil
}

// FillLost reads into the scratch buffer's bytes and forgets the buffer
// when the read fails: handing buf.Bytes() to a call lends the memory,
// not the Release obligation.
func FillLost(r io.Reader, n int) error {
	buf := wire.AcquireBuf(n) // want resleak: leaked on the failed read
	if _, err := io.ReadFull(r, buf.Bytes()); err != nil {
		return err
	}
	buf.Release()
	return nil
}

// DecodeMiss reuses err for the decode of the frame's bytes and
// releases only after it succeeds: the decode-failure return leaks.
func DecodeMiss(r io.Reader) error {
	buf, _, err := wire.ReadFrameBuf(r) // want resleak: leaked on the decode-failure return
	if err != nil {
		return err
	}
	err = wire.Decode(buf.Bytes())
	if err != nil {
		return err
	}
	buf.Release()
	return nil
}
