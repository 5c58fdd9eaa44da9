// Package server discharges every wire-buffer obligation — by Release
// on all paths, by deferred Release, or by ownership transfer to the
// dispatcher or a callee that releases later. Zero findings.
package server

import (
	"io"

	"github.com/sharoes/sharoes/internal/analysis/testdata/src/bufreleasegood/internal/wire"
)

// Deferred releases on every path, decode failures included.
func Deferred(r io.Reader) error {
	buf, _, err := wire.ReadFrameBuf(r)
	if err != nil {
		return err
	}
	defer buf.Release()
	return wire.Decode(buf.Bytes())
}

// EveryPath pairs an explicit Release with each return.
func EveryPath(r io.Reader) error {
	buf, _, err := wire.ReadFrameBuf(r)
	if err != nil {
		return err
	}
	if err := wire.Decode(buf.Bytes()); err != nil {
		buf.Release()
		return err
	}
	buf.Release()
	return nil
}

// Dispatched transfers the frame — and its Release — to the worker
// goroutine; Retain reads the handle without discharging the transfer.
func Dispatched(r io.Reader, frames chan<- *wire.Buf) error {
	buf, _, err := wire.ReadFrameBuf(r)
	if err != nil {
		return err
	}
	buf.Retain()
	frames <- buf
	return nil
}

// Returned hands the scratch buffer to the caller.
func Returned(n int) *wire.Buf {
	buf := wire.AcquireBuf(n)
	return buf
}

// HandedOff passes the buffer itself to a callee, which owns its
// Release from then on.
func HandedOff(r io.Reader) error {
	buf, _, err := wire.ReadFrameBuf(r)
	if err != nil {
		return err
	}
	if err := wire.Decode(buf.Bytes()); err != nil {
		buf.Release()
		return err
	}
	consume(buf)
	return nil
}

// consume releases the frame it was handed.
func consume(buf *wire.Buf) { buf.Release() }

// Reused reuses err for the decode and releases before checking it.
func Reused(r io.Reader) error {
	buf, _, err := wire.ReadFrameBuf(r)
	if err != nil {
		return err
	}
	err = wire.Decode(buf.Bytes())
	buf.Release()
	return err
}
