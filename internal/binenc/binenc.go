// Package binenc provides the compact binary encoding helpers shared by
// Sharoes metadata, directory-table and superblock codecs. Encodings are
// deterministic (no maps on the wire) because sealed structures are signed.
package binenc

import (
	"bytes"
	"encoding/binary"
	"errors"
)

// ErrTruncated reports a field extending past the end of the buffer.
var ErrTruncated = errors.New("binenc: truncated field")

// Writer appends fields to a buffer.
type Writer struct {
	buf bytes.Buffer
}

// Bytes returns the encoded buffer.
func (w *Writer) Bytes() []byte { return w.buf.Bytes() }

// Len returns the current encoded size.
func (w *Writer) Len() int { return w.buf.Len() }

// Grow makes room for n more bytes, so that fields adding up to at most
// n append without growing the buffer again.
func (w *Writer) Grow(n int) { w.buf.Grow(n) }

// Uvarint appends v.
func (w *Writer) Uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	w.buf.Write(tmp[:n])
}

// Byte appends a single byte.
func (w *Writer) Byte(b byte) { w.buf.WriteByte(b) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf.WriteByte(1)
	} else {
		w.buf.WriteByte(0)
	}
}

// Bytes16 appends a length-prefixed byte string.
func (w *Writer) BytesField(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf.Write(b)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf.WriteString(s)
}

// Raw appends b without a length prefix (for fixed-size fields).
func (w *Writer) Raw(b []byte) { w.buf.Write(b) }

// Reader consumes fields from a buffer.
type Reader struct {
	b []byte
}

// NewReader wraps b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.b) }

// Uvarint consumes a varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.b = r.b[n:]
	return v, nil
}

// Byte consumes one byte.
func (r *Reader) Byte() (byte, error) {
	if len(r.b) == 0 {
		return 0, ErrTruncated
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v, nil
}

// Bool consumes one boolean byte.
func (r *Reader) Bool() (bool, error) {
	b, err := r.Byte()
	return b != 0, err
}

// BytesField consumes a length-prefixed byte string. The result aliases the
// input buffer; copy it if it must outlive the buffer.
func (r *Reader) BytesField() ([]byte, error) {
	save := r.b
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)) {
		// Restore the length prefix: a failed read must consume nothing,
		// or the reader is left mid-field in an unspecified position.
		r.b = save
		return nil, ErrTruncated
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out, nil
}

// String consumes a length-prefixed string.
func (r *Reader) String() (string, error) {
	b, err := r.BytesField()
	return string(b), err
}

// Raw consumes exactly n bytes without a length prefix.
func (r *Reader) Raw(n int) ([]byte, error) {
	if n < 0 || n > len(r.b) {
		return nil, ErrTruncated
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out, nil
}
