// Package checkpoint implements the simulator's snapshot container: a
// versioned, checksummed binary format holding named sections, the primitive
// encoder that state digests hash, and the crash-consistent file writer
// (temp file + fsync + atomic rename) every results/checkpoint path in the
// repo goes through.
//
// The format is deliberately simple — little-endian primitives, length-
// prefixed sections, 64-bit FNV-based checksums per section and over the
// whole file —
// so a corrupted or truncated snapshot is always rejected by checksum or
// bounds check, never silently loaded.
//
// Layout:
//
//	magic "NDPCKPT\n" (8 bytes)
//	version  u32
//	sections u32
//	  per section: nameLen u32 | name | payloadLen u64 | payload | fnv64(payload)
//	fnv64 over everything above (8 bytes)
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Magic identifies a checkpoint file.
const Magic = "NDPCKPT\n"

// Version is the current container format version. Readers reject any other
// version: silently decoding another layout would misread a run's identity or
// its resume marker.
const Version = 1

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Digest returns a 64-bit hash of data: FNV-1a over little-endian 8-byte
// words (with a byte-wise tail and a final avalanche), rather than over
// single bytes. State digests run over multi-megabyte snapshots on the
// auditor's hot path, and the word-wide variant is ~8× faster while still
// detecting any bit flip — every input bit is XORed into the state before a
// multiply. It is the checksum used throughout the container and the digest
// used for state-equality verification.
func Digest(data []byte) uint64 {
	h := uint64(fnvOffset64)
	for len(data) >= 8 {
		w := binary.LittleEndian.Uint64(data)
		h = (h ^ w) * fnvPrime64
		data = data[8:]
	}
	for _, b := range data {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	// The multiply chain only propagates differences upward; fold the high
	// bits back down so every output bit depends on every input bit.
	h ^= h >> 33
	h *= fnvPrime64
	h ^= h >> 29
	return h
}

// --- primitive codec ------------------------------------------------------

// Enc appends little-endian primitives to a growing buffer. The zero value
// is ready to use.
type Enc struct {
	buf []byte
}

// NewEnc returns an encoder that reuses scratch's backing array (its length
// is reset to zero). Hot paths that encode repeatedly — the auditor's
// determinism probe, periodic checkpoints — pass back the previous buffer so
// multi-megabyte snapshots stop costing an allocation each.
func NewEnc(scratch []byte) *Enc { return &Enc{buf: scratch[:0]} }

// U64 appends v.
func (e *Enc) U64(v uint64) {
	e.buf = append(e.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// U32 appends v.
func (e *Enc) U32(v uint32) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U8 appends v.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends v as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// I64 appends v (two's complement).
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// UVarint appends v in LEB128 form (7 bits per byte, high bit = more).
// Encoders with many small-valued fields on digest hot paths (cache tags,
// LRU stamps) use it to keep snapshot buffers compact.
func (e *Enc) UVarint(v uint64) {
	var tmp [10]byte
	n := 0
	for v >= 0x80 {
		tmp[n] = byte(v) | 0x80
		v >>= 7
		n++
	}
	tmp[n] = byte(v)
	e.buf = append(e.buf, tmp[:n+1]...)
}

// Bytes appends b length-prefixed.
func (e *Enc) Bytes(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Str appends s length-prefixed.
func (e *Enc) Str(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Len returns the number of bytes encoded so far.
func (e *Enc) Len() int { return len(e.buf) }

// Data returns the encoded bytes.
func (e *Enc) Data() []byte { return e.buf }

// Dec reads little-endian primitives from a buffer: the ones the container
// and the checkpoint metadata use. Component snapshot encodings are hashed,
// never decoded, so Dec has no counterpart for U8, Bool, I64 or UVarint. The
// first decode error sticks; check Err once after the reads (mirrors the Enc
// call sequence).
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over data.
func NewDec(data []byte) *Dec { return &Dec{buf: data} }

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) || d.off+n < d.off {
		d.err = fmt.Errorf("checkpoint: truncated at offset %d (want %d bytes of %d)", d.off, n, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U64 reads one uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// U32 reads one uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// Bytes reads one length-prefixed byte slice (copied out of the buffer).
func (d *Dec) Bytes() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.err = fmt.Errorf("checkpoint: byte slice length %d exceeds remaining %d", n, len(d.buf)-d.off)
		return nil
	}
	b := d.take(int(n))
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Str reads one length-prefixed string.
func (d *Dec) Str() string { return string(d.Bytes()) }

// Err returns the first decode error, or nil.
func (d *Dec) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// --- section container ----------------------------------------------------

// Section is one named payload inside a checkpoint file.
type Section struct {
	Name string
	Data []byte
}

// File is an in-memory checkpoint: an ordered list of named sections.
type File struct {
	Version  uint32
	Sections []Section
}

// New returns an empty file at the current format version.
func New() *File { return &File{Version: Version} }

// Add appends a section. Section order is part of the format (and of the
// whole-file digest), so writers must add sections deterministically.
func (f *File) Add(name string, data []byte) {
	f.Sections = append(f.Sections, Section{Name: name, Data: data})
}

// Section returns the payload of the first section called name.
func (f *File) Section(name string) ([]byte, bool) {
	for _, s := range f.Sections {
		if s.Name == name {
			return s.Data, true
		}
	}
	return nil, false
}

// Encode serializes the file with per-section and whole-file checksums.
func (f *File) Encode() []byte {
	var e Enc
	e.buf = append(e.buf, Magic...)
	e.U32(f.Version)
	e.U32(uint32(len(f.Sections)))
	for _, s := range f.Sections {
		e.Str(s.Name)
		e.Bytes(s.Data)
		e.U64(Digest(s.Data))
	}
	e.U64(Digest(e.buf))
	return e.buf
}

// Decode parses and verifies data. Any mismatch — magic, version, section
// checksum, whole-file checksum, truncation — is an error; a corrupted
// snapshot is never partially decoded.
func Decode(data []byte) (*File, error) {
	if len(data) < len(Magic)+4+4+8 {
		return nil, fmt.Errorf("checkpoint: file too short (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", data[:len(Magic)])
	}
	body, sum := data[:len(data)-8], data[len(data)-8:]
	want := uint64(sum[0]) | uint64(sum[1])<<8 | uint64(sum[2])<<16 | uint64(sum[3])<<24 |
		uint64(sum[4])<<32 | uint64(sum[5])<<40 | uint64(sum[6])<<48 | uint64(sum[7])<<56
	if got := Digest(body); got != want {
		return nil, fmt.Errorf("checkpoint: file checksum mismatch (got %#x, want %#x)", got, want)
	}
	d := NewDec(body[len(Magic):])
	f := &File{Version: d.U32()}
	if d.err == nil && f.Version != Version {
		return nil, fmt.Errorf("checkpoint: unsupported format version %d (want %d)", f.Version, Version)
	}
	n := d.U32()
	for i := uint32(0); i < n && d.err == nil; i++ {
		name := d.Str()
		payload := d.Bytes()
		csum := d.U64()
		if d.err != nil {
			break
		}
		if got := Digest(payload); got != csum {
			return nil, fmt.Errorf("checkpoint: section %q checksum mismatch (got %#x, want %#x)", name, got, csum)
		}
		f.Sections = append(f.Sections, Section{Name: name, Data: payload})
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after %d sections", d.Remaining(), n)
	}
	return f, nil
}

// --- crash-consistent file I/O -------------------------------------------

// FS is the filesystem surface WriteFileAtomic runs on. The default is the
// real OS; tests and the chaos engine's crash-point torture swap in shims
// (via SwapFS) that fail or cut the sequence at chosen steps, so the
// crash-consistency claim below is checkable rather than assumed.
type FS interface {
	MkdirAll(dir string, perm os.FileMode) error
	CreateTemp(dir, pattern string) (FileHandle, error)
	Chmod(name string, mode os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir fsyncs a directory so a completed rename survives a crash.
	SyncDir(dir string) error
}

// FileHandle is the open-temp-file surface of FS.
type FileHandle interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// osFS is the real filesystem.
type osFS struct{}

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }
func (osFS) CreateTemp(dir, pattern string) (FileHandle, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}
func (osFS) Chmod(name string, mode os.FileMode) error { return os.Chmod(name, mode) }
func (osFS) Rename(oldpath, newpath string) error      { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                  { return os.Remove(name) }
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	if err := d.Close(); err != nil {
		return err
	}
	return syncErr
}

// activeFS holds the FS every writer in the package goes through. It is an
// atomic.Value because experiment workers write checkpoints concurrently;
// swapping is still a whole-process affair, so tests that swap must not run
// parallel to other writers (the chaos harness serializes its torture runs).
// The box keeps the stored concrete type constant across swaps, which
// atomic.Value requires.
type fsBox struct{ fs FS }

var activeFS atomic.Value

func init() { activeFS.Store(fsBox{osFS{}}) }

// SwapFS installs fs as the filesystem behind WriteFileAtomic and returns
// the previous one. Pass nil to restore the real OS. Callers must restore
// the previous FS when done (defer SwapFS(prev)).
func SwapFS(fs FS) FS {
	if fs == nil {
		fs = osFS{}
	}
	return activeFS.Swap(fsBox{fs}).(fsBox).fs
}

func fs() FS { return activeFS.Load().(fsBox).fs }

// WriteFileAtomic writes data to path crash-consistently: the bytes go to a
// unique temp file in the same directory, are fsynced, and the temp file is
// renamed over path; the directory is fsynced afterwards so the rename
// itself survives a crash. Readers therefore see either the old complete
// file or the new complete file, never a truncated mix.
//
// Every error path removes the temp file, so a failed write leaves no
// *.tmp* litter; and every error — including a failed directory fsync,
// which would let a completed rename vanish in a power cut — reaches the
// caller, because the caller asked for crash consistency.
func WriteFileAtomic(path string, data []byte) error {
	fsys := fs()
	dir := filepath.Dir(path)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() { fsys.Remove(tmpName) }
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return err
	}
	// CreateTemp uses 0600; match the permissions a plain os.Create would
	// have given the final file (modulo umask).
	if err := fsys.Chmod(tmpName, 0o644); err != nil {
		cleanup()
		return err
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		cleanup()
		return err
	}
	return fsys.SyncDir(dir)
}

// WriteFile encodes f and writes it crash-consistently to path.
func WriteFile(path string, f *File) error {
	return WriteFileAtomic(path, f.Encode())
}

// ReadFile loads and verifies the checkpoint at path.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
