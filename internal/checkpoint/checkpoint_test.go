package checkpoint

import (
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEncDecRoundTrip(t *testing.T) {
	var e Enc
	e.U64(0xdeadbeefcafef00d)
	e.U32(42)
	e.Bytes([]byte{1, 2, 3})
	e.Str("hello")

	d := NewDec(e.Data())
	if got := d.U64(); got != 0xdeadbeefcafef00d {
		t.Errorf("U64 = %#x", got)
	}
	if got := d.U32(); got != 42 {
		t.Errorf("U32 = %d", got)
	}
	if got := d.Bytes(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("Bytes = %v", got)
	}
	if got := d.Str(); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	if d.Err() != nil {
		t.Fatalf("decode error: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Errorf("%d trailing bytes", d.Remaining())
	}
}

// TestEncPrimitiveBytes pins the bytes of the encode-only primitives. State
// digests hash these bytes and nothing decodes them, so a layout change
// would only show as every pinned digest moving at once.
func TestEncPrimitiveBytes(t *testing.T) {
	for _, c := range []struct {
		name string
		put  func(*Enc)
		want string
	}{
		{"U8", func(e *Enc) { e.U8(0xa5) }, "a5"},
		{"Bool true", func(e *Enc) { e.Bool(true) }, "01"},
		{"Bool false", func(e *Enc) { e.Bool(false) }, "00"},
		{"I64 -2", func(e *Enc) { e.I64(-2) }, "feffffffffffffff"},
		{"I64 258", func(e *Enc) { e.I64(258) }, "0201000000000000"},
		{"U32", func(e *Enc) { e.U32(0x01020304) }, "04030201"},
		{"UVarint 0", func(e *Enc) { e.UVarint(0) }, "00"},
		{"UVarint 127", func(e *Enc) { e.UVarint(127) }, "7f"},
		{"UVarint 128", func(e *Enc) { e.UVarint(128) }, "8001"},
		{"UVarint 300", func(e *Enc) { e.UVarint(300) }, "ac02"},
		{"UVarint max", func(e *Enc) { e.UVarint(math.MaxUint64) }, "ffffffffffffffffff01"},
	} {
		var e Enc
		c.put(&e)
		if got := hex.EncodeToString(e.Data()); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestDecTruncation(t *testing.T) {
	var e Enc
	e.U64(1)
	d := NewDec(e.Data()[:4])
	d.U64()
	if d.Err() == nil {
		t.Fatal("truncated U64 not detected")
	}
	// The error sticks: further reads return zero values, not panics.
	if d.U32() != 0 || d.Str() != "" {
		t.Error("reads after error should return zero values")
	}
}

func TestFileRoundTrip(t *testing.T) {
	f := New()
	f.Add("meta", []byte("meta-payload"))
	f.Add("state", []byte{0, 1, 2, 3, 255})
	f.Add("empty", nil)

	enc := f.Encode()
	g, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if g.Version != Version || len(g.Sections) != 3 {
		t.Fatalf("got version %d, %d sections", g.Version, len(g.Sections))
	}
	if s, ok := g.Section("meta"); !ok || string(s) != "meta-payload" {
		t.Errorf("meta section = %q, %v", s, ok)
	}
	if s, ok := g.Section("state"); !ok || len(s) != 5 {
		t.Errorf("state section = %v, %v", s, ok)
	}
	if _, ok := g.Section("missing"); ok {
		t.Error("missing section found")
	}
}

func TestCorruptionRejected(t *testing.T) {
	f := New()
	f.Add("state", []byte("some simulation state bytes"))
	enc := f.Encode()

	// Flip one payload byte: both the section and the file checksum break.
	for _, pos := range []int{len(Magic) + 20, len(enc) - 9, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[pos] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Errorf("corruption at byte %d not rejected", pos)
		}
	}

	// Truncation at every length is rejected, never a panic.
	for n := 0; n < len(enc); n++ {
		if _, err := Decode(enc[:n]); err == nil {
			t.Fatalf("truncation to %d bytes not rejected", n)
		}
	}

	// Wrong magic.
	bad := append([]byte(nil), enc...)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: err = %v", err)
	}
}

func TestVersionRejected(t *testing.T) {
	f := &File{Version: Version + 1}
	f.Add("state", []byte("x"))
	if _, err := Decode(f.Encode()); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version: err = %v", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "ckpt.bin")

	f := New()
	f.Add("a", []byte("first"))
	if err := WriteFile(path, f); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	g, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if s, _ := g.Section("a"); string(s) != "first" {
		t.Errorf("section a = %q", s)
	}

	// Overwrite: readers see old-complete or new-complete, and no temp
	// files survive a successful write.
	f2 := New()
	f2.Add("a", []byte("second"))
	if err := WriteFile(path, f2); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	g2, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile after overwrite: %v", err)
	}
	if s, _ := g2.Section("a"); string(s) != "second" {
		t.Errorf("after overwrite, section a = %q", s)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

func TestReadFileCorrupted(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	f := New()
	f.Add("state", []byte("payload"))
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("corrupted checkpoint file loaded without error")
	}
}

func TestDigestStable(t *testing.T) {
	// A known vector keeps the digest stable across refactors (on-disk
	// checkpoints depend on it): the FNV offset basis run through the
	// final avalanche. Changing the hash means bumping the format Version.
	if got := Digest(nil); got != 7542948732819846539 {
		t.Errorf("empty digest changed: %d", got)
	}
	if Digest([]byte("a")) == Digest([]byte("b")) {
		t.Error("digest collision on trivial inputs")
	}
	// The word-wide fast path and the byte tail must agree on boundaries:
	// digests of every prefix of a 17-byte pattern must be distinct.
	data := []byte("0123456789abcdefg")
	seen := map[uint64]int{}
	for n := 0; n <= len(data); n++ {
		d := Digest(data[:n])
		if prev, dup := seen[d]; dup {
			t.Errorf("digest collision between prefix lengths %d and %d", prev, n)
		}
		seen[d] = n
	}
	// Any single-bit flip must change the digest, in every word position.
	base := Digest(data)
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			data[i] ^= 1 << bit
			if Digest(data) == base {
				t.Errorf("bit flip at byte %d bit %d not detected", i, bit)
			}
			data[i] ^= 1 << bit
		}
	}
}
