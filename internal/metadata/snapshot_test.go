package metadata

import (
	"bytes"
	"testing"

	"ndpbridge/internal/checkpoint"
)

type snapshotter interface{ SnapshotTo(*checkpoint.Enc) }

func encode(s snapshotter) []byte {
	var e checkpoint.Enc
	s.SnapshotTo(&e)
	return e.Data()
}

func TestIsLentSnapshotEncoding(t *testing.T) {
	build := func(blockBytes uint64, offs ...uint64) *IsLent {
		l := NewIsLent(1<<20, blockBytes)
		for _, off := range offs {
			l.SetLent(off, true)
		}
		return l
	}
	want := encode(build(256, 0, 256*7, 256*100))
	if !bytes.Equal(encode(build(256, 0, 256*7, 256*100)), want) {
		t.Fatal("identical bitmaps encode differently")
	}
	// The encoding is a function of the bitmap, not of its history: a block
	// lent and returned leaves no trace.
	churned := build(256, 0, 256*7, 256*100, 256*3)
	churned.SetLent(256*3, false)
	if !bytes.Equal(encode(churned), want) {
		t.Error("lending and returning a block changed the encoding")
	}
	for name, l := range map[string]*IsLent{
		"one more block":    build(256, 0, 256*7, 256*100, 256*3),
		"one fewer block":   build(256, 0, 256*7),
		"a different block": build(256, 0, 256*7, 256*101),
		"other block size":  build(512, 0, 256*7, 256*100),
	} {
		if bytes.Equal(encode(l), want) {
			t.Errorf("%s: encoding unchanged", name)
		}
	}
}

func TestBorrowedSnapshotEncoding(t *testing.T) {
	base := func() *Borrowed {
		b := NewBorrowed(4, 2)
		for i := uint64(0); i < 10; i++ {
			b.Insert(i<<8, i)
		}
		return b
	}
	want := encode(base())
	if !bytes.Equal(encode(base()), want) {
		t.Fatal("identical tables encode differently")
	}
	var key uint64
	base().ForEach(func(k, _ uint64) { key = k })
	for name, mutate := range map[string]func(*Borrowed){
		"lookup hit": func(b *Borrowed) { b.Lookup(key) },
		"update":     func(b *Borrowed) { b.Insert(key, 99) },
		"removal":    func(b *Borrowed) { b.Remove(key) },
		"eviction":   func(b *Borrowed) { b.Insert(100<<8, 100) },
	} {
		b := base()
		mutate(b)
		if bytes.Equal(encode(b), want) {
			t.Errorf("%s: encoding unchanged", name)
		}
	}
	if bytes.Equal(encode(NewBorrowed(8, 2)), encode(NewBorrowed(4, 2))) {
		t.Error("tables of different geometry encode alike")
	}

	// LRU order decides the next eviction, so it must show in the bytes:
	// two one-set tables with equal contents and equal clocks but opposite
	// recency evict different victims and must encode differently.
	lru := func(touch uint64) *Borrowed {
		b := NewBorrowed(2, 2)
		b.Insert(1<<8, 1)
		b.Insert(2<<8, 2)
		b.Lookup(touch)
		return b
	}
	a, c := lru(1<<8), lru(2<<8)
	if bytes.Equal(encode(a), encode(c)) {
		t.Error("LRU order does not show in the encoding")
	}
	evA, _ := a.Insert(3<<8, 3)
	evC, _ := c.Insert(3<<8, 3)
	if evA == evC {
		t.Fatalf("both tables evicted %+v; the probe is not testing recency", evA)
	}
}
