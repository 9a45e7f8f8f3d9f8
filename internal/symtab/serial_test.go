package symtab

import (
	"errors"
	"math/rand"
	"testing"
)

func TestRemapRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		remap := make([]Sym, n)
		for i := range remap {
			// Mix ascending runs (the common Merge shape) with jumps.
			if rng.Intn(4) == 0 {
				remap[i] = Sym(rng.Uint32())
			} else if i > 0 {
				remap[i] = remap[i-1] + Sym(rng.Intn(3))
			}
		}
		tail := []byte("trailing")
		b := AppendRemap(nil, remap)
		b = append(b, tail...)
		got, rest, err := DecodeRemap(b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(remap) {
			t.Fatalf("trial %d: %d entries, want %d", trial, len(got), len(remap))
		}
		for i := range remap {
			if got[i] != remap[i] {
				t.Fatalf("trial %d entry %d: %d != %d", trial, i, got[i], remap[i])
			}
		}
		if string(rest) != string(tail) {
			t.Fatalf("trial %d: remainder %q", trial, rest)
		}
	}
}

func TestDecodeRemapMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":           {},
		"huge-count":      {0xff, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"short-entries":   AppendRemap(nil, []Sym{1, 2, 3})[:2],
		"overlong-varint": {1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80},
	}
	for name, b := range cases {
		if _, _, err := DecodeRemap(b); !errors.Is(err, ErrBadRemap) {
			t.Errorf("%s: got %v, want ErrBadRemap", name, err)
		}
	}
}
