package profile

import (
	"bytes"
	"testing"
)

// FuzzRead guards the binary profile reader: arbitrary bytes must either
// parse into a valid profile or return an error — never panic, never
// produce a profile that fails validation.
func FuzzRead(f *testing.F) {
	// Seed with genuine encodings of both versions and some mutations.
	p := randomProfile(7)
	var buf, bufV1 bytes.Buffer
	if err := p.Write(&buf); err != nil {
		f.Fatal(err)
	}
	if err := p.WriteV1(&bufV1); err != nil {
		f.Fatal(err)
	}
	f.Add(bufV1.Bytes())
	good := buf.Bytes()
	f.Add(good)
	f.Add([]byte("CPP1"))
	f.Add([]byte("CPP2"))
	f.Add([]byte{})
	if len(good) > 10 {
		mutated := append([]byte(nil), good...)
		mutated[len(mutated)/2] ^= 0xff
		f.Add(mutated)
		f.Add(good[:len(good)/2])
	}
	// Tree sections Write never emits: lists out of order, a PC twice in one
	// list, counts the input cannot hold (TestReadHandWrittenTrees says what
	// each must come to).
	for _, tc := range rawTrees {
		f.Add(tc.file)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := got.Validate(); verr != nil {
			t.Fatalf("Read returned an invalid profile: %v", verr)
		}
		// Re-encoding must work on anything Read accepted, and what it
		// emits (sorted, whatever the input's order was) is a fixed point.
		var out, again bytes.Buffer
		if err := got.Write(&out); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("reading the re-encoding: %v", err)
		}
		if err := back.Write(&again); err != nil || !bytes.Equal(again.Bytes(), out.Bytes()) {
			t.Fatalf("re-encoding is not a fixed point (%v)", err)
		}
	})
}
