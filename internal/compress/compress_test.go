package compress

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"baryon/internal/sim"
)

// randomLine synthesises a 64-byte line from one of several value classes so
// property tests exercise both compressible and incompressible paths.
func randomLine(rng *sim.RNG) []byte { return classLine(rng, rng.Intn(5)) }

// classLine synthesises a 64-byte line of the given value class (0..4).
func classLine(rng *sim.RNG, class int) []byte {
	line := make([]byte, 64)
	switch class {
	case 0: // zeros
	case 1: // small integers
		for off := 0; off < 64; off += 4 {
			binary.LittleEndian.PutUint32(line[off:], uint32(rng.Intn(256)))
		}
	case 2: // pointer-like: shared high bits
		base := rng.Uint64() &^ 0xFFFF
		for off := 0; off < 64; off += 8 {
			binary.LittleEndian.PutUint64(line[off:], base|uint64(rng.Intn(1<<16)))
		}
	case 3: // repeated value
		v := rng.Uint64()
		for off := 0; off < 64; off += 8 {
			binary.LittleEndian.PutUint64(line[off:], v)
		}
	default: // random
		for i := range line {
			line[i] = byte(rng.Uint32())
		}
	}
	return line
}

func TestFPCRoundTrip(t *testing.T) {
	rng := sim.NewRNG(1)
	var fpc FPC
	for i := 0; i < 2000; i++ {
		n := (rng.Intn(64) + 1) * 4
		data := make([]byte, n)
		for off := 0; off < n; off += 64 {
			end := off + 64
			if end > n {
				end = n
			}
			copy(data[off:end], randomLine(rng))
		}
		comp := fpc.Compress(data)
		got := fpc.Decompress(comp, n)
		if !bytes.Equal(got, data) {
			t.Fatalf("iter %d: FPC round trip mismatch (n=%d)", i, n)
		}
		if want := fpc.CompressedSize(data); want != len(comp) {
			t.Fatalf("iter %d: CompressedSize=%d but stream is %d bytes", i, want, len(comp))
		}
	}
}

func TestBDIRoundTrip(t *testing.T) {
	rng := sim.NewRNG(2)
	var bdi BDI
	for i := 0; i < 2000; i++ {
		data := randomLine(rng)
		comp := bdi.Compress(data)
		got := bdi.Decompress(comp, len(data))
		if !bytes.Equal(got, data) {
			t.Fatalf("iter %d: BDI round trip mismatch\n in=%x\nout=%x", i, data, got)
		}
		if want := bdi.CompressedSize(data); want != len(comp) {
			t.Fatalf("iter %d: CompressedSize=%d but stream is %d bytes", i, want, len(comp))
		}
	}
}

func TestBDIRoundTripQuick(t *testing.T) {
	var bdi BDI
	f := func(raw [64]byte) bool {
		data := raw[:]
		return bytes.Equal(bdi.Decompress(bdi.Compress(data), 64), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFPCRoundTripQuick(t *testing.T) {
	var fpc FPC
	f := func(raw [64]byte) bool {
		data := raw[:]
		return bytes.Equal(fpc.Decompress(fpc.Compress(data), 64), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroLine(t *testing.T) {
	c := &Compressor{}
	zero := make([]byte, 256)
	if !c.IsZero(zero) {
		t.Fatal("zero line not detected")
	}
	if sz := c.CompressedSize(zero); sz > 8 {
		t.Fatalf("zero 256B compresses to %d bytes, want tiny", sz)
	}
	zero[100] = 1
	if c.IsZero(zero) {
		t.Fatal("non-zero line detected as zero")
	}
}

func TestCompressedSizeNeverExpands(t *testing.T) {
	rng := sim.NewRNG(3)
	c := &Compressor{}
	for i := 0; i < 500; i++ {
		data := make([]byte, 256)
		for off := 0; off < 256; off += 64 {
			copy(data[off:], randomLine(rng))
		}
		if sz := c.CompressedSize(data); sz > len(data) {
			t.Fatalf("compressed size %d > original %d", sz, len(data))
		}
	}
}

// randomRange synthesises size bytes of range content. Half the ranges take
// one value class throughout, so even 16-line ranges compress often enough
// that every CF is exercised; the other half mix classes per line.
func randomRange(rng *sim.RNG, size int) []byte {
	data := make([]byte, size)
	class := -1
	if rng.Bool(0.5) {
		class = rng.Intn(5)
	}
	for off := 0; off < size; off += 64 {
		if class < 0 {
			copy(data[off:], randomLine(rng))
		} else {
			copy(data[off:], classLine(rng, class))
		}
	}
	return data
}

// refRangeFits is RangeFits restated from exact CompressedSize per chunk.
func refRangeFits(c *Compressor, data []byte, cf int) bool {
	if cf == 1 {
		return true
	}
	if !c.Aligned {
		return c.CompressedSize(data) <= len(data)/cf
	}
	for off := 0; off < len(data); off += 64 * cf {
		if c.CompressedSize(data[off:off+64*cf]) > 64 {
			return false
		}
	}
	return true
}

// TestRangeFits checks the one fit predicate over every range shape it
// serves, aligned and unaligned, against the CompressedSize reference. Each
// row draws ranges that do and do not fit in both modes, except CF 1, which
// must always fit.
func TestRangeFits(t *testing.T) {
	rows := []struct {
		name     string
		size, cf int
		// stricter checks that a range the aligned mode accepts the
		// unaligned mode accepts too. That holds for Baryon's 2×256 B
		// ranges but is no law: per-chunk encodings can beat one
		// whole-range encoding, as DICE's CF 2 group shows.
		stricter bool
	}{
		{"4x256B", 4 * 256, 4, false},
		{"2x256B", 2 * 256, 2, true},
		{"4x64B", 4 * 64, 4, false},
		{"2x64B", 2 * 64, 2, false},
		{"DICE_group_CF4", 256, 4, false},
		{"DICE_group_CF2", 256, 2, false},
		{"CF1_always", 256, 1, false},
	}
	aligned, plain := &Compressor{Aligned: true}, &Compressor{}
	for i, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rng := sim.NewRNG(uint64(100 + i))
			const n = 300
			fits := map[bool]int{}
			for k := 0; k < n; k++ {
				data := randomRange(rng, row.size)
				for _, c := range []*Compressor{aligned, plain} {
					got := c.RangeFits(data, row.cf)
					if want := refRangeFits(c, data, row.cf); got != want {
						t.Fatalf("aligned=%v sample %d: RangeFits=%v, reference %v", c.Aligned, k, got, want)
					}
					if got {
						fits[c.Aligned]++
					}
				}
				if row.stricter && aligned.RangeFits(data, row.cf) && !plain.RangeFits(data, row.cf) {
					t.Fatalf("sample %d: aligned-accepted range rejected by plain mode", k)
				}
			}
			t.Logf("fits of %d: aligned %d, unaligned %d", n, fits[true], fits[false])
			for _, a := range []bool{true, false} {
				switch {
				case row.cf == 1 && fits[a] != n:
					t.Fatalf("aligned=%v: CF 1 fit only %d of %d ranges", a, fits[a], n)
				case row.cf > 1 && (fits[a] == 0 || fits[a] == n):
					t.Fatalf("aligned=%v: %d of %d ranges fit; generator does not exercise both outcomes", a, fits[a], n)
				}
			}
		})
	}
}

func TestFPCPatterns(t *testing.T) {
	var fpc FPC
	cases := []struct {
		word uint32
		bits uint
	}{
		{0x00000003, 4},          // 4-bit sign-extended
		{0xFFFFFFFF, 4},          // -1 fits 4 bits
		{0x0000007F, 8},          // 8-bit
		{0x00007FFF, 16},         // 16-bit
		{0xABCD0000, 16},         // halfword padded
		{0x007F00FF &^ 0x80, 16}, // two sign-extended bytes
		{0xAAAAAAAA, 8},          // repeated byte
		{0x12345678, 32},         // uncompressed
	}
	for _, tc := range cases {
		data := make([]byte, 4)
		binary.LittleEndian.PutUint32(data, tc.word)
		_, payload := fpcClassify(tc.word)
		if payload != tc.bits {
			t.Errorf("word %#x: payload %d bits, want %d", tc.word, payload, tc.bits)
		}
		comp := fpc.Compress(data)
		if got := fpc.Decompress(comp, 4); binary.LittleEndian.Uint32(got) != tc.word {
			t.Errorf("word %#x: round trip gave %#x", tc.word, binary.LittleEndian.Uint32(got))
		}
	}
}

func TestBDIKnownGood(t *testing.T) {
	var bdi BDI
	// 8 pointers sharing a 48-bit prefix: should compress well under B8D2.
	data := make([]byte, 64)
	base := uint64(0x00007FAB12340000)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(data[i*8:], base+uint64(i*16))
	}
	sz := bdi.CompressedSize(data)
	if sz > 32 {
		t.Fatalf("pointer line compressed to %d bytes, want <= 32", sz)
	}
	if !bytes.Equal(bdi.Decompress(bdi.Compress(data), 64), data) {
		t.Fatal("pointer line round trip failed")
	}
}

// TestAppendAPIsPreservePrefix checks the scratch-buffer contract of the
// Append* forms: the dst prefix is kept intact, the appended region equals
// the plain Compress/Decompress output, and recycled capacity with stale
// bytes does not leak into the result.
func TestAppendAPIsPreservePrefix(t *testing.T) {
	rng := sim.NewRNG(77)
	prefix := []byte{0xAA, 0xBB, 0xCC}
	stale := make([]byte, 0, 4096)
	for i := 0; i < cap(stale); i++ {
		stale = append(stale, 0xFF)
	}
	stale = stale[:0]

	type appender interface {
		Compress(data []byte) []byte
		Decompress(comp []byte, origLen int) []byte
		AppendCompress(dst, data []byte) []byte
		AppendDecompress(dst, comp []byte, origLen int) []byte
	}
	algos := []appender{FPC{}, BDI{}, CPack{}}
	for _, a := range algos {
		for trial := 0; trial < 200; trial++ {
			line := randomLine(rng)
			if trial%5 == 0 {
				for i := range line {
					line[i] = 0 // exercise the zero-run/all-zero decoders
				}
			}
			want := a.Compress(line)
			got := a.AppendCompress(append(stale[:0], prefix...), line)
			if !bytes.Equal(got[:len(prefix)], prefix) {
				t.Fatalf("AppendCompress clobbered the prefix")
			}
			if !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("AppendCompress stream differs from Compress")
			}
			wantPlain := a.Decompress(want, len(line))
			gotPlain := a.AppendDecompress(append(stale[:0], prefix...), want, len(line))
			if !bytes.Equal(gotPlain[:len(prefix)], prefix) {
				t.Fatalf("AppendDecompress clobbered the prefix")
			}
			if !bytes.Equal(gotPlain[len(prefix):], wantPlain) {
				t.Fatalf("AppendDecompress output differs from Decompress")
			}
			if !bytes.Equal(wantPlain, line) {
				t.Fatalf("round trip broken")
			}
		}
	}
}
