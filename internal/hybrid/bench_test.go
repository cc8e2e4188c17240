package hybrid

import "testing"

// dirSink keeps the benchmarked lookups from being optimised away.
var dirSink int

// BenchmarkDirLookup measures one Dir.Lookup on a full 16-way set, the LLC
// shape. Hit cycles through every way, so it scans half a set on average;
// miss scans the whole set.
func BenchmarkDirLookup(b *testing.B) {
	const (
		sets = 64
		ways = 16
	)
	d := NewDirSets[struct{}](sets, ways)
	for si := 0; si < sets; si++ {
		for w := 0; w < ways; w++ {
			d.Fill(si, w, uint64(w*sets+si), uint64(w))
		}
	}
	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			key := uint64(i % (sets * ways))
			dirSink += d.Lookup(d.SetIndex(key), key)
		}
	})
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			key := uint64(sets*ways + i%(sets*ways))
			dirSink += d.Lookup(d.SetIndex(key), key)
		}
	})
}
