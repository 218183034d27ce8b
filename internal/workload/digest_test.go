package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestAppendBitsMatchesFmt pins the digest's hex encoder to the bytes of
// fmt's "%016x|" on the float bit patterns that matter — signed zeros,
// infinities, subnormals, NaN payloads — and on random patterns, so the
// committed golden digests stay valid.
func TestAppendBitsMatchesFmt(t *testing.T) {
	patterns := []uint64{
		0, 1 << 63, // ±0
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		1, 0x000fffffffffffff, 1<<63 | 1, // subnormals
		0x7ff8000000000000, 0x7ff0000000000001, 0xfff8000000000001, 0x7fffffffffffffff, // NaNs
		math.Float64bits(1), math.Float64bits(-0.1), math.MaxUint64,
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		patterns = append(patterns, rng.Uint64())
	}
	for _, bits := range patterns {
		if got, want := string(appendBits(nil, bits)), fmt.Sprintf("%016x|", bits); got != want {
			t.Fatalf("appendBits(%#x) = %q, fmt gives %q", bits, got, want)
		}
	}
	// appendFloat normalizes every NaN payload to one token.
	for _, bits := range []uint64{0x7ff8000000000000, 0x7ff0000000000001, 0xffffffffffffffff} {
		if got := string(appendFloat([]byte("x|"), math.Float64frombits(bits))); got != "x|nan|" {
			t.Fatalf("appendFloat(NaN %#x) = %q, want %q", bits, got, "x|nan|")
		}
	}
}
