package wire

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// edgeFloats are values at the writer's boundaries: signed zeros, the
// subnormal and normal extremes, every power of two with its neighbours
// (the irregular rounding interval below each), the %e/%f switch points,
// integers around 2^53 (the integer shortcut's end), and the powers of
// ten past it that are and are not exact.
func edgeFloats() []float64 {
	vals := []float64{0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, math.Float64frombits(1<<52 - 1), // smallest and largest subnormal
		0x1p-1022, math.MaxFloat64, 1e21, 1e22, 1e23}
	around := func(v float64) {
		vals = append(vals, math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1)))
	}
	for e := -1074; e <= 1023; e++ {
		around(math.Ldexp(1, e))
	}
	for _, v := range []float64{1e-5, 1e-4, 1e5, 1e6} {
		around(v)
	}
	for i := int64(-4); i <= 4; i++ {
		vals = append(vals, float64(1<<53+i), float64(1<<54+2*i), float64(1<<52+i))
	}
	return vals
}

// checkFloat fails t unless AppendFloat appends strconv's bytes for v
// after what b already holds.
func checkFloat(t *testing.T, b []byte, v float64) {
	t.Helper()
	got := AppendFloat(b, v)
	want := strconv.AppendFloat(b, v, 'g', -1, 64)
	if string(got) != string(want) {
		t.Fatalf("AppendFloat(%q, %#x) = %q, strconv.AppendFloat = %q", b, math.Float64bits(v), got, want)
	}
}

// TestAppendFloatMatchesStrconv pins the writer to strconv's shortest
// 'g' bytes on the edge values and on four million seeded values: random
// bit patterns, value-shaped floats, and the floats nearest to decimals
// of 1 to 17 digits, whose shortest form is usually shorter than 17.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	for _, v := range edgeFloats() {
		checkFloat(t, nil, v)
		checkFloat(t, nil, -v)
		checkFloat(t, []byte(`{"values":[`), v)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Float64frombits(0xFFF8_0000_0000_0001)} {
		checkFloat(t, nil, v)
	}
	rng := rand.New(rand.NewPCG(32, 1))
	var b []byte
	for range 1_400_000 {
		checkFloat(t, nil, math.Float64frombits(rng.Uint64()))
		checkFloat(t, nil, rng.NormFloat64()*math.Pow(10, float64(rng.IntN(30)-15)))
		b = strconv.AppendUint(b[:0], rng.Uint64()%uint64(math.Pow10(1+rng.IntN(17))), 10)
		b = append(b, 'e')
		b = strconv.AppendInt(b, int64(rng.IntN(640)-330), 10)
		v, _ := strconv.ParseFloat(string(b), 64)
		checkFloat(t, nil, v)
	}
}

// FuzzAppendFloat: for any bit pattern, the writer appends strconv's
// shortest 'g' bytes.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, 1, -1.5, 1e-5, 123456.7, 1e21, 5e-324, math.MaxFloat64, math.NaN()} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		checkFloat(t, nil, math.Float64frombits(u))
	})
}

// BenchmarkAppendFloat writes the 2,560 values of one benchmark-shaped
// ingest body (256 points of dim 10, NormFloat64·10) with strconv and
// with the kernel.
func BenchmarkAppendFloat(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 7))
	vals := make([]float64, 2560)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 10
	}
	for _, bc := range []struct {
		name string
		fn   func([]byte, float64) []byte
	}{
		{"strconv", func(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }},
		{"kernel", AppendFloat},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 0, 64*len(vals))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = buf[:0]
				for _, v := range vals {
					buf = bc.fn(buf, v)
				}
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}
