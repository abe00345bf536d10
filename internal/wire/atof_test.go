package wire

import (
	"math"
	"math/rand/v2"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// edgeNumbers are literals at the kernel's boundaries: signed zeros, the
// 2^52 and 2^53 limits of the exact path, mantissas of 19 and 20 digits,
// the subnormal and overflow thresholds, and exponents far out of range.
var edgeNumbers = []string{
	"0", "-0", "0e5", "-0.0e-0", "0.000", "1", "-1", "0.1", "0.5e-3",
	"4503599627370495", "4503599627370496", "4503599627370497",
	"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740993.0000000001",
	"1234567890123456789", "12345678901234567890", "12345678901234567891",
	"9999999999999999999", "99999999999999999999", "1000000000000000000000000001",
	"0.1234567890123456789", "0.12345678901234567891", "0.0000000000000000000012345678901234567891",
	"1e15", "1e22", "1e23", "1e37", "1e38", "123e35", "1e-22", "1e-23", "999999999999999e22",
	"4.9e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "5e-324",
	"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "-1.7976931348623159e308",
	"1e308", "1e309", "-1e309", "1e-400", "-1e-400", "1e99999", "1e-99999", "0e99999",
	"1E+2", "1e+0002", "7.4109846876186982e-323", "1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203124", "1.00000000000000011102230246251565404236316680908203126",
}

// checkNumber fails t unless parseNumber reads all of lit, refuses it iff
// strconv.ParseFloat does, and returns ParseFloat's bits.
func checkNumber(t *testing.T, lit string) {
	t.Helper()
	got, n, ok := parseNumber([]byte(lit))
	want, err := strconv.ParseFloat(lit, 64)
	if n != len(lit) || ok != (err == nil) || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("parseNumber(%q) = %v (%#x), n %d, ok %v; strconv.ParseFloat = %v (%#x), %v",
			lit, got, math.Float64bits(got), n, ok, want, math.Float64bits(want), err)
	}
}

// randomNumber is a random RFC 8259 number: the shortest, %e or %f text
// of a random float64, or a random string of digits, point and exponent.
func randomNumber(rng *rand.Rand) string {
	x := math.Float64frombits(rng.Uint64())
	if math.IsNaN(x) || math.IsInf(x, 0) {
		x = rng.NormFloat64()
	}
	switch rng.IntN(4) {
	case 0:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case 1:
		return strconv.FormatFloat(x, 'e', rng.IntN(25), 64)
	case 2:
		return strconv.FormatFloat(rng.NormFloat64()*math.Pow(10, float64(rng.IntN(40)-20)), 'f', rng.IntN(25), 64)
	}
	var sb strings.Builder
	if rng.IntN(2) == 0 {
		sb.WriteByte('-')
	}
	digits := func(n int) {
		for range n {
			sb.WriteByte(byte('0' + rng.IntN(10)))
		}
	}
	if rng.IntN(4) == 0 {
		sb.WriteByte('0')
	} else {
		sb.WriteByte(byte('1' + rng.IntN(9)))
		digits(rng.IntN(25))
	}
	if rng.IntN(2) == 0 {
		sb.WriteByte('.')
		sb.WriteString(strings.Repeat("0", rng.IntN(4)*rng.IntN(8)))
		digits(1 + rng.IntN(25))
	}
	if rng.IntN(2) == 0 {
		sb.WriteString([]string{"e", "E", "e+", "e-", "E-"}[rng.IntN(5)])
		sb.WriteString(strconv.Itoa(rng.IntN([]int{30, 400, 100000}[rng.IntN(3)])))
	}
	return sb.String()
}

// TestParseNumberMatchesStrconv pins the kernel to strconv.ParseFloat,
// bits and verdict, on the edge literals and a million seeded random ones.
func TestParseNumberMatchesStrconv(t *testing.T) {
	for _, lit := range edgeNumbers {
		checkNumber(t, lit)
	}
	rng := rand.New(rand.NewPCG(27, 1))
	for range 1_000_000 {
		checkNumber(t, randomNumber(rng))
	}
}

// TestParseNumberPrefix: the kernel reads the longest number a body
// starts with and leaves what follows to the scanner, or reads nothing.
func TestParseNumberPrefix(t *testing.T) {
	for _, tc := range []struct {
		in string
		n  int
	}{
		{"", 0}, {"-", 0}, {"+1", 0}, {".5", 0}, {"-.5", 0}, {"NaN", 0}, {"Infinity", 0}, {"-x", 0}, {`"1"`, 0},
		{"01", 1}, {"-01", 2}, {"1.", 1}, {"1.e5", 1}, {"1e", 1}, {"1e+", 1}, {"1E-x", 1},
		{"1.5.3", 3}, {"-0.0e-0x", 7}, {"2,3", 1}, {"12]", 2}, {"1e5e5", 3}, {"0x10", 1},
	} {
		_, n, ok := parseNumber([]byte(tc.in))
		if n != tc.n || ok != (tc.n > 0) {
			t.Errorf("parseNumber(%q) read %d bytes, ok %v; want %d", tc.in, n, ok, tc.n)
		}
	}
}

// TestPowersOfTen checks rows of the built table against strconv's
// detailedPowersOfTen in Go's strconv/eisel_lemire.go.
func TestPowersOfTen(t *testing.T) {
	for e10, want := range map[int][2]uint64{
		-348: {0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		0:    {0x0000000000000000, 0x8000000000000000},
		43:   {0x6D9CCD05D0000000, 0xE596B7B0C643C719},
		347:  {0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := powersOfTen[e10-minPow10]; got != want {
			t.Errorf("1e%d row = %#x, want %#x", e10, got, want)
		}
	}
}

// rfc8259Number matches the longest RFC 8259 number a text starts with:
// each optional part, taken greedily, leaves the rest matchable.
var rfc8259Number = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`)

// FuzzParseNumber: on any bytes, the kernel reads exactly the longest
// RFC 8259 number they start with, and gives that number strconv's bits
// and verdict; with no number first, it reads nothing and refuses.
func FuzzParseNumber(f *testing.F) {
	for _, lit := range edgeNumbers {
		f.Add([]byte(lit))
		f.Add([]byte(lit + ","))
	}
	for _, s := range []string{"", "-", "\n0", "01", "1.", "1e+", "1.5.3", "NaN", "1e5e5"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// An exactly-sized copy, so an over-read faults.
		in := make([]byte, len(data))
		copy(in, data)
		got, n, ok := parseNumber(in)
		lit := rfc8259Number.Find(in)
		if lit == nil {
			if n != 0 || ok {
				t.Fatalf("parseNumber(%q) read %d bytes, ok %v; it starts with no number", in, n, ok)
			}
			return
		}
		want, err := strconv.ParseFloat(string(lit), 64)
		if n != len(lit) || ok != (err == nil) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseNumber(%q) = %v (%#x), n %d, ok %v; strconv.ParseFloat(%q) = %v (%#x), %v",
				in, got, math.Float64bits(got), n, ok, lit, want, math.Float64bits(want), err)
		}
	})
}
