package wire

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"unsafe"
)

// parseNumber reads the longest prefix of b that is an RFC 8259 number
// and returns its length n and the float64 strconv.ParseFloat returns for
// it, bit for bit; ok is false when b does not start with a number or
// ParseFloat refuses the number's text (it overflows float64).
//
// One pass checks the grammar and gathers what strconv's readFloat
// gathers: the first 19 significant digits, their count and the decimal
// point's place. Clinger's exact path, then Eisel–Lemire, convert the
// number from those; whatever neither settles (a mantissa past 19
// digits, a case Eisel–Lemire cannot decide, a subnormal, an overflow)
// goes to strconv.ParseFloat itself.
func parseNumber(b []byte) (f float64, n int, ok bool) {
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		i++
	}
	// man holds the first 19 significant digits (10^19 < 2^64), nd counts
	// every significant digit, and the point sits after digit dp: a
	// leading zero of the fraction moves it left.
	var man uint64
	nd, trunc := 0, false
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if nd < 19 {
				man = man*10 + uint64(b[i]-'0')
			} else if b[i] != '0' {
				trunc = true
			}
			nd++
		}
	default:
		return 0, 0, false
	}
	dp := nd
	if i+1 < len(b) && b[i] == '.' && '0' <= b[i+1] && b[i+1] <= '9' {
		for i++; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			switch {
			case nd == 0 && b[i] == '0':
				dp--
				continue
			case nd < 19:
				man = man*10 + uint64(b[i]-'0')
			case b[i] != '0':
				trunc = true
			}
			nd++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j, sign := i+1, 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			if b[j] == '-' {
				sign = -1
			}
			j++
		}
		if j < len(b) && '0' <= b[j] && b[j] <= '9' {
			// The exponent saturates, as strconv's does: past 10^4 it
			// only has to be out of range.
			e := 0
			for ; j < len(b) && '0' <= b[j] && b[j] <= '9'; j++ {
				if e < 10000 {
					e = e*10 + int(b[j]-'0')
				}
			}
			dp, i = dp+sign*e, j
		}
	}
	e10 := 0
	if man != 0 {
		e10 = dp - min(nd, 19)
	}
	if !trunc {
		if f, ok := exact(man, e10, neg); ok {
			return f, i, true
		}
		if f, ok := eiselLemire(man, e10, neg); ok {
			return f, i, true
		}
	}
	// A view of b: strconv copies the text into any error it returns, and
	// the error is dropped here.
	f, err := strconv.ParseFloat(unsafe.String(&b[0], i), 64)
	return f, i, err == nil
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// exact is Clinger's fast path, as strconv's atof64exact takes it: a
// mantissa below 2^52 and a power of ten up to 1e22 are both exact
// float64s, so one multiplication or division rounds correctly. A larger
// exponent moves its excess into the mantissa while that stays below
// 1e15, which is exact too.
func exact(man uint64, e10 int, neg bool) (float64, bool) {
	if man>>52 != 0 {
		return 0, false
	}
	f := float64(man)
	if neg {
		f = -f
	}
	switch {
	case e10 == 0:
		return f, true
	case e10 > 0 && e10 <= 15+22:
		if e10 > 22 {
			f *= pow10[e10-22]
			e10 = 22
		}
		if f > 1e15 || f < -1e15 {
			return 0, false
		}
		return f * pow10[e10], true
	case e10 < 0 && e10 >= -22:
		return f / pow10[-e10], true
	}
	return 0, false
}

// eiselLemire converts man·10^e10 (man > 0) to the nearest float64, or
// reports false when the 128-bit product cannot decide the rounding or
// the result is subnormal or overflows. It is a port of Go's
// strconv.eiselLemire64 (BSD licence, The Go Authors), the algorithm of
// Lemire, "Number Parsing at a Gigabyte per Second", arXiv 2101.11408;
// the section names are those of
// https://nigeltao.github.io/blog/2020/eisel-lemire.html.
func eiselLemire(man uint64, e10 int, neg bool) (float64, bool) {
	// Exp10 Range.
	if e10 < minPow10 || maxPow10 < e10 {
		return 0, false
	}
	pow := &powersOfTen[e10-minPow10]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	retExp2 := uint64(217706*e10>>16+64+bias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// An exponent of 0 (wrapped past it, too) is subnormal, 0x7FF or more
	// is Inf or NaN.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		retBits |= 1 << 63
	}
	return math.Float64frombits(retBits), true
}

// The exponents of the first and last rows of powersOfTen.
const minPow10, maxPow10 = -348, 347

// powersOfTen holds, for each e10 from minPow10 to maxPow10, the 128 most
// significant bits of 10^e10, rounded down, as {low, high} words: the
// table strconv calls detailedPowersOfTen. Positive powers are exact
// integers; a negative one is floor(2^1400 / 10^-e10), which keeps more
// than 128 bits down to 10^-348.
var powersOfTen = func() (t [maxPow10 - minPow10 + 1][2]uint64) {
	ten := big.NewInt(10)
	p := big.NewInt(1)
	for e := 0; e <= maxPow10; e++ {
		t[e-minPow10] = top128(p)
		p.Mul(p, ten)
	}
	p.Lsh(big.NewInt(1), 1400)
	for e := -1; e >= minPow10; e-- {
		p.Quo(p, ten)
		t[e-minPow10] = top128(p)
	}
	return t
}()

// top128 is x's 128 most significant bits as {low, high} words, shifted
// up when x is shorter.
func top128(x *big.Int) [2]uint64 {
	var y big.Int
	if s := x.BitLen() - 128; s > 0 {
		y.Rsh(x, uint(s))
	} else {
		y.Lsh(x, uint(-s))
	}
	var buf [16]byte
	y.FillBytes(buf[:])
	return [2]uint64{binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8])}
}
