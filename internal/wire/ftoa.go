package wire

import (
	"math"
	"math/bits"
)

// AppendFloat appends v's shortest round-trip decimal to b, laid out as
// strconv.AppendFloat(b, v, 'g', -1, 64) lays it out, byte for byte:
// the fewest significant digits that parse back to v, the closest of
// them to v, in %e form when the decimal exponent is below -4 or at
// least 6 and in %f form otherwise. NaN and ±Inf are written as strconv
// writes them.
//
// The digits come from Schubfach (Giulietti, "The Schubfach way to
// render doubles", 2020): v and the two ends of its rounding interval
// are each scaled by one 64×128-bit multiply into a decimal window where
// at most one candidate of each length can lie, so the shortest digits
// are settled by a few comparisons rather than a digit-by-digit search.
// The structure follows Bolz's C++ port in drachennest (Boost licence).
// The 128-bit powers of ten are powersOfTen, the table the parsing
// kernel uses, rounded up.
func AppendFloat(b []byte, v float64) []byte {
	u := math.Float64bits(v)
	frac, exp := u&(1<<52-1), int(u>>52)&0x7FF
	switch {
	case exp == 0x7FF && frac != 0:
		return append(b, "NaN"...)
	case exp == 0x7FF && v > 0:
		return append(b, "+Inf"...)
	case exp == 0x7FF:
		return append(b, "-Inf"...)
	}
	neg := u>>63 != 0
	if exp == 0 && frac == 0 {
		if neg {
			return append(b, "-0"...)
		}
		return append(b, '0')
	}
	d, e := shortestDecimal(frac, exp)

	// The text is laid out in buf and appended at once. The digits end
	// at digitsEnd, written eight at a time while d has more than eight
	// (d < 10^17: twice at most) and then two at a time. The room before
	// them takes the sign and a leading "0.000", the room after them an
	// exponent or padding zeros.
	var buf [32]byte
	const digitsEnd = 24
	i := digitsEnd
	if d >= 1e8 {
		q := d / 1e8
		put8((*[8]byte)(buf[16:24]), uint32(d-q*1e8))
		i, d = 16, q
		if d >= 1e8 {
			q = d / 1e8
			put8((*[8]byte)(buf[8:16]), uint32(d-q*1e8))
			i, d = 8, q
		}
	}
	r := uint32(d)
	for r >= 100 {
		q := r / 100
		i -= 2
		put2(buf[i:], r-q*100)
		r = q
	}
	if r >= 10 {
		i -= 2
		put2(buf[i:], r)
	} else {
		i--
		buf[i] = byte('0' + r)
	}
	// Trailing zeros move into the exponent; the value is then
	// 0.buf[i:j] × 10^dp, and strconv's shortest 'g' picks %e when the
	// exponent dp-1 is below -4 or at least 6.
	j := digitsEnd
	for buf[j-1] == '0' {
		j--
		e++
	}
	nd := j - i
	dp := nd + e
	switch {
	case dp < -3 || dp > 6:
		if nd > 1 {
			buf[i-1], buf[i] = buf[i], '.'
			i--
		}
		x := dp - 1
		buf[j], buf[j+1] = 'e', '+'
		if x < 0 {
			x, buf[j+1] = -x, '-'
		}
		j += 2
		if x >= 100 {
			buf[j] = byte('0' + x/100)
			x %= 100
			j++
		}
		put2(buf[j:], uint32(x))
		j += 2
	case dp <= 0:
		i -= 2 - dp
		copy(buf[i:], "0.000"[:2-dp])
	case dp >= nd:
		j += copy(buf[j:], "00000"[:dp-nd])
	default:
		// Shift the integer digits, at most six, left over the point.
		for k := i; k < i+dp; k++ {
			buf[k-1] = buf[k]
		}
		buf[i-1+dp] = '.'
		i--
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return append(b, buf[i:j]...)
}

// put8 writes r < 1e8 to dst as eight digits, leading zeros included.
func put8(dst *[8]byte, r uint32) {
	hi, lo := r/1e4, r%1e4
	put2(dst[0:], hi/100)
	put2(dst[2:], hi%100)
	put2(dst[4:], lo/100)
	put2(dst[6:], lo%100)
}

// put2 writes p < 100 to dst as two digits from the pair table.
func put2(dst []byte, p uint32) {
	_ = dst[1]
	pair := digitPairs[2*p : 2*p+2]
	dst[0], dst[1] = pair[0], pair[1]
}

// digitPairs holds "00" through "99", each two-digit number's text at
// twice its value.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// shortestDecimal returns the shortest decimal d·10^e that rounds to the
// positive finite float64 of significand bits frac and biased exponent
// exp, the closest to it when several are as short (ties to an even d).
// d may end in zeros.
func shortestDecimal(frac uint64, exp int) (d uint64, e int) {
	c, q := frac, 1-1075
	if exp != 0 {
		c, q = frac|1<<52, exp-1075
	}
	// v = c·2^q; in units of 2^(q-2), v is cb and its rounding interval
	// [cbl, cbr], which is closer below when c is a power of two with a
	// smaller binade under it.
	cb := c << 2
	cbl, cbr := cb-2, cb+2
	// k = floor(log10(2^q)), or floor(log10(3/4·2^q)) for the closer
	// lower end.
	var k int
	if frac == 0 && exp > 1 {
		cbl++
		k = (q*1262611 - 524031) >> 22
	} else {
		k = q * 1262611 >> 22
	}
	// g = 10^-k·2^-r, rounded up, with 2^127 <= g < 2^128, where
	// r = floor(log2(10^-k)) - 127; h scales the interval so each end
	// times g over 2^128 is that end times 10^-k in units of 2^-2.
	g := &powersOfTen[-k-minPow10]
	lo, carry := bits.Add64(g[0], 1, 0)
	hi := g[1] + carry
	h := q + (-k*1741647)>>19 + 1
	vb := roundToOdd(hi, lo, cb<<h)
	vbl := roundToOdd(hi, lo, cbl<<h)
	vbr := roundToOdd(hi, lo, cbr<<h)
	if c&1 != 0 {
		// An odd significand's interval is open: its ends round away.
		vbl++
		vbr--
	}

	// s = floor(v/10^k). A multiple of 10^(k+1) inside the interval is
	// the only one there, and shorter than s.
	s := vb >> 2
	if s >= 10 {
		sp := s / 10
		upIn := vbl <= 40*sp
		wpIn := 40*sp+40 <= vbr
		if upIn != wpIn {
			if wpIn {
				sp++
			}
			return sp, k + 1
		}
	}
	// Otherwise s or s+1, whichever the interval holds, or the closer
	// to v when it holds both.
	uIn := vbl <= 4*s
	wIn := 4*s+4 <= vbr
	if uIn != wIn {
		if wIn {
			s++
		}
		return s, k
	}
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return s, k
}

// roundToOdd is cp·g / 2^128 for g = hi·2^64 + lo, rounded down, with
// its lowest bit set when the fraction dropped exceeds what rounding g up
// can add: the sticky bit that keeps the ties shortestDecimal compares
// exact.
func roundToOdd(hi, lo, cp uint64) uint64 {
	x1, _ := bits.Mul64(lo, cp)
	y1, y0 := bits.Mul64(hi, cp)
	z, carry := bits.Add64(y0, x1, 0)
	y1 += carry
	if z > 1 {
		y1 |= 1
	}
	return y1
}
