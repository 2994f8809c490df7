package server

import (
	"math"
	"strconv"
	"testing"
)

// numberReaders are the decoder's number readers, each beside the strconv
// call it reads as. Both return the value's bits.
var numberReaders = []struct {
	name     string
	integral bool
	read     func(*decoder) uint64
	parse    func(string) (uint64, error)
}{
	{"float", false, func(d *decoder) uint64 { return math.Float64bits(d.float()) },
		func(s string) (uint64, error) { v, err := strconv.ParseFloat(s, 64); return math.Float64bits(v), err }},
	{"integer(0)", true, func(d *decoder) uint64 { return uint64(d.integer(0)) },
		func(s string) (uint64, error) { v, err := strconv.ParseInt(s, 10, 0); return uint64(v), err }},
	{"integer(64)", true, func(d *decoder) uint64 { return uint64(d.integer(64)) },
		func(s string) (uint64, error) { v, err := strconv.ParseInt(s, 10, 64); return uint64(v), err }},
	// No field is an int32; this reader stands in for integer(0) on a
	// 32-bit build.
	{"integer(32)", true, func(d *decoder) uint64 { return uint64(d.integer(32)) },
		func(s string) (uint64, error) { v, err := strconv.ParseInt(s, 10, 32); return uint64(v), err }},
	{"uint", true, func(d *decoder) uint64 { return d.uint() },
		func(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) }},
}

// checkNumber holds every reader to strconv on tok. Where the decoder's
// grammar check reads tok as one number token, the reader must return
// strconv's bits and fail exactly where strconv fails. It reports whether
// the float reader's grammar check accepted tok.
func checkNumber(t *testing.T, tok string) bool {
	t.Helper()
	accepted := false
	for _, r := range numberReaders {
		scan := decoder{body: []byte(tok)}
		if n, _, _, _ := scan.number(r.integral); scan.err != nil || string(n) != tok {
			continue
		}
		accepted = accepted || !r.integral
		d := decoder{body: []byte(tok)}
		got := r.read(&d)
		want, err := r.parse(tok)
		if (d.err != nil) != (err != nil) || err == nil && got != want {
			t.Errorf("%s(%q) = %#x (error %v), strconv %#x (error %v)", r.name, tok, got, d.err, want, err)
		}
	}
	return accepted
}

// numberBoundaries are the tokens at the edges of the readers' fast paths
// and of strconv's ranges.
var numberBoundaries = []string{
	// 2^53, the largest significand the float fast path takes, and 2^53+1.
	"9007199254740992", "9007199254740993", "-9007199254740993",
	"0.9007199254740992", "0.9007199254740993",
	// A 16-digit significand above 2^53: converting it to float64 before the
	// division would round twice and misread the last bit.
	"0.09739540021319247",
	// The largest exact power of ten, 1e22, and 1e23, spelled both ways.
	"1e22", "1e23", "10000000000000000000000", "100000000000000000000000",
	"0.0000000000000000000001", "0.00000000000000000000001",
	// Significands of 18, 19 and 20 digits.
	"999999999999999999", "-999999999999999999",
	"1234567890123456789", "-1234567890123456789", "12345678901234567890",
	"0.1234567890123456789", "0.12345678901234567890",
	// Negative zero, which strconv reads as −0.
	"0", "-0", "0.0", "-0.0", "-0.000",
	// encoding/json's smallest value without an exponent, and the next below.
	"0.000001", "1e-7", "0.0000001",
	// The smallest subnormal, the largest float64, and past it.
	"4.9e-324", "5e-324", "1.7976931348623157e308", "1e309", "-1e309",
	// The int32, int64 and uint64 limits, and one past each.
	"2147483647", "2147483648", "-2147483648", "-2147483649",
	"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
	"18446744073709551615", "18446744073709551616",
	// Competencies as encoding/json prints them.
	"0.5377948717263744", "0.41234567890123456", "0.3", "0.8",
}

// TestDecodeNumberBoundaries pins every boundary token to strconv.
func TestDecodeNumberBoundaries(t *testing.T) {
	for _, tok := range numberBoundaries {
		if !checkNumber(t, tok) {
			t.Errorf("%q is not a JSON number token", tok)
		}
	}
}

// FuzzDecodeNumber holds the number readers to strconv on any token.
func FuzzDecodeNumber(f *testing.F) {
	for _, tok := range numberBoundaries {
		f.Add(tok)
	}
	f.Fuzz(func(t *testing.T, tok string) { checkNumber(t, tok) })
}
