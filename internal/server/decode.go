package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
)

// The request decoder reads a body in place, in one pass, each field's value
// by the field's Go type. Every body it accepts, the strict encoding/json
// decoder in request_test.go accepts with equal values. Four kinds of body
// pass encoding/json and are refused here: non-space after the document,
// null as an array element, a key not spelled exactly as its json tag or
// repeated in one object, and an edge that is not exactly two integers.

// The keys of each request object, in field order: TestDecoderKeysMatchTags
// checks them against the json tags.
var (
	evaluateKeys  = []string{"instance", "mechanism", "alphas", "seed", "replications", "deadline_ms", "fault"}
	whatIfKeys    = []string{"instance", "delegations", "deltas", "deadline_ms", "error_budget"}
	instanceKeys  = []string{"n", "complete", "edges", "p"}
	mechanismKeys = []string{"name", "alpha"}
	faultKeys     = []string{"down_rate", "abstain_rate", "policy", "alpha"}
	deltaKeys     = []string{"kind", "voter", "target", "p", "edges"}
)

func decodeEvaluate(body []byte, r *EvaluateRequest) *Error {
	d := decoder{body: body}
	return d.document(evaluateKeys, &r.Instance, &r.Mechanism, &r.Alphas, &r.Seed, &r.Replications, &r.DeadlineMS, &r.Fault)
}

func decodeWhatIf(body []byte, r *WhatIfRequest) *Error {
	return decodeWhatIfThrough(body, r, &r.Instance, &r.Delegations)
}

// decodeWhatIfThrough is decodeWhatIf reading the instance and delegations
// through inst and prof: r's own fields, or memoValues over them.
func decodeWhatIfThrough(body []byte, r *WhatIfRequest, inst, prof any) *Error {
	d := decoder{body: body}
	return d.document(whatIfKeys, inst, prof, &r.Deltas, &r.DeadlineMS, &r.ErrorBudget)
}

// value reads the JSON value of the field p points to, by the field's type.
func (d *decoder) value(p any) {
	switch p := p.(type) {
	case *memoValue:
		d.memoized(p)
	case *InstanceSpec:
		d.fields(instanceKeys, &p.N, &p.Complete, &p.Edges, &p.P)
	case *MechanismSpec:
		d.fields(mechanismKeys, &p.Name, &p.Alpha)
	case **FaultSpec:
		f := &FaultSpec{}
		*p = f
		d.fields(faultKeys, &f.DownRate, &f.AbstainRate, &f.Policy, &f.Alpha)
	case *[]DeltaSpec:
		*p = make([]DeltaSpec, 0)
		d.array(func() {
			*p = append(*p, DeltaSpec{})
			s := &(*p)[len(*p)-1]
			d.fields(deltaKeys, &s.Kind, &s.Voter, &s.Target, &s.P, &s.Edges)
		})
	case *[][2]int:
		*p = make([][2]int, 0)
		d.array(func() {
			var e [2]int
			d.expect('[')
			e[0] = int(d.integer(0))
			d.expect(',')
			e[1] = int(d.integer(0))
			d.expect(']')
			*p = append(*p, e)
		})
	case *[]float64:
		*p = make([]float64, 0, d.count())
		d.array(func() { *p = append(*p, d.float()) })
	case *[]int:
		*p = make([]int, 0, d.count())
		d.array(func() { *p = append(*p, int(d.integer(0))) })
	case **int:
		v := int(d.integer(0))
		*p = &v
	case *int:
		*p = int(d.integer(0))
	case *int64:
		*p = d.integer(64)
	case *uint64:
		*p = d.uint()
	case *float64:
		*p = d.float()
	case *string:
		*p = string(d.str())
	case *bool:
		if *p = d.literal("true"); !*p && !d.literal("false") {
			d.fail(d.off, "true or false")
		}
	}
}

// decoder reads one JSON document from body. The first error sticks and
// moves the offset to the end of the body, where every loop stops, so the
// readers above need no error checks of their own.
type decoder struct {
	body []byte
	off  int
	err  *Error
}

// fail records the first error, at byte offset at, and returns false.
func (d *decoder) fail(at int, want string) bool {
	if d.err == nil {
		d.err = badRequest(CodeBadJSON, "decoding request: byte %d: want %s", at, want)
	}
	d.off = len(d.body)
	return false
}

// count is the length of the flat array about to be read: one more than the
// commas before the first ']'. Sized by its own bytes, a slice is allocated
// once, and no field, such as a hostile n, reserves what the body lacks.
func (d *decoder) count() int {
	rest := d.body[d.off:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return bytes.Count(rest, []byte{','}) + 1
}

// document reads an object with the given keys, or null, and then nothing
// but white space.
func (d *decoder) document(keys []string, ptrs ...any) *Error {
	if !d.literal("null") {
		d.fields(keys, ptrs...)
	}
	if d.peek(); d.off < len(d.body) {
		d.fail(d.off, "end of input")
	}
	return d.err
}

// peek skips white space and returns the next byte, or 0 at the end.
func (d *decoder) peek() byte {
	for ; d.off < len(d.body); d.off++ {
		if c := d.body[d.off]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// expect consumes c, which must come next.
func (d *decoder) expect(c byte) bool {
	if d.peek() != c {
		return d.fail(d.off, strconv.QuoteRune(rune(c)))
	}
	d.off++
	return true
}

// literal consumes lit if its first byte comes next; the rest must follow.
func (d *decoder) literal(lit string) bool {
	if d.peek() != lit[0] {
		return false
	}
	if end := d.off + len(lit); end <= len(d.body) && string(d.body[d.off:end]) == lit {
		d.off = end
	} else {
		d.fail(d.off, lit)
	}
	return true
}

// more reports whether the object or array that end closes holds a member
// after the i already read, consuming the ',' before it or end.
func (d *decoder) more(end byte, i int) bool {
	if d.peek() == end {
		d.off++
		return false
	}
	return i == 0 || d.expect(',')
}

// array reads an array, calling elem to read each element. No element
// type admits null.
func (d *decoder) array(elem func()) {
	if d.expect('[') {
		for i := 0; d.more(']', i); i++ {
			elem()
		}
	}
}

// fields reads an object whose keys are among keys, each at most once,
// into the field ptrs holds at the key's index. A null value leaves the
// field as it is.
func (d *decoder) fields(keys []string, ptrs ...any) {
	if !d.expect('{') {
		return
	}
	var seen uint64
	for i := 0; d.more('}', i); i++ {
		d.peek()
		at, name := d.off, d.str()
		switch k := slices.Index(keys, string(name)); {
		case k < 0:
			d.fail(at, fmt.Sprintf("a key in %q", keys))
		case seen&(1<<k) != 0:
			d.fail(at, fmt.Sprintf("%q at most once", keys[k]))
		default:
			seen |= 1 << k
			if d.expect(':') && !d.literal("null") {
				d.value(ptrs[k])
			}
		}
	}
}

// str reads a string and returns its value. Printable ASCII without
// escapes is returned in place; anything else goes through encoding/json,
// so escapes, control bytes and invalid UTF-8 read exactly as there.
func (d *decoder) str() []byte {
	if d.peek() != '"' {
		d.fail(d.off, "a string")
		return nil
	}
	start, plain := d.off, true
	for i := start + 1; i < len(d.body); i++ {
		switch c := d.body[i]; {
		case c == '"':
			d.off = i + 1
			if plain {
				return d.body[start+1 : i]
			}
			var s string
			if err := json.Unmarshal(d.body[start:d.off], &s); err != nil {
				d.fail(start, "a valid string")
			}
			return []byte(s)
		case c == '\\':
			plain = false
			i++
		case c < 0x20 || c >= 0x80:
			plain = false
		}
	}
	d.fail(start, `a closing '"'`)
	return nil
}

// number reads a number token, checking the JSON grammar that strconv
// does not: strconv also takes "+1", "0x1p-2", "Inf" and "1_0". With
// integral set, a fraction or an exponent fails. The same scan reads the
// token's decimal value: when the token has at most 19 significant digits
// and no exponent part, plain is set and the value is ±mant/10^frac,
// negative when tok begins with '-'. The readers below convert from these,
// and hand any other token to strconv.
func (d *decoder) number(integral bool) (tok []byte, mant uint64, frac int, plain bool) {
	d.peek()
	b, start, i, ok, nd := d.body, d.off, d.off, true, 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		i, ok, mant, nd = significand(b, i, mant, nd)
	}
	intEnd := i
	if ok && i < len(b) && b[i] == '.' {
		i, ok, mant, nd = significand(b, i+1, mant, nd)
		frac = i - intEnd - 1
	}
	plain = nd <= 19
	if ok && i < len(b) && b[i]|0x20 == 'e' {
		plain = false
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		i, ok, _, _ = significand(b, i, 0, 0)
	}
	switch {
	case !ok:
		d.fail(start, "a number")
	case integral && i != intEnd:
		d.fail(start, "an integer")
	default:
		d.off = i
		return b[start:i], mant, frac, plain
	}
	return nil, 0, 0, false
}

// significand returns the end of the digit run at i and whether the run is
// non-empty. It counts the run's significant digits into nd and folds each
// into mant while mant holds fewer than 19. Zeros before the first nonzero
// digit are not significant.
func significand(b []byte, i int, mant uint64, nd int) (int, bool, uint64, int) {
	j := i
	for ; j < len(b) && '0' <= b[j] && b[j] <= '9'; j++ {
		if nd < 19 {
			mant = mant*10 + uint64(b[j]-'0')
		}
		if mant != 0 {
			nd++
		}
	}
	return j, j > i, mant, nd
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// float reads a float64 with strconv.ParseFloat's bits. When mant is at
// most 2^53 (so the token has at most 16 significant digits) and frac at
// most 22, both operands of mant/10^frac are exact float64s, so the one IEEE
// division rounds the token's exact value correctly, as strconv does
// (Clinger's fast path). The sign is applied after it, so "-0" and "-0.000"
// read as −0.
func (d *decoder) float() float64 {
	tok, mant, frac, plain := d.number(false)
	if plain && mant <= 1<<53 && frac < len(pow10) {
		f := float64(mant) / pow10[frac]
		if tok[0] == '-' {
			f = -f
		}
		return f
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.fail(d.off-len(tok), "a float64")
	}
	return v
}

// integer reads an integer of bits bits (0: an int) as strconv.ParseInt
// does. Below 2^63, mant fits an int64, and the value is in range when
// shifting its top 64−bits bits out and back leaves it unchanged.
func (d *decoder) integer(bits int) int64 {
	tok, mant, _, plain := d.number(true)
	if bits == 0 {
		bits = strconv.IntSize
	}
	if plain && mant < 1<<63 {
		v := int64(mant)
		if tok[0] == '-' {
			v = -v
		}
		if v<<(64-bits)>>(64-bits) == v {
			return v
		}
	}
	v, err := strconv.ParseInt(string(tok), 10, bits)
	if err != nil {
		d.fail(d.off-len(tok), "an integer in range")
	}
	return v
}

// uint reads a uint64 as strconv.ParseUint does: a plain mant is the value,
// and a sign, even on 0, is an error.
func (d *decoder) uint() uint64 {
	tok, mant, _, plain := d.number(true)
	if plain && tok[0] != '-' {
		return mant
	}
	v, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		d.fail(d.off-len(tok), "a uint64")
	}
	return v
}
