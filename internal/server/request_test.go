package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode/utf16"
	"unicode/utf8"

	"liquid/internal/rng"
)

// decodeStrict is the oracle for the request decoder: encoding/json with
// unknown fields rejected. Whenever decodeEvaluate or decodeWhatIf accepts a
// body, decodeStrict accepts it too with bitsEqual values.
func decodeStrict(body []byte, dst any) *Error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest(CodeBadJSON, "decoding request: %v", err)
	}
	if dec.More() {
		return badRequest(CodeBadJSON, "trailing data after JSON document")
	}
	return nil
}

func validEvaluateBody() string {
	return `{
		"instance": {"n": 5, "complete": true, "p": [0.6, 0.6, 0.7, 0.5, 0.8]},
		"mechanism": {"name": "approval-threshold", "alpha": 0.1},
		"alphas": [0, 0.05, 0.1],
		"seed": 7,
		"replications": 8
	}`
}

func TestParseEvaluateRequestValid(t *testing.T) {
	parsed, aerr := ParseEvaluateRequest([]byte(validEvaluateBody()))
	if aerr != nil {
		t.Fatalf("ParseEvaluateRequest: %v", aerr)
	}
	if parsed.Instance.N() != 5 {
		t.Fatalf("n = %d", parsed.Instance.N())
	}
	if len(parsed.Mechanisms) != 3 || len(parsed.Alphas) != 3 {
		t.Fatalf("mechanisms = %d, alphas = %d, want 3 each", len(parsed.Mechanisms), len(parsed.Alphas))
	}
	if parsed.Req.Seed != 7 || parsed.Req.Replications != 8 {
		t.Fatalf("seed/replications = %d/%d", parsed.Req.Seed, parsed.Req.Replications)
	}
}

func TestParseEvaluateRequestRejections(t *testing.T) {
	cases := []struct {
		name, body, code string
	}{
		{"garbage", `{]`, CodeBadJSON},
		{"unknown field", `{"instance": {"n": 1, "p": [0.5]}, "mechanism": {"name": "direct"}, "bogus": 1}`, CodeBadJSON},
		{"trailing data", `{"instance": {"n": 1, "p": [0.5]}, "mechanism": {"name": "direct"}} {"again": true}`, CodeBadJSON},
		{"competency below zero", `{"instance": {"n": 1, "p": [-0.5]}, "mechanism": {"name": "direct"}}`, CodeBadCompetency},
		{"competency above one", `{"instance": {"n": 1, "p": [1.5]}, "mechanism": {"name": "direct"}}`, CodeBadCompetency},
		{"alpha above one", `{"instance": {"n": 1, "p": [0.5]}, "mechanism": {"name": "approval-threshold"}, "alphas": [1.5]}`, CodeBadAlpha},
		{"alpha negative", `{"instance": {"n": 1, "p": [0.5]}, "mechanism": {"name": "approval-threshold", "alpha": -0.1}}`, CodeBadAlpha},
		{"duplicate edge", `{"instance": {"n": 3, "edges": [[0,1],[1,0]], "p": [0.5,0.5,0.5]}, "mechanism": {"name": "direct"}}`, CodeDuplicateEdge},
		{"self loop", `{"instance": {"n": 3, "edges": [[1,1]], "p": [0.5,0.5,0.5]}, "mechanism": {"name": "direct"}}`, CodeBadEdge},
		{"edge out of range", `{"instance": {"n": 3, "edges": [[0,7]], "p": [0.5,0.5,0.5]}, "mechanism": {"name": "direct"}}`, CodeBadEdge},
		{"unknown mechanism", `{"instance": {"n": 1, "p": [0.5]}, "mechanism": {"name": "telepathy"}}`, CodeBadMechanism},
		{"zero voters", `{"instance": {"n": 0, "p": []}, "mechanism": {"name": "direct"}}`, CodeBadRequest},
		{"p length mismatch", `{"instance": {"n": 2, "p": [0.5]}, "mechanism": {"name": "direct"}}`, CodeBadRequest},
		{"complete with edges", `{"instance": {"n": 2, "complete": true, "edges": [[0,1]], "p": [0.5,0.5]}, "mechanism": {"name": "direct"}}`, CodeBadRequest},
		{"negative replications", `{"instance": {"n": 1, "p": [0.5]}, "mechanism": {"name": "direct"}, "replications": -1}`, CodeBadRequest},
		{"negative deadline", `{"instance": {"n": 1, "p": [0.5]}, "mechanism": {"name": "direct"}, "deadline_ms": -5}`, CodeBadRequest},
		{"unknown policy", `{"instance": {"n": 1, "p": [0.5]}, "mechanism": {"name": "direct"}, "fault": {"policy": "wish"}}`, CodeBadRequest},
		{"down rate one", `{"instance": {"n": 1, "p": [0.5]}, "mechanism": {"name": "direct"}, "fault": {"policy": "lose-weight", "down_rate": 1}}`, CodeBadRequest},
		{"fault alpha", `{"instance": {"n": 1, "p": [0.5]}, "mechanism": {"name": "direct"}, "fault": {"policy": "redelegate", "alpha": 2}}`, CodeBadAlpha},
		{"trailing close brace", `{"instance": {"n": 1, "p": [0.5]}, "mechanism": {"name": "direct"}}}`, CodeBadJSON},
		{"null competency", `{"instance": {"n": 2, "p": [0.5, null]}, "mechanism": {"name": "direct"}}`, CodeBadJSON},
		{"key case", `{"Instance": {"n": 1, "p": [0.5]}, "mechanism": {"name": "direct"}}`, CodeBadJSON},
		{"edge of three", `{"instance": {"n": 3, "edges": [[0,1,2]], "p": [0.5,0.5,0.5]}, "mechanism": {"name": "direct"}}`, CodeBadJSON},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parsed, aerr := ParseEvaluateRequest([]byte(tc.body))
			if aerr == nil {
				t.Fatalf("accepted: %+v", parsed)
			}
			if aerr.Code != tc.code {
				t.Fatalf("code = %s (%s), want %s", aerr.Code, aerr.Message, tc.code)
			}
			if aerr.Status != 400 {
				t.Fatalf("status = %d, want 400", aerr.Status)
			}
		})
	}
}

// NaN and Inf cannot ride in as JSON literals, but the validator is also
// the guard for programmatic construction (and for any future binary
// decoding), so it must reject them directly.
func TestValidateInstanceNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		spec := &InstanceSpec{N: 1, Complete: false, P: []float64{bad}}
		if _, aerr := validateInstance(spec); aerr == nil || aerr.Code != CodeBadCompetency {
			t.Fatalf("p = %v accepted (err %v)", bad, aerr)
		}
	}
	if validAlpha(math.NaN()) || validAlpha(math.Inf(1)) {
		t.Fatal("non-finite alpha accepted")
	}
}

func TestParseWhatIfRequest(t *testing.T) {
	body := `{
		"instance": {"n": 3, "complete": true, "p": [0.5, 0.6, 0.9]},
		"delegations": [2, 2, -1]
	}`
	parsed, aerr := ParseWhatIfRequest([]byte(body))
	if aerr != nil {
		t.Fatalf("ParseWhatIfRequest: %v", aerr)
	}
	if got := parsed.Graph.Delegate; got[0] != 2 || got[1] != 2 || got[2] != -1 {
		t.Fatalf("delegations = %v", got)
	}

	// The base profile is the decoded array itself, and applying deltas
	// leaves it as the wire spelled it.
	parsed, aerr = ParseWhatIfRequest([]byte(`{"instance": {"n": 3, "complete": true, "p": [0.5, 0.6, 0.9]},
		"delegations": [2, 2, -1], "deltas": [{"kind": "repoint", "voter": 0}, {"kind": "remove-voter", "voter": 2}]}`))
	if aerr != nil {
		t.Fatalf("ParseWhatIfRequest with deltas: %v", aerr)
	}
	if got := parsed.Graph.Delegate; &got[0] != &parsed.Req.Delegations[0] || got[0] != 2 || got[1] != 2 || got[2] != -1 {
		t.Fatalf("base delegations = %v, want the decoded [2 2 -1] in place", got)
	}
	if got := parsed.FinalGraph.Delegate; len(got) != 2 || got[0] != -1 || got[1] != -1 {
		t.Fatalf("final delegations = %v, want [-1 -1]", got)
	}

	for _, tc := range []struct{ name, body, code string }{
		{"length mismatch", `{"instance": {"n": 3, "complete": true, "p": [0.5,0.5,0.5]}, "delegations": [1]}`, CodeBadRequest},
		{"self delegation", `{"instance": {"n": 2, "complete": true, "p": [0.5,0.5]}, "delegations": [0, -1]}`, CodeBadRequest},
		{"out of range", `{"instance": {"n": 2, "complete": true, "p": [0.5,0.5]}, "delegations": [5, -1]}`, CodeBadRequest},
		{"trailing close bracket", `{"instance": {"n": 2, "complete": true, "p": [0.5,0.5]}, "delegations": [-1, -1]}]`, CodeBadJSON},
		{"null delegation", `{"instance": {"n": 2, "complete": true, "p": [0.5,0.5]}, "delegations": [-1, null]}`, CodeBadJSON},
		{"repeated key", `{"instance": {"n": 2, "complete": true, "p": [0.5,0.5]}, "delegations": [1, -1], "delegations": [-1, -1]}`, CodeBadJSON},
		{"edge of one", `{"instance": {"n": 2, "edges": [[1]], "p": [0.5,0.5]}, "delegations": [-1, -1]}`, CodeBadJSON},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, aerr := ParseWhatIfRequest([]byte(tc.body)); aerr == nil || aerr.Code != tc.code {
				t.Fatalf("err = %v, want code %s", aerr, tc.code)
			}
		})
	}
}

// FuzzDecodeEvaluateRequest is the decode-hardening fuzz target: whatever
// the bytes, the parser must not panic, anything it accepts must satisfy
// the invariants the handlers rely on, and any body the decoder accepts
// the oracle accepts with equal values.
func FuzzDecodeEvaluateRequest(f *testing.F) {
	f.Add([]byte(validEvaluateBody()))
	f.Add([]byte(`{"instance": {"n": 3, "edges": [[0,1],[1,2]], "p": [0.1,0.2,0.3]}, "mechanism": {"name": "half-neighborhood", "alpha": 0.2}, "seed": 1}`))
	f.Add([]byte(`{"instance": {"n": 1, "p": [1e999]}, "mechanism": {"name": "direct"}}`))
	f.Add([]byte(`{"instance": {"n": 2, "edges": [[0,1],[0,1]], "p": [0.5,0.5]}, "mechanism": {"name": "greedy-best"}}`))
	f.Add([]byte(`{"instance": {"n": -1, "p": []}, "mechanism": {"name": "direct"}, "fault": {"policy": "redelegate"}}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkOracle(t, body, decodeEvaluate)
		parsed, aerr := ParseEvaluateRequest(body)
		if aerr != nil {
			if parsed != nil {
				t.Fatal("error with non-nil result")
			}
			if aerr.Code == "" || aerr.Status != 400 {
				t.Fatalf("malformed rejection: %+v", aerr)
			}
			return
		}
		if parsed.Instance == nil || parsed.Instance.N() <= 0 || parsed.Instance.N() > maxVoters {
			t.Fatalf("accepted instance out of bounds: %+v", parsed.Instance)
		}
		if len(parsed.Mechanisms) != len(parsed.Alphas) || len(parsed.Mechanisms) == 0 {
			t.Fatalf("mechanisms/alphas mismatch: %d vs %d", len(parsed.Mechanisms), len(parsed.Alphas))
		}
		for _, a := range parsed.Alphas {
			if !validAlpha(a) {
				t.Fatalf("accepted alpha %v", a)
			}
		}
		for _, p := range parsed.Instance.Competencies() {
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Fatalf("accepted competency %v", p)
			}
		}
		// Accepted requests must re-encode: the handlers marshal responses
		// that embed request-derived values.
		if _, err := json.Marshal(parsed.Req); err != nil {
			t.Fatalf("re-encoding accepted request: %v", err)
		}
	})
}

// FuzzDecodeWhatIfRequest holds the what-if decoder to the oracle and the
// what-if parser to its invariants. Every body is parsed without a memo and
// then three times through a fresh one: a first sighting, a second that
// stores, and a hit. The four parses must agree bit for bit or fail with
// the same *Error.
func FuzzDecodeWhatIfRequest(f *testing.F) {
	// README's three what-if bodies, and one with every delta kind.
	f.Add([]byte(`{"instance": {"n": 3, "complete": true, "p": [0.5, 0.6, 0.9]}, "delegations": [2, 2, -1]}`))
	f.Add([]byte(`{"instance": {"n": 3, "complete": true, "p": [0.5, 0.6, 0.9]}, "delegations": [2, 2, -1],
		"deltas": [{"kind": "repoint", "voter": 0}, {"kind": "competency", "voter": 1, "p": 0.65}]}`))
	f.Add([]byte(`{"instance": {"n": 3, "complete": true, "p": [0.5, 0.6, 0.9]}, "delegations": [2, 2, -1], "error_budget": 1e-3}`))
	f.Add([]byte(`{"instance": {"n": 4, "edges": [[0,1],[1,2],[2,3]], "p": [0.5, 0.6, 0.7, 0.9]}, "delegations": [1, -1, -1, 2],
		"deltas": [{"kind": "competency", "voter": 0, "p": 0.55}, {"kind": "repoint", "voter": 0, "target": null},
		{"kind": "add-voter", "p": 0.8, "edges": [3], "target": 3}, {"kind": "remove-voter", "voter": 2},
		{"kind": "add-edge", "voter": 0, "target": 2}, {"kind": "remove-edge", "voter": 0, "target": 1}],
		"deadline_ms": 500}`))
	// Bodies whose candidate spans are not their values, and values the memo
	// must not keep.
	f.Add([]byte(`{"delegations": [1, -1], "deltas": [{"kind": "add-voter", "p": 0.5, "edges": [1]}], "instance": {"n": 2, "edges": [[0, 1]], "p": [0.5, 0.5]}}`))
	f.Add([]byte(`{"instance": {"n": 2, "complete": true, "p": [0.5, 0.5]}}, "delegations": [1, -1]}`))
	f.Add([]byte(`{"instance": {"n": 2, "complete": true, "p": [0.5, 0.5] "delegations": [1, -1]}`))
	f.Add([]byte(`{"instance": {"n": 2, "complete": true, "p": [0.5, 1.5]}, "delegations": [1, 1]}`))
	f.Add([]byte(`{"instance": {"n": 2, "complete": true, "p": [0.5, 0.5]}, "delegations": [1, 2]}`))
	f.Add([]byte(`{"instance": null, "delegations": [[1], -1]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkOracle(t, body, decodeWhatIf)
		parsed, aerr := ParseWhatIfRequest(body)
		memo := newBaseMemo()
		sighted, sightedErr := parseWhatIf(body, memo)
		checkSameParse(t, "through an empty memo", parsed, aerr, sighted, sightedErr)
		miss, missErr := parseWhatIf(body, memo)
		checkSameParse(t, "through the sighting memo", parsed, aerr, miss, missErr)
		hit, hitErr := parseWhatIf(body, memo)
		checkSameParse(t, "through the filled memo", parsed, aerr, hit, hitErr)
		if aerr == nil && (len(memo.m) != 2 || hit.Instance != miss.Instance || &hit.Req.Delegations[0] != &miss.Req.Delegations[0]) {
			t.Fatalf("an accepted body left %d entries, and its third parse did not read both from them", len(memo.m))
		}
		if aerr != nil {
			if parsed != nil || aerr.Code == "" || aerr.Status != 400 {
				t.Fatalf("malformed rejection: %+v", aerr)
			}
			return
		}
		n := parsed.Instance.N()
		if n <= 0 || n > maxVoters || len(parsed.Graph.Delegate) != n || parsed.FinalInstance.N() > maxVoters {
			t.Fatalf("accepted what-if out of bounds: n = %d, %d delegations", n, len(parsed.Graph.Delegate))
		}
	})
}

// checkOracle fails t when decode accepts body and the oracle does not, or
// reads values that differ in one bit.
func checkOracle[T any](t *testing.T, body []byte, decode func([]byte, *T) *Error) {
	t.Helper()
	var got, want T
	if aerr := decode(body, &got); aerr != nil {
		if aerr.Code != CodeBadJSON || aerr.Status != 400 {
			t.Fatalf("decoder rejection %+v, want a 400 %s", aerr, CodeBadJSON)
		}
		return
	}
	if aerr := decodeStrict(body, &want); aerr != nil {
		t.Fatalf("decoder accepted %q, oracle refused it: %v", body, aerr)
	}
	if !bitsEqual(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Fatalf("decoder read %q as %+v, oracle as %+v", body, got, want)
	}
}

// bitsEqual is reflect.DeepEqual over the request types, except that floats
// are equal only bit for bit: −0 differs from +0, as it does in a response
// that echoes it.
func bitsEqual(x, y reflect.Value) bool {
	switch x.Kind() {
	case reflect.Float64:
		return math.Float64bits(x.Float()) == math.Float64bits(y.Float())
	case reflect.Pointer:
		if x.IsNil() || y.IsNil() {
			return x.IsNil() == y.IsNil()
		}
		return bitsEqual(x.Elem(), y.Elem())
	case reflect.Struct:
		for i := range x.NumField() {
			if !bitsEqual(x.Field(i), y.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if x.IsNil() != y.IsNil() {
			return false
		}
		fallthrough
	case reflect.Array:
		if x.Len() != y.Len() {
			return false
		}
		for i := range x.Len() {
			if !bitsEqual(x.Index(i), y.Index(i)) {
				return false
			}
		}
		return true
	}
	return x.Interface() == y.Interface()
}

// TestDecoderRefusals covers the decoder's error paths, each body under
// both schemas. The first group is the four kinds of body encoding/json
// accepts and the decoder refuses; the oracle refuses every other body here
// too.
func TestDecoderRefusals(t *testing.T) {
	const inst = `"instance": {"n": 2, "p": [0.5, 0.5]}`
	for _, tc := range []struct {
		name, body    string
		oracleAccepts bool
	}{
		{"trailing brace", `{"deadline_ms": 1}}`, true},
		{"trailing bracket", `{"deadline_ms": 1}]`, true},
		{"null element", `{"instance": {"p": [0.1, null]}}`, true},
		{"null edge", `{"instance": {"edges": [null]}}`, true},
		{"folded key", `{"DEADLINE_MS": 1}`, true},
		{"folded nested key", `{"instance": {"N": 2}}`, true},
		{"repeated key", `{"deadline_ms": 1, "deadline_ms": 2}`, true},
		{"repeated object", `{` + inst + `, ` + inst + `}`, true},
		{"three endpoints", `{"instance": {"edges": [[0, 1, 2]]}}`, true},
		{"one endpoint", `{"instance": {"edges": [[1]]}}`, true},
		{"null endpoint", `{"instance": {"edges": [[0, null]]}}`, true},

		{"empty", ``, false},
		{"space", " \n\t", false},
		{"array document", `[]`, false},
		{"second document", `{"seed": 1} {}`, false},
		{"nul byte", "{\x00}", false},
		{"truncated null", `nul`, false},
		{"truncated object", `{"seed": 1`, false},
		{"truncated key", `{"see`, false},
		{"truncated array", `{"alphas": [1`, false},
		{"unknown key", `{"bogus": 1}`, false},
		{"escaped unknown key", `{"se\u0065ds": 1}`, false},
		{"bare key", `{seed: 1}`, false},
		{"missing colon", `{"seed" 1}`, false},
		{"missing comma", `{"seed": 1 "replications": 2}`, false},
		{"trailing comma", `{"seed": 1,}`, false},
		{"trailing element comma", `{"alphas": [1,]}`, false},
		{"leading comma", `{"alphas": [,1]}`, false},
		{"missing element comma", `{"alphas": [1 2]}`, false},
		{"object for array", `{"alphas": {}}`, false},
		{"array for object", `{"instance": [1]}`, false},
		{"number for string", `{"mechanism": {"name": 5}}`, false},
		{"string for number", `{"seed": "1"}`, false},
		{"number for bool", `{"instance": {"complete": 1}}`, false},
		{"bad literal", `{"instance": {"complete": tru}}`, false},
		{"bad null", `{"seed": nul}`, false},
		{"leading zero", `{"seed": 01}`, false},
		{"plus sign", `{"seed": +1}`, false},
		{"hex", `{"mechanism": {"alpha": 0x1p-2}}`, false},
		{"infinity", `{"mechanism": {"alpha": Inf}}`, false},
		{"underscore", `{"seed": 1_0}`, false},
		{"bare minus", `{"seed": -}`, false},
		{"bare point", `{"mechanism": {"alpha": .5}}`, false},
		{"point without digits", `{"mechanism": {"alpha": 1.}}`, false},
		{"exponent without digits", `{"mechanism": {"alpha": 1e+}}`, false},
		{"fraction for int", `{"replications": 1.0}`, false},
		{"exponent for int", `{"instance": {"n": 1e2}}`, false},
		{"negative uint", `{"seed": -1}`, false},
		{"int overflow", `{"deadline_ms": 9223372036854775808}`, false},
		{"float overflow", `{"error_budget": 1e400}`, false},
		{"control byte", "{\"mechanism\": {\"name\": \"a\x01\"}}", false},
		{"bad escape", `{"mechanism": {"name": "\x41"}}`, false},
		{"short unicode escape", `{"mechanism": {"name": "\u00"}}`, false},
		{"unterminated string", `{"mechanism": {"name": "abc}}`, false},
		{"escaped quote unterminated", `{"mechanism": {"name": "abc\"}}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, decode := range []func() (*Error, *Error){
				func() (*Error, *Error) {
					var a, b EvaluateRequest
					return decodeEvaluate([]byte(tc.body), &a), decodeStrict([]byte(tc.body), &b)
				},
				func() (*Error, *Error) {
					var a, b WhatIfRequest
					return decodeWhatIf([]byte(tc.body), &a), decodeStrict([]byte(tc.body), &b)
				},
			} {
				aerr, oracle := decode()
				if aerr == nil || aerr.Code != CodeBadJSON || aerr.Status != 400 || !strings.Contains(aerr.Message, "byte ") {
					t.Fatalf("rejection %+v, want a 400 %s naming the byte", aerr, CodeBadJSON)
				}
				if (oracle == nil) != tc.oracleAccepts {
					t.Fatalf("oracle error %v, want accepted = %v", oracle, tc.oracleAccepts)
				}
			}
		})
	}
	// The message names the offset of the first byte that broke the schema.
	var req EvaluateRequest
	if aerr := decodeEvaluate([]byte(`{"seed": 1}}`), &req); aerr == nil || aerr.Message != "decoding request: byte 11: want end of input" {
		t.Fatalf("message = %v", aerr)
	}
}

// TestDecoderMatchesOracle is the direction the fuzz targets cannot check:
// every well-formed request, spelled with varied key order, white space,
// number spellings, nulls for absent fields and escaped strings, reads the
// same through the decoder and the oracle, bit for bit, and as the value it
// spells. The last comparison is reflect.DeepEqual, because the speller
// writes +0 as -0 on purpose.
func TestDecoderMatchesOracle(t *testing.T) {
	s := rng.New(rng.Derive(21, "server", "decoder-oracle"))
	for trial := 0; trial < 2000; trial++ {
		checkSpelled(t, s, decodeEvaluate)
		checkSpelled(t, s, decodeWhatIf)
	}
}

func checkSpelled[T any](t *testing.T, s *rng.Stream, decode func([]byte, *T) *Error) {
	t.Helper()
	var want, got, oracle T
	fill(s, reflect.ValueOf(&want).Elem())
	sp := speller{s: s}
	sp.value(reflect.ValueOf(want))
	if aerr := decode(sp.b, &got); aerr != nil {
		t.Fatalf("decoder refused %s: %v", sp.b, aerr)
	}
	if aerr := decodeStrict(sp.b, &oracle); aerr != nil {
		t.Fatalf("oracle refused %s: %v", sp.b, aerr)
	}
	if !bitsEqual(reflect.ValueOf(got), reflect.ValueOf(oracle)) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s\nspells %+v\ndecoder %+v\noracle  %+v", sp.b, want, got, oracle)
	}
}

// fill sets v to a random value of its type, leaving it zero a quarter of
// the time.
func fill(s *rng.Stream, v reflect.Value) {
	if s.IntN(4) == 0 {
		return
	}
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(s, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(s, v.Field(i))
		}
	case reflect.Slice:
		n := s.IntN(6)
		if s.IntN(8) == 0 {
			n = 100 + s.IntN(200)
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(s, v.Index(i))
		}
	case reflect.String:
		runes := []string{"a", "Z", "_", "-", "/", `"`, `\`, "\n", "\x01", "\x7f", "é", "\u2028", "😀"}
		var b strings.Builder
		for k := s.IntN(8); k > 0; k-- {
			b.WriteString(runes[s.IntN(len(runes))])
		}
		v.SetString(b.String())
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		if s.IntN(2) == 0 {
			v.SetInt(int64(s.Uint64()))
		} else {
			v.SetInt(int64(s.IntN(4000)) - 2)
		}
	case reflect.Uint64:
		v.SetUint(s.Uint64())
	case reflect.Float64:
		f := []float64{s.Float64(), float64(s.IntN(3)), -s.Float64() * 1e-310, math.Float64frombits(s.Uint64()), 1e300 * s.Float64()}[s.IntN(5)]
		if math.IsNaN(f) || math.IsInf(f, 0) {
			f = 0.5
		}
		v.SetFloat(f)
	}
}

// speller writes a request value as JSON, choosing the spelling at random.
type speller struct {
	s *rng.Stream
	b []byte
}

func (sp *speller) space() {
	sp.b = append(sp.b, []string{"", "", " ", "\n\t", "\r\n  "}[sp.s.IntN(5)]...)
}

func (sp *speller) value(v reflect.Value) {
	sp.space()
	switch v.Kind() {
	case reflect.Pointer:
		sp.value(v.Elem())
	case reflect.Struct:
		sp.b = append(sp.b, '{')
		first := true
		for _, i := range sp.s.Perm(v.NumField()) {
			f, key := v.Field(i), strings.Split(v.Type().Field(i).Tag.Get("json"), ",")[0]
			if f.IsZero() && sp.s.IntN(3) == 0 {
				continue // absent
			}
			if !first {
				sp.b = append(sp.b, ',')
			}
			first = false
			sp.space()
			sp.string(key)
			sp.space()
			sp.b = append(sp.b, ':')
			if f.IsZero() && (sp.s.IntN(2) == 0 || f.Kind() == reflect.Pointer || f.Kind() == reflect.Slice) {
				sp.space()
				sp.b = append(sp.b, "null"...) // absent too
			} else {
				sp.value(f)
			}
		}
		sp.space()
		sp.b = append(sp.b, '}')
	case reflect.Slice, reflect.Array:
		sp.b = append(sp.b, '[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				sp.b = append(sp.b, ',')
			}
			sp.value(v.Index(i))
		}
		sp.space()
		sp.b = append(sp.b, ']')
	case reflect.String:
		sp.string(v.String())
	case reflect.Bool:
		sp.b = strconv.AppendBool(sp.b, v.Bool())
	case reflect.Int, reflect.Int64:
		if v.Int() == 0 && sp.s.IntN(2) == 0 {
			sp.b = append(sp.b, "-0"...)
		} else {
			sp.b = strconv.AppendInt(sp.b, v.Int(), 10)
		}
	case reflect.Uint64:
		sp.b = strconv.AppendUint(sp.b, v.Uint(), 10)
	case reflect.Float64:
		sp.float(v.Float())
	}
	sp.space()
}

// float writes one of several spellings of the decimal that formats f
// shortest, so every spelling parses back to f: 0.5 as 0.5, 5e-01, 5E-01,
// 50e-2 or 5.0E-1, and zero also as -0, 0.0e3 or -0.000.
func (sp *speller) float(f float64) {
	e := strconv.FormatFloat(f, 'e', -1, 64) // [-]d[.ddd]e±dd
	mant, exp, _ := strings.Cut(e, "e")
	x, _ := strconv.Atoi(exp)
	sign := ""
	if mant[0] == '-' {
		sign, mant = "-", mant[1:]
	}
	digits := strings.Replace(mant, ".", "", 1)
	switch k := sp.s.IntN(6); {
	case f == 0 && k < 3:
		sp.b = append(sp.b, []string{"-0", "0.0e3", "-0.000"}[k]...)
	case k == 0:
		sp.b = strconv.AppendFloat(sp.b, f, 'g', -1, 64)
	case k == 1:
		sp.b = append(sp.b, e...)
	case k == 2:
		sp.b = append(sp.b, strings.ToUpper(e)...)
	case k == 3 && f != 0: // digits as an integer, then a longer exponent
		sp.b = append(sp.b, sign+digits+"0e"+strconv.Itoa(x-len(digits))...)
	case k == 4: // a fraction with a trailing zero
		exp := strconv.Itoa(x)
		if x >= 0 {
			exp = "+" + exp
		}
		sp.b = append(sp.b, sign+mant[:1]+"."+mant[min(2, len(mant)):]+"0E"+exp...)
	default:
		sp.b = strconv.AppendFloat(sp.b, f, 'f', -1, 64)
	}
}

// string writes s quoted, escaping each rune at random where JSON allows
// it and always where it must.
func (sp *speller) string(s string) {
	sp.b = append(sp.b, '"')
	for _, r := range s {
		switch {
		case r == '"' || r == '\\' || r < 0x20 || sp.s.IntN(3) == 0:
			if short := map[rune]string{'"': `\"`, '\\': `\\`, '\n': `\n`, '/': `\/`}[r]; short != "" && sp.s.IntN(2) == 0 {
				sp.b = append(sp.b, short...)
			} else if r1, r2 := utf16.EncodeRune(r); r1 != utf8.RuneError {
				sp.b = fmt.Appendf(sp.b, `\u%04x\u%04x`, r1, r2)
			} else {
				sp.b = fmt.Appendf(sp.b, `\u%04x`, r)
			}
		default:
			sp.b = utf8.AppendRune(sp.b, r)
		}
	}
	sp.b = append(sp.b, '"')
}

// TestDecoderStrings pins the string paths: plain ASCII is read in place,
// and anything else reads as encoding/json reads it, invalid UTF-8 included.
func TestDecoderStrings(t *testing.T) {
	for body, want := range map[string]string{
		`{"mechanism": {"name": "direct"}}`:            "direct",
		`{"mechanism": {"name": "dir\u0065ct"}}`:       "direct",
		`{"mechanism": {"name": "a\"b\\c\/d\td"}}`:     "a\"b\\c/d\td",
		"{\"mechanism\": {\"name\": \"caf\xc3\xa9\"}}": "café",
		"{\"mechanism\": {\"name\": \"bad\xff\"}}":     "bad\ufffd",
		`{"mechanism": {"name": "\ud83d\ude00"}}`:      "😀",
		`{"mechanism": {"name": "\ud83d"}}`:            "\ufffd",
		`{"mechanism": {"n\u0061me": "x"}, "seed": 3}`: "x",
	} {
		var got EvaluateRequest
		if aerr := decodeEvaluate([]byte(body), &got); aerr != nil || got.Mechanism.Name != want {
			t.Fatalf("%s: name %q (%v), want %q", body, got.Mechanism.Name, aerr, want)
		}
		checkOracle(t, []byte(body), decodeEvaluate)
	}
}

// TestDecoderKeysMatchTags keeps the decoder's key tables in step with the
// wire types' json tags.
func TestDecoderKeysMatchTags(t *testing.T) {
	for _, tc := range []struct {
		v    any
		keys []string
	}{
		{EvaluateRequest{}, evaluateKeys},
		{WhatIfRequest{}, whatIfKeys},
		{InstanceSpec{}, instanceKeys},
		{MechanismSpec{}, mechanismKeys},
		{FaultSpec{}, faultKeys},
		{DeltaSpec{}, deltaKeys},
	} {
		typ := reflect.TypeOf(tc.v)
		var tags []string
		for i := 0; i < typ.NumField(); i++ {
			tags = append(tags, strings.Split(typ.Field(i).Tag.Get("json"), ",")[0])
		}
		if !reflect.DeepEqual(tags, tc.keys) {
			t.Errorf("%s: decoder keys %q, json tags %q", typ, tc.keys, tags)
		}
	}
}

// TestDecoderSizesArraysByTheirElements: an array's slice is reserved from
// the array's own elements, so a hostile n reserves nothing and key order
// does not matter.
func TestDecoderSizesArraysByTheirElements(t *testing.T) {
	for body, want := range map[string]int{
		`{"instance": {"n": 1000000000, "p": [0.5]}}`:             1,
		`{"instance": {"n": -1, "p": [0.5, 0.5]}}`:                2,
		`{"instance": {"p": [0.5, 0.5, 0.5], "n": 9}}`:            3,
		`{"delegations": [1, -1, 0, 2], "instance": {"n": 4000}}`: 4,
	} {
		var req WhatIfRequest
		if aerr := decodeWhatIf([]byte(body), &req); aerr != nil {
			t.Fatalf("%s: %v", body, aerr)
		}
		if got := cap(req.Instance.P) + cap(req.Delegations); got != want {
			t.Fatalf("%s: reserved %d elements, want %d", body, got, want)
		}
	}
}

// BenchmarkParseWhatIfRequest parses a 2000-voter delta what-if shaped like
// the benchmark's serve_delta bodies: a complete instance whose competencies,
// uniform in [0.3, 0.8), are printed by encoding/json, a profile in which
// each voter delegates to a uniformly chosen later voter with probability
// 1/2, two repoints and one competency edit. It parses without a memo, through
// an empty memo (both values miss and are sighted, which records their
// hashes), and through a memo that holds both values (both hit).
func BenchmarkParseWhatIfRequest(b *testing.B) {
	const n = 2000
	s := rng.New(rng.Derive(27, "server", "parse-whatif-bench"))
	req := WhatIfRequest{Instance: InstanceSpec{N: n, Complete: true, P: make([]float64, n)}, Delegations: make([]int, n), DeadlineMS: 1000}
	for v := range n {
		req.Instance.P[v] = 0.3 + 0.5*s.Float64()
		req.Delegations[v] = -1
		if v < n-1 && s.Float64() < 0.5 {
			req.Delegations[v] = v + 1 + s.IntN(n-v-1)
		}
	}
	to := n - 1
	req.Deltas = []DeltaSpec{
		{Kind: "repoint", Voter: 10, Target: &to},
		{Kind: "repoint", Voter: 1500},
		{Kind: "competency", Voter: 7, P: 0.3 + 0.5*s.Float64()},
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("memoless", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, aerr := ParseWhatIfRequest(body); aerr != nil {
				b.Fatal(aerr)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, aerr := parseWhatIf(body, newBaseMemo()); aerr != nil {
				b.Fatal(aerr)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		// The memo stores a value from its second sighting.
		memo := newBaseMemo()
		for range 2 {
			if _, aerr := parseWhatIf(body, memo); aerr != nil {
				b.Fatalf("warming the memo: %v", aerr)
			}
		}
		if len(memo.m) != 2 {
			b.Fatalf("warming the memo left %d entries", len(memo.m))
		}
		b.ReportAllocs()
		for b.Loop() {
			if _, aerr := parseWhatIf(body, memo); aerr != nil {
				b.Fatal(aerr)
			}
		}
	})
}
