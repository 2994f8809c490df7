package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"liquid/internal/core"
	"liquid/internal/election"
	"liquid/internal/rng"
)

// checkSameParse fails t unless two parses of one body agree: the same
// *Error (code, status and message), or parses equal bit for bit.
func checkSameParse(t *testing.T, what string, want *ParsedWhatIf, wantErr *Error, got *ParsedWhatIf, gotErr *Error) {
	t.Helper()
	if wantErr != nil || gotErr != nil {
		if wantErr == nil || gotErr == nil || *wantErr != *gotErr || got != nil {
			t.Fatalf("%s: error %+v, want %+v", what, gotErr, wantErr)
		}
		return
	}
	same := bitsEqual(reflect.ValueOf(*got.Req), reflect.ValueOf(*want.Req)) &&
		sameInstance(got.Instance, want.Instance) && reflect.DeepEqual(got.Graph, want.Graph) &&
		bitsEqual(reflect.ValueOf(got.Deltas), reflect.ValueOf(want.Deltas)) &&
		sameInstance(got.FinalInstance, want.FinalInstance) && reflect.DeepEqual(got.FinalGraph, want.FinalGraph)
	if !same {
		t.Fatalf("%s: parse %+v, want %+v", what, got, want)
	}
}

// sameInstance reports whether two instances hold the same topology,
// competencies (bit for bit) and competency order.
func sameInstance(x, y *core.Instance) bool {
	if x.N() != y.N() || !reflect.DeepEqual(x.Topology(), y.Topology()) || !slices.Equal(x.CompetencyOrder(), y.CompetencyOrder()) {
		return false
	}
	for i := range x.N() {
		if math.Float64bits(x.Competency(i)) != math.Float64bits(y.Competency(i)) {
			return false
		}
	}
	return true
}

// TestBaseMemoBudget holds the memo to its byte budget: the charge, the
// entries' and the hashes', never passes it, the insert that would pass it
// drops the map first, a repeated span is charged once, and a value larger
// than the budget is not stored.
func TestBaseMemoBudget(t *testing.T) {
	memo := newBaseMemo()
	memo.maxBytes = 1000
	profile := func(words int) baseEntry { return baseEntry{profile: make([]int, words)} }
	check := func(span string) {
		t.Helper()
		sum := seenBytes * len(memo.seen)
		for k, e := range memo.m {
			sum += entryCharge([]byte(k), e)
		}
		if memo.bytes != sum || memo.bytes > memo.maxBytes {
			t.Fatalf("after %q: charge %d, entries and hashes %d, budget %d", span, memo.bytes, sum, memo.maxBytes)
		}
	}
	// store sights span twice, which stores it.
	store := func(span string, e baseEntry) {
		t.Helper()
		for range 2 {
			memo.put([]byte(span), e)
			check(span)
		}
	}
	// Three entries of 3+8*37 = 299 bytes fit in 1000.
	store("[0]", profile(37))
	store("[1]", profile(37))
	store("[2]", profile(37))
	store("[1]", profile(37))
	if len(memo.m) != 3 || len(memo.seen) != 0 || memo.bytes != 897 {
		t.Fatalf("%d entries and %d hashes charged %d, want 3 entries charged 897", len(memo.m), len(memo.seen), memo.bytes)
	}
	// The fourth's hash fits, but the fourth would pass the budget: the map
	// goes first.
	store("[3]", profile(37))
	if len(memo.m) != 1 || memo.m["[3]"] == nil {
		t.Fatalf("%d entries, want [3] alone", len(memo.m))
	}
	// A value larger than the budget is not stored, not even as a hash, and
	// drops nothing; one of exactly the budget is stored.
	store("[4]", profile(125))
	if len(memo.m) != 1 || memo.m["[4]"] != nil || len(memo.seen) != 0 {
		t.Fatalf("an entry of %d bytes was sighted or stored, or dropped the map", entryCharge([]byte("[4]"), &baseEntry{profile: make([]int, 125)}))
	}
	store("[5]", profile(124))
	if len(memo.m) != 1 || memo.bytes != 995 {
		t.Fatalf("%d entries charged %d, want [5] alone at 995", len(memo.m), memo.bytes)
	}
	// With 5 bytes left no hash fits beside [5], so a first sighting drops
	// it too.
	memo.put([]byte("[6]"), profile(1))
	check("[6]")
	if len(memo.m) != 0 || len(memo.seen) != 1 {
		t.Fatalf("%d entries and %d hashes, want one hash alone", len(memo.m), len(memo.seen))
	}

	// An instance entry is charged its span, the spec's p and edges, the
	// instance's three tables and, on an explicit graph, the adjacency.
	for _, body := range []string{
		`{"n": 3, "complete": true, "p": [0.5, 0.6, 0.7]}`,
		`{"n": 3, "edges": [[0, 1], [1, 2]], "p": [0.5, 0.6, 0.7]}`,
	} {
		var spec InstanceSpec
		d := decoder{body: []byte(body)}
		d.value(&spec)
		in, aerr := validateInstance(&spec)
		if d.err != nil || aerr != nil {
			t.Fatalf("%s: %v %v", body, d.err, aerr)
		}
		words := 3 + 3*3
		if !spec.Complete {
			words += 2*2 + 2*2 + 3*3
		}
		if got, want := entryCharge([]byte(body), &baseEntry{spec: spec, in: in}), len(body)+8*words; got != want {
			t.Fatalf("%s: charged %d, want %d", body, got, want)
		}
	}
}

// TestBaseMemoSecondSighting: a value sent once is not stored, one sent
// twice is, and the third send hits, reading the stored instance and
// profile. One-off bases sent after it, enough to pass the budget with
// their hashes, drop only hashes and never the stored base.
func TestBaseMemoSecondSighting(t *testing.T) {
	// A base's instance and profile; pad spaces make a profile's bytes new.
	body := func(p float64, pad int) []byte {
		return fmt.Appendf(nil, `{"instance": {"n": 3, "complete": true, "p": [0.5, 0.6, %v]}, "delegations": [2, -1, -1%s]}`, p, strings.Repeat(" ", pad))
	}
	memo := newBaseMemo()
	shared := body(0.9, 0)
	parse := func(b []byte) *ParsedWhatIf {
		t.Helper()
		parsed, aerr := parseWhatIf(b, memo)
		if aerr != nil {
			t.Fatal(aerr)
		}
		return parsed
	}
	first := parse(shared)
	if len(memo.m) != 0 || len(memo.seen) != 2 {
		t.Fatalf("sent once: %d entries and %d hashes, want 2 hashes", len(memo.m), len(memo.seen))
	}
	second := parse(shared)
	if len(memo.m) != 2 || len(memo.seen) != 0 || second.Instance == first.Instance {
		t.Fatalf("sent twice: %d entries and %d hashes, want 2 entries", len(memo.m), len(memo.seen))
	}
	third := parse(shared)
	if third.Instance != second.Instance || &third.Graph.Delegate[0] != &second.Graph.Delegate[0] {
		t.Fatal("the third send did not read the stored instance and profile")
	}
	stored := memo.bytes
	memo.maxBytes = stored + 10*seenBytes
	for k := range 40 {
		parse(body(0.7+float64(k)/1000, k+1))
		if memo.m[`{"n": 3, "complete": true, "p": [0.5, 0.6, 0.9]}`] == nil || memo.m["[2, -1, -1]"] == nil || len(memo.m) != 2 {
			t.Fatalf("one-off base %d dropped the shared base or was stored (%d entries)", k, len(memo.m))
		}
		if memo.bytes > memo.maxBytes || memo.bytes != stored+seenBytes*len(memo.seen) {
			t.Fatalf("one-off base %d: charge %d with %d hashes, budget %d", k, memo.bytes, len(memo.seen), memo.maxBytes)
		}
	}
	if fourth := parse(shared); fourth.Instance != second.Instance {
		t.Fatal("the shared base missed after the one-off bases")
	}
}

// TestBaseMemoStoresOnlyValidated: a value that fails its own validation
// is refused the same way every time it is sent, and is never stored.
func TestBaseMemoStoresOnlyValidated(t *testing.T) {
	const inst = `{"n": 3, "complete": true, "p": [0.5, 0.6, 0.9]}`
	for _, tc := range []struct {
		name, body string
		// instanceStored: the instance passed validation before the
		// profile failed.
		instanceStored bool
		// setDelegate is the delegation SetDelegate refuses with the
		// message the parse must carry, or nil.
		setDelegate []int
	}{
		{"competency above one", `{"instance": {"n": 2, "complete": true, "p": [0.5, 1.5]}, "delegations": [1, -1]}`, false, nil},
		{"bad edge", `{"instance": {"n": 2, "edges": [[0, 2]], "p": [0.5, 0.5]}, "delegations": [1, -1]}`, false, nil},
		{"delegate out of range", `{"instance": ` + inst + `, "delegations": [2, 3, -1]}`, true, []int{1, 3}},
		{"negative delegate", `{"instance": ` + inst + `, "delegations": [-2, 2, -1]}`, true, []int{0, -2}},
		{"self-delegation", `{"instance": ` + inst + `, "delegations": [2, 1, -1]}`, true, []int{1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(tc.body)
			memo := newBaseMemo()
			_, want := ParseWhatIfRequest(body)
			if want == nil || want.Status != http.StatusBadRequest {
				t.Fatalf("memo-less parse: %v, want a 400", want)
			}
			if tc.setDelegate != nil {
				i, j := tc.setDelegate[0], tc.setDelegate[1]
				err := (&core.DelegationGraph{Delegate: make([]int, 3)}).SetDelegate(i, j)
				if msg := fmt.Sprintf("delegations[%d]: %v", i, err); want.Message != msg {
					t.Fatalf("message %q, want SetDelegate's %q", want.Message, msg)
				}
			}
			for pass := range 2 {
				parsed, got := parseWhatIf(body, memo)
				checkSameParse(t, fmt.Sprintf("pass %d", pass), nil, want, parsed, got)
				for k, e := range memo.m {
					if e.profile != nil || !tc.instanceStored {
						t.Fatalf("pass %d stored %s", pass, k)
					}
				}
			}
			if tc.instanceStored && len(memo.m) != 1 {
				t.Fatalf("%d entries, want the valid instance alone", len(memo.m))
			}
		})
	}
}

// TestBaseMemoConcurrentDeltas sends delta what-ifs of every kind on two
// shared bases, a complete instance and an explicit graph, from several
// goroutines to one Server. Every response must equal the memo-less
// parse's, and afterwards every entry must still be what its bytes decode
// to. Run it under the race detector.
func TestBaseMemoConcurrentDeltas(t *testing.T) {
	const n = 40
	s := rng.New(rng.Derive(31, "server", "memo-concurrent"))
	type base struct {
		inst, deleg []byte
		complete    bool
	}
	var bases []base
	for _, complete := range []bool{true, false} {
		spec := InstanceSpec{N: n, Complete: complete, P: make([]float64, n)}
		deleg := make([]int, n)
		for v := range n {
			spec.P[v] = 0.3 + 0.5*s.Float64()
			deleg[v] = core.NoDelegate
			if v < n-1 && s.Float64() < 0.5 {
				deleg[v] = v + 1 + s.IntN(n-v-1)
			}
			// A ring with a chord at every fourth voter: (v, v+2) is
			// never an edge.
			if !complete {
				spec.Edges = append(spec.Edges, [2]int{v, (v + 1) % n})
				if v%4 == 0 {
					spec.Edges = append(spec.Edges, [2]int{v, (v + 5) % n})
				}
			}
		}
		bases = append(bases, base{mustMarshal(t, spec), mustMarshal(t, deleg), complete})
	}

	// Each body repoints a voter upward, so the profile stays acyclic, then
	// makes one edit of one kind.
	var bodies [][]byte
	for k := range 48 {
		b := bases[k%2]
		kinds := []string{"competency", "repoint", "add-voter", "remove-voter", "add-edge", "remove-edge"}
		if b.complete {
			kinds = kinds[:4]
		}
		v := s.IntN(n - 2)
		up := v + 1 + s.IntN(n-v-1)
		deltas := []DeltaSpec{{Kind: "repoint", Voter: v, Target: &up}}
		edit := DeltaSpec{Kind: kinds[(k/2)%len(kinds)], Voter: s.IntN(n - 2)}
		switch edit.Kind {
		case "competency":
			edit.P = 0.3 + 0.5*s.Float64()
		case "repoint":
			to := edit.Voter + 1 + s.IntN(n-edit.Voter-1)
			edit.Target = &to
		case "add-voter":
			edit.P, edit.Target = 0.3+0.5*s.Float64(), &v
			if !b.complete {
				edit.Edges = []int{v, up}
			}
		case "add-edge":
			to := edit.Voter + 2
			edit.Target = &to
		case "remove-edge":
			to := edit.Voter + 1
			edit.Target = &to
		}
		deltas = append(deltas, edit)
		body := fmt.Appendf(nil, `{"instance": %s, "delegations": %s, "deltas": %s}`, b.inst, b.deleg, mustMarshal(t, deltas))
		bodies = append(bodies, body)
	}

	// The memo-less reference: ParseWhatIfRequest, then the handler's
	// resolution and scoring.
	ref := &Server{cfg: Config{}.withDefaults()}
	want := make([][]byte, len(bodies))
	for i, body := range bodies {
		parsed, aerr := ParseWhatIfRequest(body)
		if aerr != nil {
			t.Fatalf("body %d: %v", i, aerr)
		}
		res, err := parsed.FinalGraph.Resolve()
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		cost := EstimateWhatIfDeltaCost(parsed.FinalInstance.N(), len(parsed.Deltas), election.DefaultExactCostLimit)
		resp, err := ref.whatIf(context.Background(), parsed, res, cost)
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		want[i] = append(mustMarshal(t, resp), '\n')
	}

	srv := New(Config{})
	defer srv.Close()
	const goroutines = 4
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 3 {
				for k := range bodies {
					i := (k + g*len(bodies)/goroutines) % len(bodies)
					w := httptest.NewRecorder()
					srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/whatif", bytes.NewReader(bodies[i])))
					if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want[i]) {
						t.Errorf("goroutine %d, round %d, body %d: status %d\n got: %s\nwant: %s", g, round, i, w.Code, w.Body.Bytes(), want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	if len(srv.memo.m) != 2*len(bases) {
		t.Fatalf("%d entries, want the %d bases' instances and profiles", len(srv.memo.m), len(bases))
	}
	for k, e := range srv.memo.m {
		d := decoder{body: []byte(k)}
		if e.in == nil {
			var profile []int
			if d.value(&profile); d.err != nil || !slices.Equal(e.profile, profile) {
				t.Fatalf("profile entry %s now holds %v", k, e.profile)
			}
			continue
		}
		var spec InstanceSpec
		d.value(&spec)
		in, aerr := validateInstance(&spec)
		if d.err != nil || aerr != nil || !bitsEqual(reflect.ValueOf(e.spec), reflect.ValueOf(spec)) || !sameInstance(e.in, in) {
			t.Fatalf("instance entry %s changed", k)
		}
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
