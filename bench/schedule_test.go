package main

import (
	"bytes"
	"context"
	"testing"

	"liquid/internal/server"
)

// scheduleSize is how many requests per workload the schedule tests
// build; enough to draw every request kind of every mix.
const scheduleSize = 120

func TestSchedulesAreByteDeterministic(t *testing.T) {
	for _, spec := range serveSpecs {
		a, b := spec.newGen(7, spec.voters).requests(0, scheduleSize), spec.newGen(7, spec.voters).requests(0, scheduleSize)
		other := spec.newGen(8, spec.voters).requests(0, scheduleSize)
		differs := false
		for i := range a {
			if !bytes.Equal(bytes.Join(a[i].wire, nil), bytes.Join(b[i].wire, nil)) {
				t.Fatalf("%s: request %d differs between two generators of seed 7", spec.name, i)
			}
			differs = differs || !bytes.Equal(a[i].body(), other[i].body())
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", spec.name)
		}
		// A generator answers request i the same however the stream is cut.
		if !bytes.Equal(spec.newGen(7, spec.voters).request(scheduleSize-1).body(), a[scheduleSize-1].body()) {
			t.Errorf("%s: request %d depends on the requests drawn before it", spec.name, scheduleSize-1)
		}
	}
}

func TestScheduledBodiesParse(t *testing.T) {
	for _, spec := range serveSpecs {
		kinds := make(map[kind]int)
		for i, rq := range spec.newGen(3, spec.voters).requests(0, scheduleSize) {
			kinds[rq.kind]++
			body := rq.body()
			var aerr *server.Error
			switch rq.path() {
			case "/v1/evaluate":
				_, aerr = server.ParseEvaluateRequest(body)
			case "/v1/whatif":
				_, aerr = server.ParseWhatIfRequest(body)
			default:
				t.Fatalf("%s: request %d targets %q", spec.name, i, rq.path())
			}
			head := string(rq.wire[0])
			if !bytes.Contains(rq.wire[0], []byte("Content-Length: "+itoa(len(body))+"\r\n")) {
				t.Errorf("%s: request %d head %q does not carry its body length %d", spec.name, i, head, len(body))
			}
			if rq.kind == kindMalformed {
				if rq.status != 400 {
					t.Errorf("%s: malformed request %d expects status %d", spec.name, i, rq.status)
				}
				continue
			}
			if aerr != nil {
				t.Errorf("%s: request %d (%s) does not parse: %v", spec.name, i, rq.kind, aerr)
			}
		}
		t.Logf("%s: %v", spec.name, kinds)
	}
}

func TestMalformedBodiesAreRefusedWithTypedCodes(t *testing.T) {
	h := &handler{}
	want := []string{server.CodeBadJSON, server.CodeBadCompetency, server.CodeBadMechanism, server.CodeBadRequest}
	for i, rq := range malformedPieces(25) {
		ans, err := h.respond(context.Background(), 0, rq)
		if err != nil {
			t.Fatal(err)
		}
		if ans.status != 400 || !bytes.Contains(ans.body, []byte(`"code":"`+want[i]+`"`)) {
			t.Errorf("malformed body %d answered %d %s, want a 400 with code %s", i, ans.status, ans.body, want[i])
		}
	}
}

func TestPoissonArrivalsKeepTheirRate(t *testing.T) {
	due := poissonArrivals(newSmallGenerator(1, 25).root, 20000, 1000)
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatalf("arrival %d precedes arrival %d", i, i-1)
		}
	}
	if span := due[len(due)-1].Seconds(); span < 19 || span > 21 {
		t.Errorf("20000 arrivals at 1000/s span %.2fs, want about 20s", span)
	}
}

func itoa(n int) string { return formatValue(float64(n)) }
