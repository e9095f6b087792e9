package experiments

import (
	"bytes"
	"strings"
	"testing"

	"sweeper/internal/stats"
)

func TestWithinHelper(t *testing.T) {
	if !within(10, 10, 0) || !within(0, 0, 0) {
		t.Fatal("equal values")
	}
	if !within(10, 8, 0.2) || within(10, 7, 0.2) {
		t.Fatal("tolerance")
	}
	if !within(8, 10, 0.2) {
		t.Fatal("symmetry")
	}
}

func TestRenderClaims(t *testing.T) {
	claims := []Claim{
		{ID: "a", Source: "§X", Statement: "s", Measured: "m", Expected: "e", Pass: true},
		{ID: "b", Source: "§Y", Statement: "s2", Measured: "m2", Expected: "e2", Pass: false},
	}
	var buf bytes.Buffer
	RenderClaims(&buf, claims)
	out := buf.String()
	for _, want := range []string{"[ok  ]", "[FAIL]", "1/2 claims hold", "§X"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestCheckClaims is the repository's acceptance gate: every headline claim
// of the paper must hold in this reproduction, at least directionally, even
// at a reduced simulation scale.
func TestCheckClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("claims check runs ~10 peak searches")
	}
	sc := Scale{Warmup: 1_500_000, Measure: 800_000, SearchIters: 3, Parallelism: 4}
	claims := CheckClaims(sc)
	if len(claims) != 11 {
		t.Fatalf("claims = %d", len(claims))
	}
	var failed []string
	for _, c := range claims {
		if !c.Pass {
			failed = append(failed, c.ID+" ("+c.Measured+")")
		}
	}
	// At this reduced scale a couple of magnitude-sensitive claims may
	// wobble; the core mechanism claims must always hold.
	mustHold := map[string]bool{
		"sweeper-eliminates-rxevct": true,
		"sweeper-throughput-gain":   true,
		"ddio-over-dma":             true,
		"consumed-dominates":        true,
	}
	for _, f := range failed {
		id := strings.SplitN(f, " ", 2)[0]
		if mustHold[id] {
			t.Errorf("core claim failed: %s", f)
		}
	}
	if len(failed) > 3 {
		t.Errorf("too many claims failed at reduced scale: %v", failed)
	}
}

func TestRenderCDFChart(t *testing.T) {
	curves := []LatencyCurve{
		{
			Config: "DDIO 2 Ways", Context: "peak", AtMrps: 10, Mean: 100, P50: 90, P99: 400,
			CDF: []stats.CDFPoint{{Value: 60, Fraction: 0.2}, {Value: 100, Fraction: 0.6},
				{Value: 400, Fraction: 1.0}},
		},
		{
			Config: "DDIO 2 Ways + Sweeper", Context: "peak", AtMrps: 18, Mean: 70, P50: 60, P99: 200,
			CDF: []stats.CDFPoint{{Value: 50, Fraction: 0.5}, {Value: 200, Fraction: 1.0}},
		},
		{
			Config: "iso curve", Context: "iso", AtMrps: 10, Mean: 60, P50: 55, P99: 100,
			CDF: []stats.CDFPoint{{Value: 50, Fraction: 0.4}, {Value: 100, Fraction: 1.0}},
		},
	}
	var buf bytes.Buffer
	RenderCDFChart(&buf, curves)
	out := buf.String()
	for _, want := range []string{"peak", "iso", "a:", "b:", "1.00 |", "0.00 |", "cycles"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
	// Empty input renders nothing.
	buf.Reset()
	RenderCDFChart(&buf, nil)
	if buf.Len() != 0 {
		t.Fatal("empty chart should render nothing")
	}
}
