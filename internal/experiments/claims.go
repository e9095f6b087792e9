package experiments

import (
	"fmt"
	"io"

	"sweeper/internal/stats"
)

// Claim is one of the paper's headline quantitative statements, checked
// against this reproduction. Pass means the *direction and rough shape*
// hold; Measured records the numbers so EXPERIMENTS.md can cite them.
type Claim struct {
	// ID is a short handle ("ddio-over-dma"); Source cites the paper's
	// section; Statement paraphrases the claim.
	ID        string
	Source    string
	Statement string
	// Measured is this reproduction's number(s); Expected the paper's.
	Measured string
	Expected string
	Pass     bool
}

// claimCells are the spec cells the claims measure, in the order CheckClaims
// reads them: the four central baselines at 1KB items and 1024 buffers per
// core (DMA, 2-way DDIO without and with Sweeper, Ideal-DDIO), Sweeper at 512
// and 2048 buffers, the 2-way baseline at 2048 buffers, and the deep-queue
// forwarder under Sweeper (Fig. 7b's premature-eviction bookkeeping).
var claimCells = []specCell{
	{"fig1", "1024 buf", "DMA"},
	{"fig5", "1024B/1024 buf", "DDIO 2 Ways"},
	{"fig5", "1024B/1024 buf", "DDIO 2 Ways + Sweeper"},
	{"fig5", "1024B/1024 buf", "Ideal DDIO"},
	{"fig5", "1024B/512 buf", "DDIO 2 Ways + Sweeper"},
	{"fig5", "1024B/2048 buf", "DDIO 2 Ways + Sweeper"},
	{"fig5", "1024B/2048 buf", "DDIO 2 Ways"},
	{"fig7", "D=250", "DDIO 2 Ways + Sweeper"},
}

// CheckClaims runs a compact set of simulations and evaluates the paper's
// central claims. It is the repository's end-to-end acceptance gate: every
// qualitative result the abstract promises is asserted here.
func CheckClaims(sc Scale) []Claim {
	jobs := specJobs(claimCells)
	runJobs(jobs, sc)
	dma, ddio, sw, ideal := jobs[0].pk, jobs[1].pk, jobs[2].pk, jobs[3].pk
	sw512, sw2048, baseDeep := jobs[4].pk, jobs[5].pk, jobs[6].pk
	l3 := jobs[7].pk.At

	var claims []Claim
	add := func(id, source, statement, measured, expected string, pass bool) {
		claims = append(claims, Claim{
			ID: id, Source: source, Statement: statement,
			Measured: measured, Expected: expected, Pass: pass,
		})
	}

	perReq := func(p PeakResult) float64 {
		var t float64
		for _, v := range p.At.AccessesPerRequest {
			t += v
		}
		return t
	}

	add("ddio-over-dma", "§IV-A",
		"DDIO sustains higher peak throughput than conventional DMA",
		fmt.Sprintf("%.1f vs %.1f Mrps (%s)", ddio.PeakMrps, dma.PeakMrps,
			ratio(ddio.PeakMrps, dma.PeakMrps)),
		"up to 2.1x", ddio.PeakMrps > dma.PeakMrps)

	add("dma-bandwidth-waste", "§IV-A",
		"DMA burns more memory bandwidth per unit of work than DDIO",
		fmt.Sprintf("%.1f acc/req vs %.1f acc/req", perReq(dma), perReq(ddio)),
		"up to 70% fewer accesses with DDIO", perReq(dma) > 1.5*perReq(ddio))

	add("ddio-premium-over-ideal", "§IV-A",
		"DDIO moves 1.3-2x more data per request than Ideal-DDIO",
		fmt.Sprintf("%.1f vs %.1f acc/req (%s)", perReq(ddio), perReq(ideal),
			ratio(perReq(ddio), perReq(ideal))),
		"1.3-2x", perReq(ddio) > 1.2*perReq(ideal))

	add("consumed-dominates", "§IV",
		"Consumed-buffer evictions dominate premature evictions at peak",
		fmt.Sprintf("RX Evct %.2f vs CPU RX Rd %.2f per request",
			ddio.At.AccessesPerRequest[stats.RXEvct],
			ddio.At.AccessesPerRequest[stats.CPURXRd]),
		"consumed >> premature",
		ddio.At.AccessesPerRequest[stats.RXEvct] >
			ddio.At.AccessesPerRequest[stats.CPURXRd])

	add("sweeper-eliminates-rxevct", "§VI-A",
		"Sweeper completely eliminates consumed-buffer writebacks",
		fmt.Sprintf("%.3f RX Evct/req with Sweeper (baseline %.2f)",
			sw.At.AccessesPerRequest[stats.RXEvct],
			ddio.At.AccessesPerRequest[stats.RXEvct]),
		"~0",
		sw.At.AccessesPerRequest[stats.RXEvct] <
			0.1*ddio.At.AccessesPerRequest[stats.RXEvct]+0.05)

	add("sweeper-throughput-gain", "§VI-A",
		"Sweeper raises peak throughput over plain DDIO",
		fmt.Sprintf("%.1f vs %.1f Mrps (%s)", sw.PeakMrps, ddio.PeakMrps,
			ratio(sw.PeakMrps, ddio.PeakMrps)),
		"1.02-2.6x", sw.PeakMrps > ddio.PeakMrps)

	add("sweeper-near-ideal", "§VI-A",
		"Sweeper lands close to the Ideal-DDIO upper bound",
		fmt.Sprintf("%.1f of %.1f Mrps (%.0f%%)", sw.PeakMrps, ideal.PeakMrps,
			100*sw.PeakMrps/ideal.PeakMrps),
		"within 2-18%", sw.PeakMrps > 0.6*ideal.PeakMrps)

	add("sweeper-buffer-insensitive", "§VI-A",
		"With Sweeper, peak throughput barely depends on RX provisioning",
		fmt.Sprintf("512 buf: %.1f, 2048 buf: %.1f Mrps", sw512.PeakMrps,
			sw2048.PeakMrps),
		"insensitive",
		sw2048.PeakMrps > 0.75*sw512.PeakMrps)

	add("sweeper-beats-deep-baseline", "§VI-A",
		"Deep buffers stop hurting once Sweeper removes the leak",
		fmt.Sprintf("2048 buf: %.1f (Sweeper) vs %.1f (baseline) Mrps (%s)",
			sw2048.PeakMrps, baseDeep.PeakMrps,
			ratio(sw2048.PeakMrps, baseDeep.PeakMrps)),
		"up to 2.6x", sw2048.PeakMrps > baseDeep.PeakMrps)

	add("premature-accounting", "§VI-C",
		"Under Sweeper, surviving RX evictions are premature ones: they track CPU RX read misses",
		fmt.Sprintf("RX Evct %.2f vs CPU RX Rd %.2f per packet",
			l3.AccessesPerRequest[stats.RXEvct],
			l3.AccessesPerRequest[stats.CPURXRd]),
		"equal",
		within(l3.AccessesPerRequest[stats.RXEvct],
			l3.AccessesPerRequest[stats.CPURXRd], 0.30))

	add("bandwidth-saved", "§VI-A",
		"Sweeper reduces memory bandwidth at comparable load",
		fmt.Sprintf("%.1f GB/s (Sweeper, %.1f Mrps) vs %.1f GB/s (DDIO, %.1f Mrps)",
			sw.At.MemBWGBps, sw.PeakMrps, ddio.At.MemBWGBps, ddio.PeakMrps),
		"up to 1.3x conserved",
		sw.At.MemBWGBps/sw.PeakMrps < ddio.At.MemBWGBps/ddio.PeakMrps)

	return claims
}

// within reports whether a and b agree to the given relative tolerance.
func within(a, b, tol float64) bool {
	if a == 0 && b == 0 {
		return true
	}
	hi, lo := a, b
	if lo > hi {
		hi, lo = lo, hi
	}
	if hi == 0 {
		return true
	}
	return (hi-lo)/hi <= tol
}

// RenderClaims prints the claim table.
func RenderClaims(w io.Writer, claims []Claim) {
	pass := 0
	for _, c := range claims {
		status := "FAIL"
		if c.Pass {
			status = "ok"
			pass++
		}
		fmt.Fprintf(w, "[%-4s] %-28s (%s)\n", status, c.ID, c.Source)
		fmt.Fprintf(w, "       claim:    %s\n", c.Statement)
		fmt.Fprintf(w, "       paper:    %s\n", c.Expected)
		fmt.Fprintf(w, "       measured: %s\n", c.Measured)
	}
	fmt.Fprintf(w, "%d/%d claims hold\n", pass, len(claims))
}
