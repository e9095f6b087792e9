package machine

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"sweeper/internal/nic"
	"sweeper/internal/obs"
)

// TestTrafficManifestSmoke validates a bursty-MMPP run's manifest. When
// SWEEPER_TRAFFIC_MANIFEST is set (the `make traffic-smoke` path: sweepersim
// runs -arrival mmpp and writes the manifest), it checks that file;
// otherwise it generates its own from a short in-process MMPP run, so the
// contract is also guarded under plain `go test`.
func TestTrafficManifestSmoke(t *testing.T) {
	var data []byte
	if path := os.Getenv("SWEEPER_TRAFFIC_MANIFEST"); path != "" {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data = b
	} else {
		cfg := quickCfg()
		cfg.Arrival = nic.ArrivalConfig{Process: nic.ArrivalMMPP, BurstRatio: 4}
		m := MustNew(cfg)
		r := m.Run(200_000, 150_000)
		var buf bytes.Buffer
		if err := obs.WriteManifest(&buf, m.BuildManifest("traffic smoke", r)); err != nil {
			t.Fatal(err)
		}
		data = buf.Bytes()
	}

	var man struct {
		Config struct {
			Arrival struct {
				Process string `json:"Process"`
			} `json:"Arrival"`
		} `json:"config"`
		Results struct {
			Offered        uint64  `json:"Offered"`
			Served         uint64  `json:"Served"`
			ThroughputMrps float64 `json:"ThroughputMrps"`
		} `json:"results"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatalf("traffic manifest does not parse: %v", err)
	}
	if man.Config.Arrival.Process != nic.ArrivalMMPP {
		t.Fatalf("manifest arrival process %q, want %q", man.Config.Arrival.Process, nic.ArrivalMMPP)
	}
	if man.Results.Offered == 0 || man.Results.Served == 0 {
		t.Fatalf("mmpp run moved no traffic: offered %d, served %d", man.Results.Offered, man.Results.Served)
	}
	if man.Results.ThroughputMrps <= 0 {
		t.Error("manifest reports no throughput")
	}
	for _, key := range []string{"gen.offered", "gen.mmpp_on_arrivals", "cpu.served", "mem.reads"} {
		if _, ok := man.Metrics[key]; !ok {
			t.Errorf("manifest missing metric %q", key)
		}
	}
	if man.Metrics["gen.offered"] == 0 {
		t.Error("generator counter never advanced")
	}
	if man.Metrics["gen.mmpp_on_arrivals"] == 0 {
		t.Error("no arrival came in the burst state")
	}
}
