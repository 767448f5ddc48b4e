package ccd_test

import (
	"testing"

	"repro/internal/ccd"
	"repro/internal/dataset"
)

// maxFingerprintAllocs caps the mean allocations of one FingerprintSource
// over generated contracts once the pools are warm. Measured with Go 1.24
// on linux/amd64: 2 (the unit header and the fingerprint); under -race,
// whose pools drop a quarter of what they are given, a dropped tree arena
// or normalizer starts again from nothing.
const maxFingerprintAllocs = 25

// TestFingerprintSteadyStateAllocs pins the allocations of the ingest
// fingerprint path in a loop, where each source's token buffer, syntax tree
// arena and normalizer serve the next.
func TestFingerprintSteadyStateAllocs(t *testing.T) {
	qa := dataset.GenerateQA(dataset.QAConfig{Seed: 7, Scale: 0.01})
	contracts := dataset.GenerateSanctuary(dataset.SanctuaryConfig{Seed: 7, Scale: 0.003}, qa)
	if len(contracts) < 100 {
		t.Fatalf("generated pool holds %d contracts, want at least 100", len(contracts))
	}
	for _, c := range contracts {
		_, _ = ccd.FingerprintSource(c.Source)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(contracts), func() {
		_, _ = ccd.FingerprintSource(contracts[i%len(contracts)].Source)
		i++
	})
	t.Logf("FingerprintSource over %d contracts: %.1f allocs per source", len(contracts), allocs)
	if allocs > maxFingerprintAllocs {
		t.Errorf("FingerprintSource: %.1f allocs per source, want <= %d", allocs, maxFingerprintAllocs)
	}
}
